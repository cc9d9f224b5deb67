"""The shared connection layer: framed sessions and the service lifecycle.

The paper's architecture is a set of separable services — event logger,
checkpoint server, checkpoint scheduler, dispatcher, channel memories —
each talking to daemon-side clients over ordered streams.  Before this
module existed, every one of those components hand-rolled the same three
mechanisms: a listen/accept-loop/unlisten lifecycle on the server side,
a typed-record framing discipline on the wire, and reconnect-with-backoff
machinery on the client side.  This module implements each exactly once:

* :class:`Session` — one client-side link to a named service.  It wraps
  a :class:`~repro.simnet.streams.StreamEnd` with

  - **typed record framing**: a wire message is either ``None`` (an
    in-flight segment of a chunked transfer, skipped), a tagged tuple
    ``("KIND", ...)``, or an explicitly allowed raw payload type (e.g.
    :class:`~repro.mpi.protocol.Packet` on peer/CM links).  Anything
    else is a *protocol error* — counted into the metrics registry and
    traced, never silently treated as payload (the CHUNK/COMMIT
    discipline ``repro.store`` introduced, now shared);
  - **reconnect epochs**: every (re)adoption of a stream bumps
    ``epoch``; loops capture the epoch they were started under and use
    :meth:`Session.stale` to reject work belonging to a replaced link;
  - **integrated backoff**: :meth:`Session.connect` retries refused
    connections under a :class:`~repro.runtime.retry.RetryPolicy` with
    deterministic jitter, reporting each retry through ``on_retry`` (the
    hook components use to account the ``outage.*`` metrics).

* :class:`PushReader` — a session's reader loop as a stream consumer
  instead of a process: the same framing (:meth:`Session.accept`), run
  at each record's arrival, for loops that never block between reads.

* :class:`ServiceBase` — the server-side lifecycle.  ``start()``
  registers the fabric listener and runs the accept loop; ``stop()``
  withdraws the listener, kills every service process and breaks every
  accepted connection (a *service-level* crash: in-flight requests die,
  durable state — owned by the subclass — survives for the supervised
  relaunch).  Subclasses implement :meth:`ServiceBase._serve` (one
  generator per accepted connection) or override
  :meth:`ServiceBase.on_accept` for bespoke connection handling.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Generator, Optional

from ..obs.registry import Metrics
from ..simnet.kernel import Future, Simulator, register_slot
from ..simnet.node import Host, HostDown
from ..simnet.streams import Disconnected, StreamEnd
from ..simnet.trace import Tracer
from .fabric import Acceptor, ConnectionRefused, Fabric
from .retry import RetryPolicy

__all__ = ["Session", "PushReader", "ServiceBase", "framed"]


def framed(msg: Any, payload_types: tuple = ()) -> bool:
    """Is ``msg`` a well-formed typed record (or an allowed raw payload)?

    A typed record is a non-empty tuple whose first element is a string
    tag.  ``payload_types`` widens the accepted set for links that carry
    raw application payloads (peer daemons, channel memories).
    """
    if isinstance(msg, tuple) and msg and isinstance(msg[0], str):
        return True
    return bool(payload_types) and isinstance(msg, payload_types)


class Session:
    """One framed, epoch-counted client link to a named service.

    A session survives the stream it currently wraps: when the link
    breaks, :meth:`drop` marks it down (rejecting stale notifications
    from replaced streams) and a later :meth:`connect` /
    :meth:`adopt` installs the replacement under a bumped epoch.
    """

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        host: Host,
        target: str,
        *,
        hello: Any = None,
        window: Optional[int] = None,
        policy: RetryPolicy,
        rng: Optional[Any] = None,
        on_retry: Optional[Callable[[int, float], None]] = None,
        tracer: Tracer,
        metrics: Metrics,
        scope: str,
        payload_types: tuple = (),
        labels: dict[str, Any],
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.host = host
        self.target = target
        self.hello = hello
        self.window = window
        self.policy = policy
        self._rng = rng
        self._on_retry = on_retry
        self.tracer = tracer
        self.scope = scope
        self.payload_types = tuple(payload_types)
        self._labels = dict(labels)
        self._metrics = metrics
        self._m_proto = metrics.counter(f"{scope}.protocol_errors", **self._labels)
        # backpressure visibility: stalled-write time and receive-queue
        # depth of the current stream, folded on every session I/O call
        # (the ``session.*`` family is shared across scopes; the target
        # label separates the links)
        _bp = dict(self._labels, target=target)
        self._m_stall_s = metrics.counter("session.stalled_write_s", **_bp)
        self._m_stalls = metrics.counter("session.stalled_writes", **_bp)
        self._m_depth = metrics.gauge("session.queue_depth", **_bp)
        self._bp_end: Optional[StreamEnd] = None
        self._bp_stall_s = 0.0
        self._bp_stalls = 0
        # heartbeat state (armed by :meth:`heartbeat`)
        self._hb_on = False
        self._m_rtt: Optional[Any] = None
        self._m_hb_timeouts: Optional[Any] = None
        self.last_pong = 0.0
        self.hb_suspect = False
        self.end: Optional[StreamEnd] = None
        self.epoch = 0  # bumps on every (re)adoption

    # -- link state --------------------------------------------------------
    def up(self) -> bool:
        """Is the current stream alive?"""
        return self.end is not None and self.end.broken is None

    def stale(self, epoch: int) -> bool:
        """Does ``epoch`` belong to a replaced incarnation of this link?"""
        return epoch != self.epoch

    def adopt(self, end: StreamEnd) -> int:
        """Install ``end`` as the session's stream; returns the new epoch."""
        self.end = end
        self.epoch += 1
        return self.epoch

    def drop(self, end: Optional[StreamEnd] = None) -> bool:
        """Mark the link down.  Returns False for stale notifications —
        when ``end`` is given and is no longer the session's stream, a
        replaced loop noticed a break the session already moved past."""
        if self.end is None or (end is not None and self.end is not end):
            return False
        self.end = None
        return True

    # -- connecting --------------------------------------------------------
    def connect_now(self, adopt: bool = True) -> StreamEnd:
        """Single connection attempt (no retry); adopts on success.

        Raises :class:`~repro.runtime.fabric.ConnectionRefused` exactly
        as ``fabric.connect`` would — for links whose target is assumed
        reliable (e.g. a Channel Memory).  ``adopt=False`` returns the
        raw stream for callers whose adoption needs arbitration first
        (the peer layer's crossed-stream tie-break)."""
        end = self.fabric.connect(
            self.host, self.target, hello=self.hello, window=self.window
        )
        if adopt:
            self.adopt(end)
        return end

    def connect(
        self,
        giveup: Optional[Callable[[], bool]] = None,
        adopt: bool = True,
    ) -> Generator[Future, Any, Optional[StreamEnd]]:
        """Connect under the session's retry policy; adopts on success.

        Returns the new stream end, or ``None`` once ``policy.max_tries``
        refused attempts are exhausted (or ``giveup()`` turned true
        between attempts — e.g. another process already re-established
        the link).  ``on_retry`` is called as ``(attempt, delay)`` before
        each backoff sleep.  ``adopt=False`` as in :meth:`connect_now`."""
        policy = self.policy
        for attempt in range(policy.max_tries):
            if giveup is not None and giveup():
                return None
            try:
                return self.connect_now(adopt)
            except ConnectionRefused:
                d = policy.delay(attempt, self._rng)
                if self._on_retry is not None:
                    self._on_retry(attempt, d)
                yield self.sim.pause(d)
        return None

    # -- backpressure accounting -------------------------------------------
    def _note_io(self, end: StreamEnd) -> None:
        """Fold the stream's stall/backlog state into ``session.*``.

        Called on every session read/write: stalled-write deltas of the
        current end become counters (the baseline resets when the
        session adopts a replacement stream), and the receive backlog is
        sampled into a time-weighted gauge.
        """
        if end is not self._bp_end:
            self._bp_end = end
            self._bp_stall_s = end.stall_s
            self._bp_stalls = end.stall_count
        else:
            ds = end.stall_s - self._bp_stall_s
            if ds > 0.0:
                self._m_stall_s.inc(ds)
                self._bp_stall_s = end.stall_s
            dn = end.stall_count - self._bp_stalls
            if dn:
                self._m_stalls.inc(dn)
                self._bp_stalls = end.stall_count
        d = end.rx_depth
        if d or self._m_depth.value:
            self._m_depth.set(float(d), self.sim.now)

    # -- heartbeat ---------------------------------------------------------
    def heartbeat(
        self, interval: float, timeout: float
    ) -> Generator[Future, Any, None]:
        """Periodic framed PING loop (run it as a process).

        Every ``interval`` simulated seconds a ``("PING", epoch, seq,
        now)`` record goes out on the live link; the peer's PONGs are
        absorbed by :meth:`read_record` (whichever loop is reading the
        link) into the ``session.rtt_s`` histogram.  When no PONG has
        arrived for ``timeout`` seconds on a link that still *looks* up
        — the partitioned-but-alive case a socket-disconnection detector
        cannot see — the session turns ``hb_suspect``, counts
        ``session.hb_timeouts`` and traces ``<scope>.hb_timeout``; the
        next PONG clears it with ``<scope>.hb_recover``.
        """
        self._hb_on = True
        if self._m_rtt is None:
            _hb = dict(self._labels, target=self.target)
            self._m_rtt = self._metrics.histogram("session.rtt_s", **_hb)
            self._m_hb_timeouts = self._metrics.counter(
                "session.hb_timeouts", **_hb
            )
        self.last_pong = self.sim.now
        seq = 0
        while True:
            yield self.sim.pause(interval)
            end = self.end
            if end is None or end.broken is not None:
                # a torn-down link is the socket detector's business,
                # not a heartbeat timeout
                self.last_pong = self.sim.now
                continue
            seq += 1
            try:
                yield from self.write(24, ("PING", self.epoch, seq, self.sim.now))
            except (Disconnected, HostDown):
                self.drop(end)
                continue
            if self.sim.now - self.last_pong > timeout and not self.hb_suspect:
                self.hb_suspect = True
                self._m_hb_timeouts.inc()
                self.tracer.emit(
                    self.sim.now, f"{self.scope}.hb_timeout",
                    target=self.target,
                    age=self.sim.now - self.last_pong, **self._labels,
                )

    # -- framed I/O --------------------------------------------------------
    def write(self, nbytes: int, record: Any) -> Generator[Future, Any, None]:
        """Send one framed record as one segment (``StreamEnd.write``)."""
        return self.write_frame(nbytes, record, nbytes)

    def write_frame(
        self,
        nbytes: int,
        record: Any,
        mtu: Optional[int] = None,
        bulk: bool = False,
    ) -> Generator[Future, Any, None]:
        """Send one coalesced frame (``StreamEnd.write_frame``) with the
        session's backpressure accounting wrapped around it."""
        end = self.end
        if end is None:
            raise Disconnected(self.target, "session down")
        self._note_io(end)
        yield from end.write_frame(nbytes, record, mtu=mtu, bulk=bulk)
        self._note_io(end)  # fold the stall this write just paid, if any

    def read_record(
        self, end: Optional[StreamEnd] = None
    ) -> Generator[Future, Any, Any]:
        """Next well-formed record (``read`` returns no in-flight
        segment): rejects (counts + traces) unframed garbage instead of
        returning it.  Heartbeat PONGs are absorbed here (RTT
        histogram), never returned to the caller."""
        src = end if end is not None else self.end
        if src is None:
            raise Disconnected(self.target, "session down")
        self._note_io(src)
        while True:
            _, msg = yield src.read()
            record = self.accept(msg)
            if record is not None:
                return record

    def accept(self, msg: Any) -> Any:
        """One arrived segment through the framing: the record, or None
        for what a reader skips — an in-flight segment of a chunked
        transfer, a heartbeat PONG (absorbed into the RTT histogram) or
        unframed garbage (counted and traced as a protocol error).
        :meth:`read_record` and :class:`PushReader` both read through it."""
        if msg is None:
            return None  # an in-flight segment (only ``try_read`` returns one)
        if (
            self._hb_on
            and type(msg) is tuple
            and len(msg) == 4
            and msg[0] == "PONG"
        ):
            now = self.sim.now
            self.last_pong = now
            self._m_rtt.observe(now - msg[3])
            if self.hb_suspect:
                self.hb_suspect = False
                self.tracer.emit(
                    now, f"{self.scope}.hb_recover",
                    target=self.target, **self._labels,
                )
            return None
        if not framed(msg, self.payload_types):
            self.protocol_error(f"unframed record of type {type(msg).__name__}")
            return None
        return msg

    def protocol_error(self, why: str) -> None:
        """Count and trace one protocol violation on this link."""
        self._m_proto.inc()
        self.tracer.emit(
            self.sim.now, f"{self.scope}.protocol_error",
            why=why, **self._labels,
        )


def _begin_reader(reader: "PushReader", _unused: Any) -> None:
    reader(None, _BEGIN)


#: the flat event a :class:`PushReader` starts from, pushed where the
#: reader process it replaces was spawned (so at its ``EV_START``)
EV_READER = register_slot(_begin_reader, "session.reader")
_BEGIN = object()  # the start event's marker in the ``exc`` position


class PushReader:
    """A session reader loop without a process: a stream consumer.

    It does, call for call, what this process did::

        end = end or session.end              # at its EV_START
        while not session.stale(epoch):       # never, for epoch None
            try:
                record = yield from session.read_record(end)
            except Disconnected:
                on_break(); return
            on_record(record)

    Parked in ``read``, that loop was resumed synchronously inside the
    arrival that woke it and never blocked before its next read, so
    :attr:`StreamEnd.consumer <repro.simnet.streams.StreamEnd.consumer>`
    runs the same code at the same point.  A backlog queued before the
    start (or during ``on_record``) drains iteratively, not recursively.
    What killed or stopped the loop stops the reader: once the host's
    crash bumped its incarnation all input is ignored; after a record
    that left the epoch stale the consumer is detached and later
    segments stay queued, unread; a break calls ``on_break`` once.
    Under a sampling kernel probe each activation reports its time as
    a resume of ``name``, the process name it replaces.
    """

    __slots__ = (
        "session", "sim", "on_record", "on_break", "host", "life", "name",
        "end", "epoch",
    )

    def __init__(
        self,
        session: Session,
        on_record: Callable[[Any], None],
        on_break: Callable[[], None],
        *,
        host: Host,
        name: str,
        end: Optional[StreamEnd] = None,
        epoch: Optional[int] = None,
    ) -> None:
        self.session = session
        self.sim = sim = session.sim
        self.on_record = on_record
        self.on_break = on_break
        self.host = host
        self.life = host.incarnation
        self.name = name
        self.end = end  # None: the session's stream when the reader starts
        self.epoch = epoch
        sim.sched(sim.now, EV_READER, self)

    def __call__(self, payload: Any, exc: Any) -> None:
        if self.host.incarnation != self.life:
            return  # the host crashed: the loop died with it
        probe = self.sim._probe
        if probe is not None and probe.sampling:
            t0 = perf_counter()
            self._take(payload, exc)
            probe.step_done(self.name, perf_counter() - t0)
        else:
            self._take(payload, exc)

    def _take(self, payload: Any, exc: Any) -> None:
        if exc is None:
            # detached while it works, as the loop was off its read: a
            # break meanwhile is found by the next read, not delivered
            self.end.consumer = None
            if self._feed(payload):
                self._drain()
        elif exc is _BEGIN:
            self._begin()
        else:
            self.on_break()

    def _begin(self) -> None:
        session = self.session
        end = self.end
        if end is None:
            end = self.end = session.end
        if self.epoch is not None and session.stale(self.epoch):
            return
        if end is None:
            self.on_break()  # read_record on a dropped session raises
            return
        session._note_io(end)
        self._drain()

    def _drain(self) -> None:
        """The loop's next reads, until one would park: then install."""
        end = self.end
        while self.host.incarnation == self.life:
            if end.broken is not None:
                self.on_break()
                return
            ok, _, payload = end.try_read()
            if not ok:
                end.consumer = self
                return
            if not self._feed(payload):
                return

    def _feed(self, payload: Any) -> bool:
        """One read's payload; False once the loop would have exited."""
        session = self.session
        record = session.accept(payload)
        if record is None:
            return True
        self.on_record(record)
        if self.epoch is not None and session.stale(self.epoch):
            return False
        session._note_io(self.end)  # the next read_record call's
        return True


class ServiceBase:
    """The listen/accept-loop/unlisten lifecycle every service shares.

    ``start()`` is callable again after ``stop()``: the listener
    re-registers and whatever durable state the subclass keeps is served
    to reconnecting clients — the stop/start durability contract the
    :class:`~repro.ft.services.ServiceSupervisor` relies on.

    Subclasses implement :meth:`_serve` (one generator per accepted
    connection, spawned supervised) or override :meth:`on_accept`, and
    may hook :meth:`on_start` / :meth:`on_stop` for extra service loops
    and teardown.  ``metric_ns`` names the service's metric/trace
    namespace for protocol-error accounting (``<ns>.protocol_errors`` /
    ``<ns>.protocol_error``).
    """

    metric_ns = "svc"
    #: raw (non-tuple) wire payloads accepted as framed by ``_accept``
    payload_types: tuple = ()

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        fabric: Fabric,
        name: str,
        tracer: Tracer,
        metrics: Metrics,
    ) -> None:
        self.sim = sim
        self.host = host
        self.fabric = fabric
        self.name = name
        self.tracer = tracer
        self.metrics = metrics
        self._m_proto = self.metrics.counter(
            f"{self.metric_ns}.protocol_errors", server=name
        )
        self._acceptor: Optional[Acceptor] = None
        #: live service processes by ``done`` future (an ended one leaves)
        self._procs: dict = {}

    # -- lifecycle ---------------------------------------------------------
    @property
    def listening(self) -> bool:
        """Is the service currently accepting connections?"""
        return self._acceptor is not None

    @property
    def _conns(self) -> list:
        """Live accepted connections: the host's streams tagged as ours."""
        return [s for s, owner in self.host._streams.items() if owner is self]

    def start(self) -> None:
        """Register the listener and start accepting connections.

        Callable again after :meth:`stop`: the listener re-registers and
        the subclass's durable state is served to reconnecting clients.
        """
        self.listen()
        self.run_accept()
        self.on_start()

    def listen(self) -> None:
        """Register the fabric listener (phase one of :meth:`start`).

        Split from :meth:`run_accept` for components that must claim
        their name early but begin accepting later (the V2 daemon
        listens before recovery, accepts after)."""
        self._acceptor = self.fabric.listen(self.name, self.host)

    def run_accept(self) -> None:
        """Spawn the accept loop (phase two of :meth:`start`)."""
        self._spawn(self._accept_loop(self._acceptor), f"{self.name}.accept")

    def stop(self, cause: Any = "svc-crash") -> None:
        """Service-level crash: drop the listener and every connection.

        Durable state (owned by the subclass) survives — only in-flight
        requests and unacknowledged pushes are lost, which clients must
        retry or re-push.
        """
        if self._acceptor is not None:
            self.fabric.unlisten(self.name, self._acceptor)
            self._acceptor = None
        for p in list(self._procs.values()):
            p.kill()
        for stream in self._conns:
            stream.break_both(cause)
        self.on_stop(cause)

    def on_start(self) -> None:
        """Hook: spawn extra service loops (killed again by ``stop``)."""

    def on_stop(self, cause: Any) -> None:
        """Hook: reset volatile (non-durable) per-incarnation state."""

    # -- accepting ---------------------------------------------------------
    def _accept_loop(self, acceptor: Acceptor):
        while True:
            end, hello = yield acceptor.accept()
            if not end.stream.dead:  # else: broke while queued, untracked
                self.host.attach_stream(end.stream, owner=self)
            self.on_accept(end, hello)

    def on_accept(self, end: StreamEnd, hello: Any) -> None:
        """Handle one accepted connection (default: spawn ``_serve``)."""
        self._spawn(
            self._serve(end, hello), f"{self.name}.serve({hello})",
            supervised=True,
        )

    def _serve(self, end: StreamEnd, hello: Any):
        raise NotImplementedError  # pragma: no cover - subclass contract

    # -- helpers -----------------------------------------------------------
    def _spawn(self, gen, name: str, supervised: bool = False):
        """Spawn a service process tracked for :meth:`stop` teardown."""
        p = self.sim.spawn(gen, name=name, supervised=supervised)
        self.host.register(p)
        p.register_in(self._procs)
        return p

    def _protocol_error(self, why: str) -> None:
        """Count and trace one wire-protocol violation."""
        self._m_proto.inc()
        self.tracer.emit(
            self.sim.now, f"{self.metric_ns}.protocol_error",
            server=self.name, why=why,
        )

    def on_ping(self, end: StreamEnd, msg: tuple) -> None:
        """Hook: a client heartbeat arrived on ``end`` (before the PONG).

        ``msg`` is ``("PING", epoch, seq, t_sent)``.  The dispatcher's
        control listener uses this as its liveness signal."""

    def _accept(
        self, end: StreamEnd, msg: Any
    ) -> Generator[Future, Any, Any]:
        """One segment from a client through the framing: the record, or
        None for what a server skips — an in-flight segment of a chunked
        transfer, a heartbeat PING (reported via :meth:`on_ping`, then
        answered in place with a PONG echoing the client's timestamp) or
        unframed garbage (counted and traced).  The server-side twin of
        :meth:`Session.accept`."""
        if msg is None:
            return None  # an in-flight segment (only ``try_read`` returns one)
        if type(msg) is tuple and len(msg) == 4 and msg[0] == "PING":
            self.on_ping(end, msg)
            yield from end.write(24, ("PONG", msg[1], msg[2], msg[3]))
            return None
        if not framed(msg, self.payload_types):
            self._protocol_error(f"unframed record of type {type(msg).__name__}")
            return None
        return msg

    def _read_record(self, end: StreamEnd) -> Generator[Future, Any, Any]:
        """Next record from a client, read through :meth:`_accept`."""
        while True:
            _, msg = yield end.read()
            record = yield from self._accept(end, msg)
            if record is not None:
                return record
