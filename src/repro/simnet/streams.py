"""Flow-controlled, ordered byte streams (the simulated TCP connections).

A :class:`Stream` joins two endpoints on two hosts.  Each direction has a
*window* (the peer's receive buffer, default 64 KiB): a writer blocks once
it has that many bytes outstanding that the reader has not consumed.  This
is the mechanism behind Figure 9 of the paper — the P4 driver does not
drain incoming segments while pushing a message, so its peer stalls on a
full window, serializing the two directions; the V2 daemon drains after
every chunk and keeps both directions flowing.

The window is the writing :class:`StreamEnd`'s ``credit``, with a FIFO
of writers parked on it.  A writer out of credit parks once per call and
the returned credit sends the rest (:class:`_Frame`): an in-flight
segment (payload ``None``) wakes no reader, and when its reader consumes
at once (a ``consumer``, or a parked ``read()``) its arrival handler
returns its credit and sends the parked frame's next segment itself.

Streams deliver segments in order and break atomically when either host
crashes: pending and future reads/writes fail with :class:`Disconnected`
(the paper's fault detector is exactly this socket-disconnection signal),
and in-flight segments are dropped — matching the paper's assumption that
"a message is always completely received or not at all".
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Optional

from .kernel import Future, register_slot
from .network import Network
from .node import Host, HostDown

__all__ = [
    "Disconnected", "Stream", "StreamEnd", "DEFAULT_WINDOW",
    "EV_ARRIVE",
]

DEFAULT_WINDOW = 64 * 1024


class Disconnected(Exception):
    """The peer endpoint vanished (host crash or explicit close)."""

    def __init__(self, stream_name: str, cause: Any = None) -> None:
        super().__init__(f"stream {stream_name} disconnected ({cause})")
        self.stream_name = stream_name
        self.cause = cause


def _arrive(end: "StreamEnd", segment: tuple) -> None:
    """A segment reaches ``end``: a consumer, or else a parked reader,
    takes it at once — its credit goes back to the writer, sending the
    head parked frame on in this same handler — otherwise it queues,
    holding its credit, for the next ``read``/``try_read``."""
    # dropped on the floor when a crash raced the transfer — matching the
    # paper's "a message is completely received or not at all"
    if end.stream.dead or end.broken is not None:
        return
    consumer = end.consumer
    getters = end._rx_getters
    if consumer is None and not getters:
        end._rx_items.append(segment)
        if end._rx_watchers:
            watchers, end._rx_watchers = end._rx_watchers, []
            for fut in watchers:
                fut.resolve_if_pending(None)
        return
    nbytes, charge, payload = segment
    end.bytes_read += nbytes
    writer = end.peer
    if writer.broken is None:
        writer._return_credit(charge)
    if payload is None:
        return  # in flight: wakes no reader
    if consumer is not None:
        consumer(payload, None)
    else:
        getters.popleft().resolve((nbytes, payload))


#: the kernel slot for segment delivery: one ``(EV_ARRIVE, receiving end,
#: segment)`` heap entry per transfer, no closure
EV_ARRIVE = register_slot(_arrive, "streams.arrive")


class _Frame:
    """A blocked write, sent on by returned credit instead of its writer.

    :meth:`pump` sends segments while the writing end's credit covers
    them and parks the frame in that end's FIFO on the first it does not;
    the credit a reader returns sends it on from there
    (:meth:`StreamEnd._return_credit`, inside the arrival handler when the
    reader consumes at once).  The writer yields once, on ``done``.  A
    killed writer clears ``end``: its parked place still takes the credit
    returned to it, as a dead process's wait did, and sends nothing."""

    __slots__ = ("end", "sim", "left", "step", "payload", "bulk", "nsegs",
                 "need", "t0", "done")

    def __init__(self, end: "StreamEnd", nbytes: int, step: int,
                 payload: Any, bulk: bool, nsegs: int) -> None:
        self.end: Optional[StreamEnd] = end
        self.sim = end.stream.net.sim
        self.left, self.step, self.payload = nbytes, step, payload
        self.bulk, self.nsegs = bulk, nsegs
        self.need = 0  # the parked segment's charge
        self.t0 = 0.0  # when the current park began
        self.done = Future(self.sim, name=f"{end.stream.name}.{end.label}.credit")

    def pump(self, granted: bool = False) -> bool:
        """Send segments while credit covers them; True: parked on the
        first it does not (``granted``: the head's credit is taken).
        Credit goes FIFO: a frame behind parked writers parks too."""
        end = self.end
        window = end.stream.window
        step, left = self.step, self.left
        while True:
            seg = step if left > step else left
            # max(1, min(seg, window)) without two builtin calls a segment
            charge = (seg if seg < window else window) or 1
            if granted:
                granted = False
            elif end._parked or end.credit < charge:
                self.left, self.need = left, charge
                self.t0 = self.sim.now
                end._parked.append(self)
                return True
            else:
                end.credit -= charge
            left -= seg
            peer = end.peer
            end.stream.net.transfer(
                end.host, peer.host, seg, EV_ARRIVE, peer,
                (seg, charge, self.payload if left <= 0 else None),
                self.bulk, self.nsegs,
            )
            end.bytes_written += seg
            if left <= 0:
                self.done.resolve(None)
                return False

    def fail(self, exc: BaseException) -> None:
        self.end = None  # the stream broke (or the source host is down)
        self.done.fail_if_pending(exc)


class StreamEnd:
    """One side of a stream."""

    def __init__(self, stream: "Stream", host: Host, label: str) -> None:
        self.stream = stream
        self.host = host
        self.label = label
        self.peer: "StreamEnd" = None  # type: ignore[assignment]  # set by Stream
        #: the write side's credit window: free bytes in the *peer's*
        #: receive buffer.  Writers out of credit park FIFO in
        #: ``_parked`` (each frame's ``need`` is its next segment's
        #: charge); ``when_writable`` watchers wait in ``_writable`` as
        #: ``(charge, future)``.
        self.credit = stream.window
        self._parked: deque[_Frame] = deque()
        self._writable: list[tuple[int, Future]] = []
        # the receive side, inlined (no kernel Queue): segments are
        # handed straight to a waiting reader at arrival time — one
        # future and zero closures per read on the hot path
        self._rx_items: deque[tuple] = deque()
        self._rx_getters: deque[Future] = deque()
        self._rx_watchers: list[Future] = []
        #: push delivery instead of reads: ``consumer(payload, None)`` runs
        #: at each record's arrival, credit already released, and
        #: ``consumer(None, exc)`` once when the stream breaks (the hook is
        #: cleared first).  A reader whose work after each read is all
        #: synchronous needs no process: installed, it replaces the parked
        #: read exactly.  While it is None, segments queue for ``read``.
        self.consumer: Optional[Callable[[Any, Optional[Disconnected]], None]] = None
        self.broken: Optional[Disconnected] = None
        self.bytes_written = 0
        self.bytes_read = 0
        # window-stall accounting (folded into the metrics registry at
        # job end): time writers spent blocked on the peer's window.
        # A stall is one *blocked write call* — a coalesced frame counts
        # once however many wire segments it spans.
        self.stall_count = 0
        self.stall_s = 0.0
        self._read_name = f"{stream.name}.{label}.read"

    def _gone(self) -> Disconnected:
        """The break as a fresh instance: a raise appends a traceback,
        which on the stored ``broken`` would pin every writer's frames
        (futures may carry the stored one: the kernel strips it)."""
        return Disconnected(self.stream.name, self.broken.cause)

    # -- credit -----------------------------------------------------------
    def _return_credit(self, n: int) -> None:
        """The reader consumed ``n`` bytes of this end's writes: parked
        frames go on, head first, while the credit covers them; then
        satisfied ``when_writable`` watchers resolve."""
        self.credit += n
        parked = self._parked
        while parked and self.credit >= parked[0].need:
            frame = parked.popleft()
            self.credit -= frame.need
            if frame.end is None:
                continue  # the writer was killed: its place took the credit
            dt = frame.sim.now - frame.t0
            self.stall_s += dt
            self.host.stall_s += dt
            try:
                frame.pump(True)
            except HostDown as exc:  # the writer's exception, not the reader's
                frame.fail(exc)
        if self._writable:
            still = []
            for need, fut in self._writable:
                if self.credit >= need:
                    fut.resolve_if_pending(None)
                else:
                    still.append((need, fut))
            self._writable = still

    # -- writing ----------------------------------------------------------
    def _xfer(
        self, nbytes: int, charge: int, payload: Any, bulk: bool, nsegs: int
    ) -> None:
        """Hand one (possibly coalesced) frame to the network.  A blocked
        frame's segments make the same hand-off inline, in
        :meth:`_Frame.pump`: it runs once per wire segment."""
        peer = self.peer
        self.stream.net.transfer(
            self.host, peer.host, nbytes,
            EV_ARRIVE, peer, (nbytes, charge, payload), bulk, nsegs,
        )
        self.bytes_written += nbytes

    def write(
        self, nbytes: int, payload: Any = None
    ) -> Generator[Future, Any, None]:
        """Send one segment; blocks while the peer's window is full.

        ``nbytes`` drives the timing model; ``payload`` is an opaque object
        delivered to the reader (protocol headers, message chunks, ...).
        Returns once the segment has been handed to the network.
        """
        return self.write_frame(nbytes, payload, nbytes)  # one segment

    def write_frame(
        self,
        nbytes: int,
        record: Any = None,
        mtu: Optional[int] = None,
        bulk: bool = False,
    ) -> Generator[Future, Any, None]:
        """Send one length-prefixed frame, coalescing its wire segments.

        When the whole frame fits in the peer's receive window, its
        window credit is charged once and the network moves it as a
        single transfer of ``ceil(nbytes / mtu)`` wire segments — one
        kernel event and one reader wakeup instead of N (wire time is
        unchanged; endpoint CPU is paid once, the syscall-batching win).
        The reader sees exactly one ``(nbytes, record)`` segment.

        A frame larger than the window cannot coalesce without breaking
        flow control (the reader must drain mid-transfer — the Figure 9
        stall mechanism), so it goes as window-respecting ``mtu``
        segments, in flight but the last, which carries ``record``.  A
        call out of credit — on missing credit or FIFO order behind
        earlier parked writers — counts one window stall and parks once
        (:class:`_Frame`); from then on each segment the reader consumes
        at its arrival sends the next from the arrival handler.
        """
        if self.broken is not None:
            raise self._gone()
        window = self.stream.window
        if mtu is None or mtu <= 0:
            mtu = window
        step, nsegs = (mtu, 1) if nbytes > window else (nbytes, -(-nbytes // mtu) or 1)
        if nbytes <= step:  # one segment: the free-credit fast path
            charge = max(1, min(nbytes, window))
            if not self._parked and self.credit >= charge:
                self.credit -= charge
                self._xfer(nbytes, charge, record, bulk, nsegs)
                return
        frame = _Frame(self, nbytes, step, record, bulk, nsegs)
        if frame.pump():  # out of credit: one stall for the whole call
            self.stall_count += 1
            self.host.stall_count += 1
        try:
            yield frame.done
        finally:
            frame.end = None  # killed: the frame sends nothing more

    def write_nowait(self, nbytes: int, payload: Any = None, bulk: bool = False) -> bool:
        """Non-blocking write; returns False if the window is full/broken.

        FIFO order is respected: it refuses while writers are parked.
        """
        charge = max(1, min(nbytes, self.stream.window))
        if self.broken is not None or self._parked or self.credit < charge:
            return False
        self.credit -= charge
        self._xfer(nbytes, charge, payload, bulk, 1)
        return True

    def when_writable(self, nbytes: int) -> Future:
        """A future resolved when window credit for ``nbytes`` exists
        (without taking it: the caller re-checks, and may wait again)."""
        charge = max(1, min(nbytes, self.stream.window))
        fut = Future(
            self.stream.net.sim,
            name=f"{self.stream.name}.{self.label}.credit.avail",
        )
        if self.broken is not None:
            fut.fail(self.broken)
        elif self.credit >= charge:
            fut.resolve(None)
        else:
            self._writable.append((charge, fut))
        return fut

    # -- reading ----------------------------------------------------------
    def read(self) -> Future:
        """A future for the next record ``(nbytes, payload)``, consuming
        queued in-flight segments on the way (arriving ones never resolve it).

        Reading releases window credit back to the peer writer — a device
        that delays reads (P4 while sending) therefore stalls its peer.
        """
        fut = Future(self.stream.net.sim, name=self._read_name)
        items = self._rx_items
        while items and self.broken is None:
            # hot path: a segment is already queued — pop it, release the
            # credit and, for a record, return a pre-resolved future
            nbytes, charge, payload = items.popleft()
            self.bytes_read += nbytes
            if self.peer.broken is None:
                self.peer._return_credit(charge)
            if payload is not None:
                fut._done = True
                fut._value = (nbytes, payload)
                return fut
        if self.broken is not None:
            fut.fail(self.broken)
        else:
            self._rx_getters.append(fut)
        return fut

    def try_read(self) -> tuple[bool, int, Any]:
        """Non-blocking read: ``(ok, nbytes, payload)``."""
        items = self._rx_items
        if not items:
            return False, 0, None
        nbytes, charge, payload = items.popleft()
        self.bytes_read += nbytes
        if self.peer.broken is None:
            self.peer._return_credit(charge)
        return True, nbytes, payload

    @property
    def readable(self) -> bool:
        """Is a segment waiting to be read?"""
        return len(self._rx_items) > 0

    @property
    def rx_depth(self) -> int:
        """Segments received but not yet read (the receive backlog)."""
        return len(self._rx_items)

    def when_readable(self) -> Future:
        """A future resolved when a segment is (or becomes) available."""
        fut = Future(self.stream.net.sim, name=self._read_name)
        if self.broken is not None:
            fut.fail(self.broken)
        elif self._rx_items:
            fut.resolve(None)
        else:
            self._rx_watchers.append(fut)
        return fut

    # -- teardown ---------------------------------------------------------
    def _break(self, cause: Any) -> None:
        if self.broken is not None:
            return
        exc = Disconnected(self.stream.name, cause)
        self.broken = exc
        consumer = self.consumer
        if consumer is not None:
            self.consumer = None  # a dead stream pins no reader
            consumer(None, exc)
        getters, self._rx_getters = self._rx_getters, deque()
        for fut in getters:
            fut.fail_if_pending(exc)
        watchers, self._rx_watchers = self._rx_watchers, []
        for fut in watchers:
            fut.fail_if_pending(exc)
        # the write side: every parked writer, then every watcher
        parked, self._parked = self._parked, deque()
        for frame in parked:
            frame.fail(exc)
        writable, self._writable = self._writable, []
        for _, fut in writable:
            fut.fail_if_pending(exc)


class Stream:
    """A bidirectional connection between two hosts."""

    _counter = 0

    def __init__(
        self,
        net: Network,
        host_a: Host,
        host_b: Host,
        window: int = DEFAULT_WINDOW,
        name: Optional[str] = None,
    ) -> None:
        self.net = net
        self.window = window
        if name is None:
            Stream._counter += 1
            name = f"s{Stream._counter}:{host_a.name}<->{host_b.name}"
        self.name = name
        self.dead = False
        self.a = StreamEnd(self, host_a, "a")
        self.b = StreamEnd(self, host_b, "b")
        self.a.peer = self.b
        self.b.peer = self.a
        host_a.attach_stream(self)
        if host_b is not host_a:
            host_b.attach_stream(self)

    def end_for(self, host: Host) -> StreamEnd:
        """The endpoint attached to ``host``."""
        if host is self.a.host:
            return self.a
        if host is self.b.host:
            return self.b
        raise ValueError(f"{host.name} is not an endpoint of {self.name}")

    def break_both(self, cause: Any) -> None:
        """Tear the connection down (both directions)."""
        if self.dead:
            return
        self.dead = True
        self.a.host._streams.pop(self, None)
        self.b.host._streams.pop(self, None)
        self.a._break(cause)
        self.b._break(cause)
