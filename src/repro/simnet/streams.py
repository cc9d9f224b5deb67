"""Flow-controlled, ordered byte streams (the simulated TCP connections).

A :class:`Stream` joins two endpoints on two hosts.  Each direction has a
*window* (the peer's receive buffer, default 64 KiB): a writer blocks once
it has that many bytes outstanding that the reader has not consumed.  This
is the mechanism behind Figure 9 of the paper — the P4 driver does not
drain incoming segments while pushing a message, so its peer stalls on a
full window, serializing the two directions; the V2 daemon drains after
every chunk and keeps both directions flowing.  A writer out of credit
parks once per call, the releases sending the rest (:class:`_Frame`);
in-flight segments (payload ``None``) wake no reader.

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
    "Disconnected", "Semaphore", "Stream", "StreamEnd", "DEFAULT_WINDOW",
    "EV_ARRIVE",
]

DEFAULT_WINDOW = 64 * 1024


class Disconnected(Exception):
    """The peer endpoint vanished (host crash or explicit close)."""

    def __init__(self, stream_name: str, cause: Any = None) -> None:
        super().__init__(f"stream {stream_name} disconnected ({cause})")
        self.stream_name = stream_name
        self.cause = cause


class Semaphore:
    """A counting semaphore with FIFO acquire ordering: the credit window
    of one stream direction (a :class:`_Frame` parks on it)."""

    __slots__ = (
        "sim", "name", "_tokens", "_waiters", "_observers", "_broken",
        "_acquire_name", "_avail_name",
    )

    def __init__(self, sim: Simulator, tokens: int, name: str = "sem") -> None:
        if tokens < 0:
            raise ValueError("tokens must be >= 0")
        self.sim = sim
        self.name = name
        self._tokens = tokens
        self._waiters: deque[tuple[int, Any]] = deque()  # see ``park``
        self._observers: list[tuple[int, Future]] = []
        self._broken: Optional[BaseException] = None
        self._acquire_name = f"{name}.acquire"
        self._avail_name = f"{name}.avail"

    @property
    def tokens(self) -> int:
        """Currently available tokens."""
        return self._tokens

    def acquire(self, n: int = 1) -> Future:
        """A future resolved once ``n`` tokens have been taken."""
        fut = Future(self.sim, name=self._acquire_name)
        if self.try_acquire(n):
            fut._done = True
        else:
            self.park(n, fut)
        return fut

    def park(self, n: int, waiter: Any) -> None:
        """Queue ``waiter`` — a :class:`Future`, or a stream's blocked
        frame with the same two resolution methods — for ``n`` tokens."""
        if self._broken is not None:
            waiter.fail_if_pending(self._broken)
        else:
            self._waiters.append((n, waiter))

    def try_acquire(self, n: int = 1) -> bool:
        """Take ``n`` tokens now, or none: the allocation-free fast path.

        Exactly :meth:`acquire`'s synchronous-success condition (FIFO
        order respected — queued waiters refuse the shortcut), without
        building a future for it.
        """
        if (
            self._broken is not None
            or self._waiters
            or self._tokens < n
        ):
            return False
        self._tokens -= n
        return True

    def release(self, n: int = 1) -> None:
        """Return ``n`` tokens; wakes waiters FIFO."""
        self._tokens += n
        waiters = self._waiters
        while waiters and self._tokens >= waiters[0][0]:
            need, fut = waiters.popleft()
            self._tokens -= need
            fut.resolve_if_pending(None)
        if self._observers:
            still = []
            for need, fut in self._observers:
                if self._tokens >= need:
                    fut.resolve_if_pending(None)
                else:
                    still.append((need, fut))
            self._observers = still

    def break_(self, exc: BaseException) -> None:
        """Fail all pending and future acquires (resource vanished)."""
        self._broken = exc
        waiters, self._waiters = self._waiters, deque()
        for _, fut in waiters:
            fut.fail_if_pending(exc)
        observers, self._observers = self._observers, []
        for _, fut in observers:
            fut.fail_if_pending(exc)

    def when_available(self, n: int = 1) -> Future:
        """A future resolved once ``n`` tokens exist (without taking them).

        The caller must re-check (and possibly wait again): tokens may be
        taken by another process in the same tick.
        """
        fut = Future(self.sim, name=self._avail_name)
        if self._broken is not None:
            fut.fail(self._broken)
        elif self._tokens >= n:
            fut.resolve(None)
        else:
            self._observers.append((n, fut))
        return fut


def _arrive(end: "StreamEnd", segment: tuple) -> None:
    # dropped on the floor when a crash raced the transfer — matching the
    # paper's "a message is completely received or not at all"
    if not end.stream.dead and end.broken is None:
        end._deliver(segment)


#: the kernel slot for segment delivery: one ``(EV_ARRIVE, receiving end,
#: segment)`` heap entry per transfer, no closure
EV_ARRIVE = register_slot(_arrive, "streams.arrive")


class _Frame:
    """A blocked write, sent on by credit releases instead of its writer:
    the credit semaphore's FIFO waiter, called where the parked writer was
    resumed (:meth:`resolve_if_pending`; a break: :meth:`fail_if_pending`).
    The writer yields once, on ``done``.  A killed writer clears ``end``:
    its wait still takes the tokens released to it, as a dead process's
    ``acquire`` does, and sends nothing."""

    __slots__ = ("end", "sim", "left", "step", "payload", "bulk", "nsegs",
                 "t0", "done")

    def __init__(self, end: "StreamEnd", nbytes: int, step: int,
                 payload: Any, bulk: bool, nsegs: int) -> None:
        self.end: Optional[StreamEnd] = end
        self.sim = end.stream.net.sim
        self.left, self.step, self.payload = nbytes, step, payload
        self.bulk, self.nsegs = bulk, nsegs
        self.t0 = 0.0  # when the current park began
        self.done = Future(self.sim, name=end._wcredit.name)

    def pump(self, granted: bool = False) -> bool:
        """Send segments while credit covers them; True: parked on the
        first it does not (``granted``: the head's credit is taken)."""
        end = self.end
        credit, window = end._wcredit, end.stream.window
        step, left = self.step, self.left
        while True:
            seg = step if left > step else left
            # max(1, min(seg, window)) without two builtin calls a segment
            charge = (seg if seg < window else window) or 1
            if not granted and not credit.try_acquire(charge):
                self.left = left
                self.t0 = self.sim.now
                credit.park(charge, self)
                return True
            granted = False
            left -= seg
            end._xfer(seg, charge, self.payload if left <= 0 else None,
                      self.bulk, self.nsegs)
            if left <= 0:
                self.done.resolve(None)
                return False

    def resolve_if_pending(self, _value: Any = None) -> None:
        """The head segment's credit was taken for it: send on."""
        end = self.end
        if end is None:
            return  # the writer was killed
        dt = self.sim.now - self.t0
        end.stall_s += dt
        end.host.stall_s += dt
        try:
            self.pump(True)
        except HostDown as exc:  # the writer's exception, not the releaser's
            self.fail_if_pending(exc)

    def fail_if_pending(self, exc: BaseException) -> None:
        self.end = None  # the stream broke (or the source host is down)
        self.done.fail_if_pending(exc)


class StreamEnd:
    """One side of a stream."""

    def __init__(self, stream: "Stream", host: Host, label: str) -> None:
        self.stream = stream
        self.host = host
        self.label = label
        self.peer: "StreamEnd" = None  # type: ignore[assignment]  # set by Stream
        # credit tokens = free bytes in the *peer's* receive buffer
        self._wcredit = Semaphore(
            stream.net.sim, stream.window, name=f"{stream.name}.{label}.credit"
        )
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

    # -- writing ----------------------------------------------------------
    def _xfer(
        self, nbytes: int, charge: int, payload: Any, bulk: bool, nsegs: int
    ) -> None:
        """Hand one (possibly coalesced) frame to the network."""
        peer = self.peer
        self.stream.net.transfer(
            self.host, peer.host, nbytes,
            (EV_ARRIVE, peer, (nbytes, charge, payload)), bulk, nsegs,
        )
        self.bytes_written += nbytes

    def write(
        self, nbytes: int, payload: Any = None, bulk: bool = False
    ) -> Generator[Future, Any, None]:
        """Send one segment; blocks while the peer's window is full.

        ``nbytes`` drives the timing model; ``payload`` is an opaque object
        delivered to the reader (protocol headers, message chunks, ...).
        ``bulk`` marks a payload push made by a driver that starves its
        receive side meanwhile (the P4 eager path) — on a half-duplex
        endpoint such segments serialize against reception.
        Returns once the segment has been handed to the network.
        """
        return self.write_frame(nbytes, payload, nbytes, bulk)  # one segment

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
        call out of credit — on missing tokens or FIFO order behind
        earlier waiters — counts one window stall and parks once, while
        the credit releases send the rest (:class:`_Frame`).
        """
        if self.broken is not None:
            raise self._gone()
        window = self.stream.window
        if mtu is None or mtu <= 0:
            mtu = window
        step, nsegs = (mtu, 1) if nbytes > window else (nbytes, -(-nbytes // mtu) or 1)
        if nbytes <= step:  # one segment: the free-credit fast path
            charge = max(1, min(nbytes, window))
            if self._wcredit.try_acquire(charge):
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

        FIFO order is respected: queued writers go first (try_acquire
        refuses while waiters exist).
        """
        charge = max(1, min(nbytes, self.stream.window))
        if self.broken is not None or not self._wcredit.try_acquire(charge):
            return False
        self._xfer(nbytes, charge, payload, bulk, 1)
        return True

    # -- reading ----------------------------------------------------------
    def _deliver(self, segment: tuple) -> None:
        """Hand one arrived segment to the receive side.

        A consumer, or else a waiting reader, gets it immediately —
        credit released and (unless it is in flight) the consumer called
        or the read future resolved right here, with no intermediate queue
        hop — otherwise the segment is parked for the next read call.
        """
        consumer = self.consumer
        getters = self._rx_getters
        if consumer is not None or getters:
            nbytes, charge, payload = segment
            self.bytes_read += nbytes
            if self.peer.broken is None:
                self.peer._wcredit.release(charge)
            if payload is None:
                return
            if consumer is not None:
                consumer(payload, None)
            else:
                getters.popleft().resolve((nbytes, payload))
            return
        self._rx_items.append(segment)
        if self._rx_watchers:
            watchers, self._rx_watchers = self._rx_watchers, []
            for fut in watchers:
                fut.resolve_if_pending(None)

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
                self.peer._wcredit.release(charge)
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
            self.peer._wcredit.release(charge)
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

    def when_writable(self, nbytes: int) -> Future:
        """A future resolved when window credit for ``nbytes`` exists."""
        charge = max(1, min(nbytes, self.stream.window))
        return self._wcredit.when_available(charge)

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
        self._wcredit.break_(exc)


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
