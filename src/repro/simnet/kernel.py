"""Discrete-event simulation kernel.

The kernel executes *simulated processes* — plain Python generators that
``yield`` :class:`Future` objects when they block.  Time advances only
through scheduled events; the simulation is fully deterministic given the
order of scheduling calls (ties on the event heap are broken by a
monotonically increasing sequence number).

Conventions used throughout the code base:

* a *primitive* blocking operation returns a :class:`Future`; a process
  blocks on it with ``value = yield fut``;
* a *composite* blocking operation is a generator function and is invoked
  with ``value = yield from op(...)``.

Processes can be killed abruptly (modelling a node crash): a killed
process is never resumed again and its completion future fails with
:class:`Killed`.

Flat events
-----------

Heap entries are flat ``(time, seq, slot, a, b)`` tuples.  ``slot``
selects the handler; the hot slots are inlined in the one run loop
(``Simulator._loop``, behind :meth:`Simulator.run` and
:meth:`Simulator.run_until`) so the common events cost no closure
allocation and no attribute lookups; with a probe installed
(:meth:`Simulator.set_probe`) the same loop hands each event to the
probe instead:

* ``EV_CALL`` (0) — run the callable ``a()``.  Everything scheduled
  through :meth:`Simulator.at`/:meth:`Simulator.after` uses this slot.
* ``EV_RESOLVE`` (1) — resolve :class:`Future` ``a`` with value ``b``
  unless it is already done (the :meth:`Simulator.timeout` fast path).
* ``EV_START`` (2) — bootstrap :class:`Process` ``a`` (first ``_step``).
* ``EV_WAKE`` (3) — resume :class:`Process` ``a`` with value ``b`` (the
  :meth:`Simulator.pause` sleep fast path: no future, no callbacks).

Subsystems register additional slots with :func:`register_slot`; the run
loop dispatches those through the module-level handler table with a plain
list index.  Event order — ``(time, seq)`` for every event — is pinned
by the full-trace hashes of ``tests/test_golden_trace.py``.
"""

from __future__ import annotations

import heapq
from collections import deque
from time import perf_counter
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "SimError",
    "DeadlockError",
    "Killed",
    "Future",
    "Process",
    "Simulator",
    "Queue",
    "Gate",
    "all_of",
    "any_of",
    "EV_CALL",
    "EV_RESOLVE",
    "EV_START",
    "EV_WAKE",
    "SLOT_NAMES",
    "register_slot",
    "run_slot",
]


class SimError(Exception):
    """Base class for simulation-kernel errors."""


class DeadlockError(SimError):
    """The event queue drained while some process was still blocked."""


class Killed(SimError):
    """Raised into the completion future of a killed process."""


# -- the flat-event slot table ------------------------------------------

EV_CALL = 0  # a: callable        b: unused   — run a()
EV_RESOLVE = 1  # a: Future      b: value    — a.resolve_if_pending(b)
EV_START = 2  # a: Process       b: unused   — first step of a process
EV_WAKE = 3  # a: Process        b: value    — resume a sleeping process

_INF = float("inf")  # the horizon of a run with no ``until``/``limit``

#: slot → human label, used by the kernel profiler to classify events
#: (``KernelProfiler.dispatch``) without touching handlers
SLOT_NAMES: dict[int, str] = {
    EV_CALL: "call",
    EV_RESOLVE: "timeout",
    EV_START: "proc.start",
    EV_WAKE: "sleep",
}

# Slots 0-3 are inlined in the run loop and in ``run_slot``; their table
# entries only reserve the indices.
_SLOT_HANDLERS: list[Optional[Callable[[Any, Any], None]]] = [
    None, None, None, None,
]


def register_slot(handler: Callable[[Any, Any], None], name: str) -> int:
    """Register a subscriber slot; returns its index for ``sched`` calls.

    ``handler(a, b)`` runs when a ``(time, seq, slot, a, b)`` event with
    this slot is dispatched.  Registration happens at module import time
    (e.g. ``simnet.streams`` registers its segment-arrival slot), so slot
    indices are stable for the life of the interpreter.
    """
    slot = len(_SLOT_HANDLERS)
    _SLOT_HANDLERS.append(handler)
    SLOT_NAMES[slot] = name
    return slot


def run_slot(slot: int, a: Any, b: Any) -> None:
    """Execute one event outside the run loop (a probe's dispatch)."""
    if slot == 1:
        if not a._done:
            a._done = True
            a._value = b
            a._fire()
    elif slot == 3:
        a._step(b, None)
    elif slot == 2:
        a._step(None, None)
    elif slot == 0:
        a()
    else:
        _SLOT_HANDLERS[slot](a, b)


class _Pause:
    """The singleton sleep token (see :meth:`Simulator.pause`)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<pause>"


_PAUSE = _Pause()


class Future:
    """A one-shot completion token.

    A future is resolved with a value exactly once (or failed with an
    exception exactly once).  Callbacks registered with
    :meth:`add_done_callback` fire synchronously at resolution time, in
    registration order.
    """

    __slots__ = ("_sim", "_done", "_value", "_exc", "_callbacks", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self._sim = sim
        self._done = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        # None | a single callable | a list of callables: most futures
        # take exactly one callback (the waiting process), so the common
        # case allocates no list
        self._callbacks: Any = None
        self.name = name

    # -- inspection ------------------------------------------------------
    @property
    def done(self) -> bool:
        """Has the future been resolved or failed?"""
        return self._done

    @property
    def value(self) -> Any:
        """The result; raises the stored exception for failed futures."""
        if not self._done:
            raise SimError(f"future {self.name!r} not resolved yet")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The stored exception, or None (also while pending)."""
        return self._exc if self._done else None

    # -- resolution ------------------------------------------------------
    def resolve(self, value: Any = None) -> None:
        """Complete the future with ``value`` (exactly once)."""
        if self._done:
            raise SimError(f"future {self.name!r} resolved twice")
        self._done = True
        self._value = value
        self._fire()

    def fail(self, exc: BaseException) -> None:
        """Complete the future with an exception (exactly once)."""
        if self._done:
            raise SimError(f"future {self.name!r} resolved twice")
        self._done = True
        self._exc = exc
        self._fire()

    def resolve_if_pending(self, value: Any = None) -> bool:
        """Resolve unless already done; returns whether it resolved now."""
        if self._done:
            return False
        self.resolve(value)
        return True

    def fail_if_pending(self, exc: BaseException) -> bool:
        """Fail unless already done; returns whether it failed now."""
        if self._done:
            return False
        self.fail(exc)
        return True

    def add_done_callback(self, fn: Callable[["Future"], None]) -> None:
        """Run ``fn(self)`` at resolution (immediately if already done)."""
        if self._done:
            fn(self)
            return
        cbs = self._callbacks
        if cbs is None:
            self._callbacks = fn
        elif cbs.__class__ is list:
            cbs.append(fn)
        else:
            self._callbacks = [cbs, fn]

    def _fire(self) -> None:
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            if callbacks.__class__ is list:
                for fn in callbacks:
                    fn(self)
            else:
                callbacks(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._done else "pending"
        return f"<Future {self.name!r} {state}>"


def all_of(sim: "Simulator", futures: Iterable[Future]) -> Future:
    """A future resolved (with the list of values) when all inputs are.

    Fails with the first failure among the inputs.
    """
    futures = list(futures)
    out = Future(sim, name="all_of")
    remaining = len(futures)
    if remaining == 0:
        out.resolve([])
        return out

    state = {"left": remaining}

    def on_done(f: Future) -> None:
        if out.done:
            return
        if f.exception is not None:
            out.fail(f.exception)
            return
        state["left"] -= 1
        if state["left"] == 0:
            out.resolve([fut.value for fut in futures])

    for f in futures:
        f.add_done_callback(on_done)
    return out


def any_of(sim: "Simulator", futures: Iterable[Future]) -> Future:
    """A future resolved with ``(index, value)`` of the first completion."""
    futures = list(futures)
    out = Future(sim, name="any_of")
    if not futures:
        raise ValueError("any_of() requires at least one future")

    def make_cb(i: int) -> Callable[[Future], None]:
        def on_done(f: Future) -> None:
            if out.done:
                return
            if f.exception is not None:
                out.fail(f.exception)
            else:
                out.resolve((i, f.value))

        return on_done

    for i, f in enumerate(futures):
        f.add_done_callback(make_cb(i))
    return out


class Process:
    """Drives a generator as a simulated process.

    The generator may ``yield`` futures (blocking) and ``return`` a final
    value, which resolves :attr:`done`.  Unhandled exceptions fail
    :attr:`done`; unless the process was spawned with ``supervised=True``
    the simulator records it as a crash and re-raises at the end of
    :meth:`Simulator.run`.
    """

    __slots__ = (
        "sim", "gen", "name", "alive", "done", "supervised",
        "_waiting_on", "_resume_cb",
    )

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator[Future, Any, Any],
        name: str,
        supervised: bool = False,
    ) -> None:
        self.sim = sim
        self.gen = gen
        self.name = name
        self.alive = True
        self.supervised = supervised
        self.done = Future(sim, name=f"{name}.done")
        self._waiting_on: Optional[Future] = None
        # bound once: every blocking yield registers this callback, and
        # binding a method per block is measurable at CG event rates
        self._resume_cb = self._resume
        self.register_in(sim._processes)
        sim.sched(sim.now, EV_START, self)

    def register_in(self, table: dict) -> None:
        """Enter a live-process ``table`` until this process ends: every
        way to end completes ``done``, whose callback pops the entry."""
        table[self.done] = self
        self.done.add_done_callback(table.pop)

    def kill(self) -> None:
        """Abruptly terminate the process (models a crash).

        The generator is closed, the completion future fails with
        :class:`Killed` and the process is never resumed again.
        """
        if not self.alive:
            return
        self.alive = False
        self._waiting_on = None
        try:
            self.gen.close()
        except Exception:  # pragma: no cover - close() misbehaving apps
            pass
        self.done.fail_if_pending(Killed(self.name))

    # -- stepping --------------------------------------------------------
    def _resume(self, fut: Future) -> None:
        if not self.alive or self.sim._stopped:
            return
        if fut._exc is not None:
            self._step(None, fut._exc)
        else:
            self._step(fut._value, None)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        # per-service CPU attribution: when a kernel probe is installed
        # and the current dispatch is a sampled one (probe.sampling), the
        # resume is timed under the process's name; the disabled path
        # pays one attribute load and a None check
        probe = self.sim._probe
        if probe is not None and probe.sampling:
            t0 = perf_counter()
            self._step_inner(value, exc)
            probe.step_done(self.name, perf_counter() - t0)
        else:
            self._step_inner(value, exc)

    def _step_inner(self, value: Any, exc: Optional[BaseException]) -> None:
        if not self.alive:
            return
        self._waiting_on = None
        while True:
            try:
                if exc is not None:
                    yielded = self.gen.throw(exc)
                    # caught: drop the traceback the throw appended, or a
                    # stored instance (a failed future's, a stream end's)
                    # pins every frame of every waiter it was thrown into;
                    # an uncaught one keeps it — that is the crash report
                    exc.__traceback__ = None
                else:
                    yielded = self.gen.send(value)
            except StopIteration as stop:
                if exc is not None:
                    exc.__traceback__ = None  # caught, then returned
                self.alive = False
                self.done.resolve_if_pending(stop.value)
                return
            except Killed as killed:
                self.alive = False
                self.done.fail_if_pending(killed)
                return
            except BaseException as err:
                self.alive = False
                self.done.fail_if_pending(err)
                if not self.supervised:
                    self.sim._crashes.append((self, err))
                return
            if yielded is _PAUSE:
                # sleep fast path: the pause call just stashed its wake
                # time on the simulator — push the wake event and
                # suspend, with no future and no callback registration
                sim = self.sim
                seq = sim._seq
                sim._seq = seq + 1
                heapq.heappush(sim._heap, (sim._pause_time, seq, 3, self, None))
                return
            if yielded.__class__ is not Future and not isinstance(yielded, Future):
                err2 = SimError(
                    f"process {self.name!r} yielded {type(yielded).__name__}, "
                    "expected a Future"
                )
                self.alive = False
                self.done.fail_if_pending(err2)
                self.sim._crashes.append((self, err2))
                return
            if yielded._done:
                # an already-resolved future: continue the process inline,
                # iteratively.  The callback path below would recurse
                # (add_done_callback fires synchronously when done), and a
                # process draining a long backlog of immediately-ready
                # futures — a queue refilled during a connection outage,
                # say — would exhaust the interpreter stack.
                if not self.alive or self.sim._stopped:
                    return
                if yielded._exc is not None:
                    value, exc = None, yielded._exc
                else:
                    value, exc = yielded._value, None
                continue
            self._waiting_on = yielded
            yielded.add_done_callback(self._resume_cb)
            return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return f"<Process {self.name!r} {state}>"


class Simulator:
    """The event loop: a heap of flat ``(time, seq, slot, a, b)`` entries."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, int, Any, Any]] = []
        self._seq = 0
        #: live processes by their ``done`` future, in spawn order
        self._processes: dict[Future, Process] = {}
        self._crashes: list[tuple[Process, BaseException]] = []
        self._stopped = False
        self._probe: Optional[Any] = None
        # scratch for the pause() fast path: the token is consumed by the
        # very next yield, so one slot per simulator suffices
        self._pause_time = 0.0

    # -- instrumentation -------------------------------------------------
    def set_probe(self, probe: Optional[Any]) -> None:
        """Install (or clear, with ``None``) the kernel probe.

        A probe observes the event loop at dispatch granularity:
        ``probe.dispatch(time, slot, a, b, qsize)`` is called *instead
        of* the inlined dispatch and must execute the event via
        :func:`run_slot`.  While the probe has
        ``probe.sampling`` set, process resumes are timed and reported
        via ``probe.step_done(name, dt)`` for per-service CPU
        attribution.  The run loop reads the probe once on entry, so a
        change takes effect at the next :meth:`run`/:meth:`run_until`
        call; with none installed an event pays one ``is not None`` test
        on a local before the inlined dispatch.
        """
        self._probe = probe

    # -- scheduling ------------------------------------------------------
    def sched(self, time: float, slot: int, a: Any, b: Any = None) -> None:
        """Schedule a flat event ``(slot, a, b)`` at absolute ``time``."""
        if time < self.now:
            raise SimError(f"cannot schedule in the past ({time} < {self.now})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, slot, a, b))

    def at(self, time: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run at absolute simulated ``time``."""
        if time < self.now:
            raise SimError(f"cannot schedule in the past ({time} < {self.now})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, 0, fn, None))

    def after(self, delay: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimError(f"negative delay {delay}")
        self.at(self.now + delay, fn)

    def timeout(self, delay: float, value: Any = None) -> Future:
        """A future that resolves ``delay`` seconds from now."""
        if delay < 0:
            raise SimError(f"negative delay {delay}")
        fut = Future(self, name="timeout")
        self.sched(self.now + delay, EV_RESOLVE, fut, value)
        return fut

    def pause(self, delay: float) -> Any:
        """Sleep token: ``yield sim.pause(delay)``.

        The allocation-free twin of :meth:`timeout` for the dominant
        event shape — advance simulated time, then resume the calling
        process.  The returned token must be yielded *immediately* by
        the running process (the kernel stashes the wake time on the
        simulator and the next yield consumes it); for anything fancier
        — handing the future around, racing it in ``any_of`` — use
        :meth:`timeout`.
        """
        if delay < 0:
            raise SimError(f"negative delay {delay}")
        self._pause_time = self.now + delay
        return _PAUSE

    def cancel(self, fut: Future) -> None:
        """Withdraw the pending :meth:`timeout` ``fut`` from the heap,
        where a long timer whose reason is gone (a finished job's
        watchdog) would deepen every push and pop until it expires.
        O(heap); a no-op once fired."""
        heap = self._heap
        for i, entry in enumerate(heap):
            if entry[3] is fut:
                heap[i] = heap[-1]
                heap.pop()
                heapq.heapify(heap)  # in place: the run loop holds the list
                return

    def future(self, name: str = "") -> Future:
        """Allocate an unresolved future."""
        return Future(self, name=name)

    def spawn(
        self,
        gen: Generator[Future, Any, Any],
        name: str = "proc",
        supervised: bool = False,
    ) -> Process:
        """Start a new simulated process from a generator."""
        return Process(self, gen, name=name, supervised=supervised)

    # -- running ---------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run until the event queue drains or simulated ``until`` passes.

        Re-raises the first unsupervised process crash, if any.
        """
        # a future nothing resolves: only the horizon, a drained queue or
        # stop() ends the loop
        self._loop(Future(self, "run"), _INF if until is None else until)
        if until is not None and not self._stopped and self.now < until:
            self.now = until

    def run_until(self, fut: Future, limit: Optional[float] = None) -> Any:
        """Run until ``fut`` resolves; raise :class:`DeadlockError` if the
        event queue drains first, or :class:`SimError` if ``limit`` simulated
        seconds pass first."""
        if self._loop(fut, _INF if limit is None else limit):
            raise SimError(
                f"simulated time limit {limit} exceeded waiting for "
                f"{fut.name!r} (now={self._heap[0][0]})"
            )
        if not fut._done:
            raise DeadlockError(
                f"event queue drained; {fut.name!r} never resolved; "
                f"blocked: {self.blocked_processes()}"
            )
        return fut.value

    def _loop(self, fut: Future, horizon: float) -> bool:
        """Dispatch events until ``fut`` resolves, the queue drains or
        :meth:`stop` is called; return ``True``, leaving the event
        queued, when the next event lies past ``horizon``."""
        probe = self._probe
        heap = self._heap
        pop = heapq.heappop
        handlers = _SLOT_HANDLERS
        while not fut._done and heap and not self._stopped:
            entry = heap[0]
            time = entry[0]
            if time > horizon:
                return True
            pop(heap)
            self.now = time
            slot = entry[2]
            a = entry[3]
            if probe is not None:
                # the probe runs the event itself (see ``set_probe``)
                probe.dispatch(time, slot, a, entry[4], len(heap))
            elif slot == 3:
                # no probe: resumes skip ``_step``'s probe check
                a._step_inner(entry[4], None)
            elif slot > 3:
                handlers[slot](a, entry[4])
            elif slot == 0:
                a()
            elif slot == 1:
                if not a._done:
                    a._done = True
                    a._value = entry[4]
                    a._fire()
            else:
                a._step_inner(None, None)
            if self._crashes:
                proc, err = self._crashes[0]
                raise SimError(f"process {proc.name!r} crashed") from err
        return False

    def stop(self) -> None:
        """Stop the event loop at the current time."""
        self._stopped = True

    # -- diagnostics -----------------------------------------------------
    def blocked_processes(self) -> list[str]:
        """Human-readable list of alive processes and their waits."""
        out = []
        for p in self._processes.values():
            if p.alive and p._waiting_on is not None:
                out.append(f"{p.name} on {p._waiting_on.name or '<future>'}")
        return out


class Queue:
    """An unbounded FIFO mailbox usable by simulated processes.

    ``put`` is immediate; ``get`` blocks until an item is available.
    """

    __slots__ = (
        "sim", "name", "_items", "_getters", "_watchers",
        "_get_name", "_nonempty_name",
    )

    def __init__(self, sim: Simulator, name: str = "queue") -> None:
        self.sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Future] = deque()
        self._watchers: list[Future] = []
        # precomputed once: the hot path allocates no f-strings per call
        self._get_name = f"{name}.get"
        self._nonempty_name = f"{name}.nonempty"

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Enqueue an item (never blocks); wakes one getter."""
        if self._getters:
            self._getters.popleft().resolve(item)
        else:
            self._items.append(item)
            if self._watchers:
                watchers, self._watchers = self._watchers, []
                for fut in watchers:
                    fut.resolve_if_pending(None)

    def get(self) -> Future:
        """A future for the next item (primitive form: ``yield q.get()``)."""
        fut = Future(self.sim, name=self._get_name)
        if self._items:
            fut._done = True
            fut._value = self._items.popleft()
        else:
            self._getters.append(fut)
        return fut

    def try_get(self) -> tuple[bool, Any]:
        """Nonblocking get: (ok, item)."""
        if self._items:
            return True, self._items.popleft()
        return False, None

    def when_nonempty(self) -> Future:
        """A future resolved once an item is available (without taking it).

        After it resolves, the caller should re-check with :meth:`try_get`
        (another consumer may have raced it in the same tick).
        """
        fut = Future(self.sim, name=self._nonempty_name)
        if self._items:
            fut.resolve(None)
        else:
            self._watchers.append(fut)
        return fut


class Gate:
    """A level-triggered condition: processes wait until the gate opens."""

    __slots__ = ("sim", "name", "_open", "_waiters", "_wait_name")

    def __init__(self, sim: Simulator, opened: bool = False, name: str = "gate") -> None:
        self.sim = sim
        self.name = name
        self._open = opened
        self._waiters: list[Future] = []
        self._wait_name = f"{name}.wait"

    @property
    def is_open(self) -> bool:
        """Is the gate currently open?"""
        return self._open

    def open(self) -> None:
        """Open the gate; wakes every waiter."""
        self._open = True
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for fut in waiters:
                fut.resolve_if_pending(None)

    def close(self) -> None:
        """Close the gate; future waiters block."""
        self._open = False

    def waitfor(self) -> Future:
        """A future resolved when (or while) the gate is open."""
        fut = Future(self.sim, name=self._wait_name)
        if self._open:
            fut._done = True
        else:
            self._waiters.append(fut)
        return fut
