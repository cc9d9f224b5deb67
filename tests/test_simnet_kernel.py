"""Unit tests for the discrete-event kernel."""

import pytest

from repro.simnet import (
    DeadlockError,
    Future,
    Gate,
    Killed,
    Queue,
    SimError,
    Simulator,
    all_of,
    any_of,
)
from repro.simnet.kernel import run_slot


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.after(2.0, lambda: order.append("b"))
    sim.after(1.0, lambda: order.append("a"))
    sim.after(3.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_simultaneous_events_run_in_schedule_order():
    sim = Simulator()
    order = []
    for tag in "abc":
        sim.after(1.0, lambda t=tag: order.append(t))
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_time_limit():
    sim = Simulator()
    hits = []
    sim.after(1.0, lambda: hits.append(1))
    sim.after(5.0, lambda: hits.append(2))
    sim.run(until=2.0)
    assert hits == [1]
    assert sim.now == 2.0
    sim.run()
    assert hits == [1, 2]


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.after(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimError):
        sim.at(0.5, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimError):
        sim.after(-1.0, lambda: None)


def test_future_resolution_and_value():
    sim = Simulator()
    fut = sim.future("f")
    assert not fut.done
    fut.resolve(42)
    assert fut.done
    assert fut.value == 42


def test_future_double_resolution_rejected():
    sim = Simulator()
    fut = sim.future("f")
    fut.resolve(1)
    with pytest.raises(SimError):
        fut.resolve(2)
    assert fut.resolve_if_pending(3) is False


def test_future_failure_propagates_on_value():
    sim = Simulator()
    fut = sim.future("f")
    fut.fail(ValueError("boom"))
    with pytest.raises(ValueError):
        _ = fut.value


def test_future_callback_after_done_fires_immediately():
    sim = Simulator()
    fut = sim.future("f")
    fut.resolve("x")
    got = []
    fut.add_done_callback(lambda f: got.append(f.value))
    assert got == ["x"]


def test_process_returns_value():
    sim = Simulator()

    def prog():
        yield sim.timeout(1.0)
        return "done"

    p = sim.spawn(prog(), "p")
    assert sim.run_until(p.done) == "done"
    assert sim.now == 1.0


def test_process_sleep_composite():
    sim = Simulator()

    def nap(delay):  # a composite operation: ``yield from nap(dt)``
        yield sim.pause(delay)

    def prog():
        yield from nap(0.5)
        yield from nap(0.5)
        return sim.now

    p = sim.spawn(prog(), "p")
    assert sim.run_until(p.done) == 1.0


def test_timeout_carries_value():
    sim = Simulator()

    def prog():
        got = yield sim.timeout(1.0, value="tick")
        return got

    p = sim.spawn(prog(), "p")
    assert sim.run_until(p.done) == "tick"


def test_process_crash_surfaces_in_run():
    sim = Simulator()

    def prog():
        yield sim.timeout(1.0)
        raise RuntimeError("app bug")

    sim.spawn(prog(), "buggy")
    with pytest.raises(SimError, match="buggy"):
        sim.run()


def test_supervised_process_crash_is_contained():
    sim = Simulator()

    def prog():
        yield sim.timeout(1.0)
        raise RuntimeError("app bug")

    p = sim.spawn(prog(), "buggy", supervised=True)
    sim.run()
    assert isinstance(p.done.exception, RuntimeError)


def test_kill_stops_process_and_fails_done():
    sim = Simulator()
    steps = []

    def prog():
        steps.append("start")
        yield sim.timeout(10.0)
        steps.append("never")

    p = sim.spawn(prog(), "victim")
    sim.after(1.0, p.kill)
    sim.run()
    assert steps == ["start"]
    assert isinstance(p.done.exception, Killed)
    assert not p.alive


def test_killed_process_not_resumed_by_pending_future():
    sim = Simulator()
    resumed = []

    def prog():
        yield sim.timeout(5.0)
        resumed.append(True)

    p = sim.spawn(prog(), "victim")
    sim.after(1.0, p.kill)
    sim.run()
    assert resumed == []


def test_yield_non_future_is_an_error():
    sim = Simulator()

    def prog():
        yield 42

    sim.spawn(prog(), "bad")
    with pytest.raises(SimError):
        sim.run()


def test_run_until_deadlock_detection():
    sim = Simulator()

    def prog():
        yield sim.future("never")

    p = sim.spawn(prog(), "stuck")
    with pytest.raises(DeadlockError, match="stuck"):
        sim.run_until(p.done)


def test_blocked_processes_lists_the_live_in_spawn_order():
    """The process table holds live processes only; the deadlock
    diagnosis must still name every alive-and-blocked one, in spawn
    order, and none that returned, was killed or is merely sleeping."""
    sim = Simulator()

    def stuck(name):
        yield sim.future(name)

    def brief():
        yield sim.timeout(1.0)

    def sleeper():
        yield sim.pause(100.0)

    a = sim.spawn(stuck("fa"), "a")
    sim.spawn(brief(), "returns")
    victim = sim.spawn(stuck("fv"), "killed")
    sim.spawn(stuck("fc"), "c")
    sim.spawn(sleeper(), "sleeping")
    sim.run(until=2.0)
    victim.kill()
    assert sim.blocked_processes() == ["a on fa", "c on fc"]
    assert [p.name for p in sim._processes.values()] == ["a", "c", "sleeping"]
    with pytest.raises(DeadlockError, match=r"blocked: \['a on fa', 'c on fc'\]"):
        sim.run_until(a.done)


def test_cancelled_timeout_leaves_the_heap_and_never_fires():
    sim = Simulator()
    fired = []
    long = sim.timeout(3600.0)
    long.add_done_callback(fired.append)
    others = [sim.timeout(float(d)) for d in (5, 1, 4, 2, 3)]
    order = []
    for d, f in zip((5, 1, 4, 2, 3), others):
        f.add_done_callback(lambda _f, d=d: order.append(d))
    sim.cancel(long)
    assert len(sim._heap) == 5
    sim.cancel(long)  # gone already: a no-op
    sim.run()
    assert order == [1, 2, 3, 4, 5] and not fired and sim.now == 5.0


def test_caught_exception_from_a_failed_future_pins_no_frames():
    """A failed future throws its one stored exception into every
    process waiting on it; each ``throw`` appends the catcher's frames
    to its traceback.  The kernel drops that traceback once the process
    has caught the exception."""
    sim = Simulator()
    fut = Future(sim, "f")
    boom = RuntimeError("peer gone")
    caught = []

    def waiter(ballast):
        try:
            yield fut
        except RuntimeError as exc:
            caught.append(exc)
            yield sim.timeout(1.0)

    procs = [sim.spawn(waiter([i]), f"w{i}") for i in range(3)]
    sim.run(until=0.5)
    fut.fail(boom)
    assert boom.__traceback__ is None
    sim.run()
    assert caught == [boom] * 3
    assert all(not p.alive for p in procs) and boom.__traceback__ is None


def test_run_until_sim_time_limit():
    sim = Simulator()

    def prog():
        yield sim.timeout(100.0)

    p = sim.spawn(prog(), "slow")
    with pytest.raises(SimError, match="limit"):
        sim.run_until(p.done, limit=10.0)


class _CountingProbe:
    """The smallest conforming kernel probe: count, then execute."""

    sampling = False

    def __init__(self):
        self.events = 0

    def dispatch(self, time, slot, a, b, qsize):
        self.events += 1
        run_slot(slot, a, b)


def _ends_in_crash(sim):
    def prog():
        yield sim.timeout(1.0)
        raise RuntimeError("app bug")

    sim.spawn(prog(), "buggy")
    sim.after(3.0, lambda: None)  # never reached: the crash ends the run
    sim.run()


def _ends_past_limit(sim):
    def prog():
        yield sim.pause(4.0)
        yield sim.timeout(100.0)

    sim.run_until(sim.spawn(prog(), "slow").done, limit=10.0)


def _ends_deadlocked(sim):
    def prog():
        yield sim.pause(2.0)
        yield sim.future("never")

    sim.run_until(sim.spawn(prog(), "stuck").done)


def _ends_at_until(sim):
    sim.after(1.0, lambda: None)
    sim.after(5.0, lambda: None)
    sim.run(until=2.0)  # stops short of a queued event
    assert sim.now == 2.0
    sim.run(until=7.0)  # outlasts the queue


@pytest.mark.parametrize("drive, raises, match, now", [
    (_ends_in_crash, SimError, "'buggy' crashed", 1.0),
    (_ends_past_limit, SimError, "limit 10.0 exceeded", 4.0),
    (_ends_deadlocked, DeadlockError, r"blocked: \['stuck on never'\]", 2.0),
    (_ends_at_until, None, None, 7.0),
])
def test_run_loop_endings_are_the_same_under_a_probe(drive, raises, match, now):
    """Every way out of ``run``/``run_until`` — crash re-raise, blown
    limit, deadlock diagnosis, ``until`` clock advance — ends with the
    same exception and the same clock whether or not a probe dispatches
    the events."""
    for probe in (None, _CountingProbe()):
        sim = Simulator()
        sim.set_probe(probe)
        if raises is None:
            drive(sim)
        else:
            with pytest.raises(raises, match=match):
                drive(sim)
        assert sim.now == now
        assert probe is None or probe.events > 0


def test_all_of_collects_values_in_order():
    sim = Simulator()
    f1, f2 = sim.future("f1"), sim.future("f2")
    combined = all_of(sim, [f1, f2])
    f2.resolve("b")
    assert not combined.done
    f1.resolve("a")
    assert combined.value == ["a", "b"]


def test_all_of_empty_is_immediate():
    sim = Simulator()
    assert all_of(sim, []).value == []


def test_all_of_fails_fast():
    sim = Simulator()
    f1, f2 = sim.future("f1"), sim.future("f2")
    combined = all_of(sim, [f1, f2])
    f1.fail(ValueError("x"))
    assert combined.done
    assert isinstance(combined.exception, ValueError)


def test_any_of_reports_winner_index():
    sim = Simulator()
    f1, f2 = sim.future("f1"), sim.future("f2")
    first = any_of(sim, [f1, f2])
    f2.resolve("late riser")
    assert first.value == (1, "late riser")
    f1.resolve("ignored")
    assert first.value == (1, "late riser")


def test_queue_fifo_order():
    sim = Simulator()
    q = Queue(sim)
    q.put(1)
    q.put(2)

    def prog():
        a = yield q.get()
        b = yield q.get()
        return (a, b)

    p = sim.spawn(prog(), "reader")
    assert sim.run_until(p.done) == (1, 2)


def test_queue_blocks_until_put():
    sim = Simulator()
    q = Queue(sim)

    def reader():
        item = yield q.get()
        return (sim.now, item)

    p = sim.spawn(reader(), "reader")
    sim.after(2.0, lambda: q.put("x"))
    assert sim.run_until(p.done) == (2.0, "x")


def test_queue_multiple_getters_fifo():
    sim = Simulator()
    q = Queue(sim)
    got = []

    def reader(tag):
        item = yield q.get()
        got.append((tag, item))

    sim.spawn(reader("r1"), "r1")
    sim.spawn(reader("r2"), "r2")
    sim.after(1.0, lambda: q.put("first"))
    sim.after(2.0, lambda: q.put("second"))
    sim.run()
    assert got == [("r1", "first"), ("r2", "second")]


def test_queue_try_get():
    sim = Simulator()
    q = Queue(sim)
    assert q.try_get() == (False, None)
    q.put(9)
    assert q.try_get() == (True, 9)


def test_gate_blocks_until_open():
    sim = Simulator()
    gate = Gate(sim)

    def prog():
        yield gate.waitfor()
        return sim.now

    p = sim.spawn(prog(), "p")
    sim.after(3.0, gate.open)
    assert sim.run_until(p.done) == 3.0


def test_gate_open_is_level_triggered():
    sim = Simulator()
    gate = Gate(sim, opened=True)

    def prog():
        yield gate.waitfor()
        return "through"

    p = sim.spawn(prog(), "p")
    assert sim.run_until(p.done) == "through"


def test_stop_halts_event_loop():
    sim = Simulator()
    hits = []
    sim.after(1.0, lambda: hits.append(1))
    sim.after(2.0, sim.stop)
    sim.after(3.0, lambda: hits.append(3))
    sim.run()
    assert hits == [1]
    assert sim.now == 2.0
