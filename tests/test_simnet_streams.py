"""Unit tests for flow-controlled streams."""

import pytest

from repro.simnet import (
    Disconnected,
    Host,
    HostDown,
    Killed,
    Network,
    Simulator,
    Stream,
)
from repro.simnet.kernel import run_slot
from repro.simnet.streams import EV_ARRIVE


def make_pair(window=64 * 1024):
    sim = Simulator()
    net = Network(sim)
    a = net.add_host(Host(sim, "a"))
    b = net.add_host(Host(sim, "b"))
    stream = Stream(net, a, b, window=window)
    return sim, net, stream


class _ArrivalSpy:
    """Installed as the kernel probe: records ``(time, nbytes, payload)``
    of every segment delivered to ``end`` — an arrival dropped on a dead
    stream is no delivery — and calls ``after()`` once each is handled."""

    sampling = False

    def __init__(self, end, after=None):
        self.end = end
        self.after = after
        self.seen = []
        end.stream.net.sim.set_probe(self)

    def dispatch(self, time, slot, a, b, qsize):
        live = (slot == EV_ARRIVE and a is self.end
                and not a.stream.dead and a.broken is None)
        run_slot(slot, a, b)
        if live:
            self.seen.append((time, b[0], b[2]))
            if self.after is not None:
                self.after()

    def segments(self):
        return [(nbytes, payload) for _, nbytes, payload in self.seen]

    def times(self):
        return [time for time, _, _ in self.seen]


def test_write_then_read_delivers_payload():
    sim, net, stream = make_pair()

    def writer():
        yield from stream.a.write(100, payload="hello")

    def reader():
        nbytes, payload = yield stream.b.read()
        return (nbytes, payload)

    sim.spawn(writer(), "w")
    p = sim.spawn(reader(), "r")
    assert sim.run_until(p.done) == (100, "hello")


def test_segments_delivered_in_order():
    sim, net, stream = make_pair()
    got = []

    def writer():
        for i in range(10):
            yield from stream.a.write(50, payload=i)

    def reader():
        for _ in range(10):
            _, payload = yield stream.b.read()
            got.append(payload)

    sim.spawn(writer(), "w")
    p = sim.spawn(reader(), "r")
    sim.run_until(p.done)
    assert got == list(range(10))


def test_window_blocks_writer_until_reader_drains():
    sim, net, stream = make_pair(window=1000)
    times = {}

    def writer():
        yield from stream.a.write(800, payload="first")
        yield from stream.a.write(800, payload="second")  # must wait for read
        times["second_written"] = sim.now

    def reader():
        yield sim.timeout(5.0)
        yield stream.b.read()
        times["first_read"] = sim.now
        yield stream.b.read()

    sim.spawn(writer(), "w")
    p = sim.spawn(reader(), "r")
    sim.run_until(p.done)
    assert times["second_written"] >= times["first_read"]


def test_write_nowait_respects_window():
    sim, net, stream = make_pair(window=1000)
    assert stream.a.write_nowait(900, payload=1) is True
    assert stream.a.write_nowait(900, payload=2) is False  # window full


def test_try_read_and_readable():
    sim, net, stream = make_pair()
    assert stream.b.try_read() == (False, 0, None)
    assert not stream.b.readable

    def writer():
        yield from stream.a.write(10, payload="x")

    p = sim.spawn(writer(), "w")
    sim.run_until(p.done)
    sim.run()
    assert stream.b.readable
    assert stream.b.try_read() == (True, 10, "x")


def test_read_releases_credit():
    sim, net, stream = make_pair(window=1000)

    def writer():
        for i in range(5):
            yield from stream.a.write(1000, payload=i)
        return sim.now

    def reader():
        for _ in range(5):
            yield stream.b.read()

    pw = sim.spawn(writer(), "w")
    sim.spawn(reader(), "r")
    sim.run_until(pw.done)  # would deadlock if credit never returned


def test_oversized_write_charged_at_window_cap():
    """A segment larger than the window is still writable (charged capped)."""
    sim, net, stream = make_pair(window=1000)

    def writer():
        yield from stream.a.write(5000, payload="big")

    def reader():
        nbytes, payload = yield stream.b.read()
        return nbytes

    sim.spawn(writer(), "w")
    p = sim.spawn(reader(), "r")
    assert sim.run_until(p.done) == 5000


def test_break_fails_pending_read():
    sim, net, stream = make_pair()

    def reader():
        yield stream.b.read()

    p = sim.spawn(reader(), "r", supervised=True)
    sim.after(1.0, lambda: stream.break_both("peer crash"))
    sim.run()
    assert isinstance(p.done.exception, Disconnected)


def test_break_fails_blocked_writer():
    sim, net, stream = make_pair(window=100)

    def writer():
        yield from stream.a.write(100, payload=1)
        yield from stream.a.write(100, payload=2)  # blocked: no reader

    p = sim.spawn(writer(), "w", supervised=True)
    sim.after(1.0, lambda: stream.break_both("peer crash"))
    sim.run()
    assert isinstance(p.done.exception, Disconnected)


def test_host_crash_breaks_attached_streams():
    sim, net, stream = make_pair()

    def reader():
        yield stream.b.read()

    p = sim.spawn(reader(), "r", supervised=True)
    sim.after(1.0, stream.a.host.crash)
    sim.run()
    assert isinstance(p.done.exception, Disconnected)
    assert stream.dead


def test_in_flight_segment_dropped_on_crash():
    """Atomicity: a segment in flight when the receiver dies is dropped."""
    sim, net, stream = make_pair()

    def writer():
        yield from stream.a.write(60_000, payload="doomed")

    sim.spawn(writer(), "w")
    # crash the receiver while the segment is on the wire
    sim.after(1e-6, stream.b.host.crash)
    sim.run()
    assert stream.b.rx_depth == 0


def test_write_after_break_raises():
    sim, net, stream = make_pair()
    stream.break_both("gone")

    def writer():
        yield from stream.a.write(10, payload="x")

    p = sim.spawn(writer(), "w", supervised=True)
    sim.run()
    assert isinstance(p.done.exception, Disconnected)


def test_end_for_lookup():
    sim, net, stream = make_pair()
    assert stream.end_for(stream.a.host) is stream.a
    assert stream.end_for(stream.b.host) is stream.b
    other = Host(sim, "z")
    with pytest.raises(ValueError):
        stream.end_for(other)


def test_byte_accounting():
    """In-flight segments count as read when consumed, though a read
    returns only the record after them."""
    sim, net, stream = make_pair()

    def writer():
        yield from stream.a.write(123, payload=None)
        yield from stream.a.write(7, payload="end")

    def reader():
        return (yield stream.b.read())

    sim.spawn(writer(), "w")
    p = sim.spawn(reader(), "r")
    assert sim.run_until(p.done) == (7, "end")
    assert stream.a.bytes_written == 130
    assert stream.b.bytes_read == 130


def test_bidirectional_streams_independent():
    sim, net, stream = make_pair()

    def ping():
        yield from stream.a.write(10, payload="ping")
        _, payload = yield stream.a.read()
        return payload

    def pong():
        _, payload = yield stream.b.read()
        yield from stream.b.write(10, payload="pong")

    p = sim.spawn(ping(), "ping")
    sim.spawn(pong(), "pong")
    assert sim.run_until(p.done) == "pong"


# -- coalesced frames (write_frame) -------------------------------------------


def test_write_frame_delivers_one_record():
    """A frame within the window arrives as ONE segment: one reader
    wakeup carrying the record, no intermediate None segments."""
    sim, net, stream = make_pair(window=64 * 1024)

    def writer():
        yield from stream.a.write_frame(40_000, record="rec", mtu=1024)

    def reader():
        nbytes, payload = yield stream.b.read()
        return (nbytes, payload, stream.b.readable)

    sim.spawn(writer(), "w")
    p = sim.spawn(reader(), "r")
    assert sim.run_until(p.done) == (40_000, "rec", False)


def test_write_frame_times_like_segmented_writes():
    """Coalescing must not cheat the wire: a frame spanning N mtu-sized
    segments pays the same frame overhead and inter-segment gaps as N
    separate writes (only the per-call CPU batching differs)."""
    sim1, net1, stream1 = make_pair(window=64 * 1024)

    def framed():
        yield from stream1.a.write_frame(8_000, record="x", mtu=1000)

    def drain1():
        yield stream1.b.read()
        return sim1.now

    sim1.spawn(framed(), "w")
    p1 = sim1.spawn(drain1(), "r")
    t_framed = sim1.run_until(p1.done)

    sim2, net2, stream2 = make_pair(window=64 * 1024)

    def segmented():
        for i in range(8):
            yield from stream2.a.write(1000, payload=i)

    def drain2():
        for _ in range(8):
            yield stream2.b.read()
        return sim2.now

    sim2.spawn(segmented(), "w")
    p2 = sim2.spawn(drain2(), "r")
    t_segmented = sim2.run_until(p2.done)
    assert t_framed == pytest.approx(t_segmented)


def test_write_frame_larger_than_window_respects_flow_control():
    """An over-window frame falls back to window-respecting segments:
    the reader drains mid-transfer (Figure 9) — each in-flight segment
    returns its credit at its arrival, where the next segment takes it
    at once — yet wakes once, for the record on the final segment."""
    sim, net, stream = make_pair(window=1000)
    got = []
    credit_after_arrival = []
    _ArrivalSpy(
        stream.b, after=lambda: credit_after_arrival.append(stream.a.credit),
    )

    def writer():
        yield from stream.a.write_frame(3500, record="tail", mtu=1000)

    def reader():
        while True:
            nbytes, payload = yield stream.b.read()
            got.append((nbytes, payload))
            if payload is not None:
                return

    sim.spawn(writer(), "w")
    p = sim.spawn(reader(), "r")
    sim.run_until(p.done)
    assert got == [(500, "tail")]
    assert credit_after_arrival == [0, 0, 500, 1000]
    assert stream.a.bytes_written == 3500
    assert stream.b.bytes_read == 3500


# four parks of one 1000-byte segment's round trip each, summed in order
STALL_S_5000_OVER_1000 = 0.0005865779334500874


def test_write_frame_over_window_counts_at_most_one_stall():
    """However many segments of an over-window frame block on credit,
    the call books a single window stall (it is one blocked write)."""
    sim, net, stream = make_pair(window=1000)

    def writer():
        yield from stream.a.write_frame(5000, record="r", mtu=1000)

    def reader():
        while True:
            _, payload = yield stream.b.read()
            if payload is not None:
                return

    sim.spawn(writer(), "w")
    p = sim.spawn(reader(), "r")
    sim.run_until(p.done)
    assert stream.a.stall_count == 1
    assert stream.a.host.stall_count == 1
    # four parks, each timed from the park to the release that paid
    # for it and added on its own, in order: the per-segment writer
    # loop's float sum, bit for bit
    assert stream.a.stall_s == STALL_S_5000_OVER_1000
    assert stream.a.host.stall_s == STALL_S_5000_OVER_1000


# -- a blocked frame moved by credit releases ----------------------------------


def test_killed_writer_sends_nothing_more_and_its_wait_takes_the_credit():
    """As a dead process's pending ``acquire`` did: the released credit
    is consumed by the killed frame's wait, and nothing is sent."""
    sim, net, stream = make_pair(window=1000)

    def writer():
        yield from stream.a.write_frame(5000, record="r", mtu=1000)

    w = sim.spawn(writer(), "w")
    sim.run()  # one segment sent, queued unread; the frame parked
    assert stream.a.bytes_written == 1000 and stream.b.rx_depth == 1
    w.kill()
    assert stream.b.try_read() == (True, 1000, None)  # 1000 tokens back
    sim.run()
    assert stream.a.bytes_written == 1000
    assert net.segments_moved == 1
    assert stream.a.credit == 0  # taken by the dead frame's wait
    assert stream.a.write_nowait(10, "late") is False
    assert isinstance(w.done.exception, Killed)


def test_stream_broken_mid_frame_fails_the_writer_after_its_handoffs():
    """The writer sees ``Disconnected`` and ``bytes_written`` counts the
    segments handed to the network, the one dropped on the wire too."""
    sim, net, stream = make_pair(window=1000)
    spy = _ArrivalSpy(stream.b)
    caught = {}

    def writer():
        try:
            yield from stream.a.write_frame(5000, record="r", mtu=1000)
        except Disconnected as exc:
            caught["exc"] = exc
            caught["written"] = stream.a.bytes_written

    def reader():
        while True:
            yield stream.b.read()

    w = sim.spawn(writer(), "w")
    sim.spawn(reader(), "r", supervised=True)
    # a segment takes ~147 us end to end: at 350 us the third is on the
    # wire and the frame parked for the fourth
    sim.after(350e-6, lambda: stream.break_both("cut"))
    sim.run()
    assert w.done.done and w.done.exception is None
    assert isinstance(caught["exc"], Disconnected)
    assert caught["written"] == 3000 == net.bytes_moved
    # the third was dropped
    assert spy.segments() == [(1000, None), (1000, None)]
    assert stream.a.stall_count == 1


def test_writer_queued_behind_a_blocked_frame_keeps_fifo_order():
    """A parked frame re-queues behind a writer that queued meanwhile:
    the credit goes first to the head of the queue, segment by segment."""
    sim, net, stream = make_pair(window=1000)
    spy = _ArrivalSpy(stream.b)
    done = []

    def frame_writer():
        yield from stream.a.write_frame(2000, record="A", mtu=400)
        done.append("A")

    def small_writer():
        # 200 tokens are free, enough for 150 bytes: FIFO order still
        # queues this write behind the parked frame
        yield sim.timeout(1e-6)
        yield from stream.a.write(150, payload="B")
        done.append("B")

    def reader():
        while (yield stream.b.read())[1] != "A":
            pass

    sim.spawn(frame_writer(), "wa")
    sim.spawn(small_writer(), "wb")
    p = sim.spawn(reader(), "r")
    sim.run_until(p.done)
    assert spy.segments() == [
        (400, None), (400, None), (400, None), (150, "B"), (400, None),
        (400, "A"),
    ]
    assert done == ["B", "A"]
    assert stream.a.stall_count == 2


def test_source_host_crash_mid_frame_does_not_crash_the_simulator():
    """Credit released to a frame whose host is already down (a crash
    kills processes before it breaks streams): the hand-off's HostDown
    goes to the writer, not to whoever released the credit."""
    sim, net, stream = make_pair(window=1000)
    a = stream.a.host

    def writer():
        yield from stream.a.write_frame(5000, record="r", mtu=1000)

    def bystander():
        yield sim.timeout(10.0)

    w = sim.spawn(writer(), "w", supervised=True)  # not bound to host a
    k = sim.spawn(bystander(), "k")
    a.register(k)
    # killing k drains the receive side while host a is down
    k.done.add_done_callback(lambda _f: stream.b.try_read())
    sim.run(until=1.0)  # one segment queued, the frame parked
    a.crash()
    sim.run()
    assert isinstance(w.done.exception, HostDown)
    assert stream.a.bytes_written == 1000
    assert stream.dead


# -- the arrival hand-off's fallbacks (times recorded before the hand-off
# sent the next segment from the arrival handler itself) ----------------------

#: one 1000-byte segment's end-to-end time on the default link
SEG_1000_S = 0.00014664448336252188


def _frame_under_fault(fault):
    """A 5000-byte frame through a 1000-byte window to a draining reader,
    ``fault(net, stream)`` applied at 350 us — the third segment on the
    wire, the frame parked for the fourth."""
    sim, net, stream = make_pair(window=1000)
    spy = _ArrivalSpy(stream.b)
    done = {}

    def writer():
        yield from stream.a.write_frame(5000, record="r", mtu=1000)
        done["w"] = sim.now

    def reader():
        while (yield stream.b.read())[1] is None:
            pass
        done["r"] = sim.now

    sim.spawn(writer(), "w")
    p = sim.spawn(reader(), "r")
    sim.after(350e-6, lambda: fault(net, stream))
    sim.run_until(p.done)
    assert spy.segments() == [(1000, None)] * 4 + [(1000, "r")]
    assert stream.a.stall_count == 1
    return spy.times(), done, stream, net


def test_partition_mid_frame_defers_the_next_segment_until_the_heal():
    """The segment the third arrival sends meets the cut: it is deferred,
    the frame stays parked through the partition and ends after the heal."""
    times, done, stream, net = _frame_under_fault(
        lambda net, s: net.partition([s.a.host], [s.b.host], 0.01)
    )
    assert times == [
        SEG_1000_S, 0.00029328896672504377, 0.0004399334500875656,
        0.010496644483362523, 0.010643288966725046,
    ]
    assert done == {"w": 0.010496644483362523, "r": 0.010643288966725046}
    assert net.segments_deferred == 1
    assert stream.a.stall_s == 0.010496644483362523


def test_undrained_segments_keep_their_credit_until_read():
    """With no reader parked, an in-flight segment queues and its credit
    stays taken: the frame moves only when ``try_read``/``read`` consume."""
    sim, net, stream = make_pair(window=1000)
    spy = _ArrivalSpy(stream.b)
    done = {}

    def writer():
        yield from stream.a.write_frame(3500, record="tail", mtu=1000)
        done["w"] = sim.now

    sim.spawn(writer(), "w")
    sim.run()
    assert sim.now == SEG_1000_S
    assert (stream.b.rx_depth, stream.a.bytes_written) == (1, 1000)
    assert stream.a.credit == 0
    assert stream.a.write_nowait(10) is False
    assert not stream.a.when_writable(1).done
    assert stream.b.try_read() == (True, 1000, None)
    sim.run()
    assert (stream.b.rx_depth, stream.a.bytes_written) == (1, 2000)
    fut = stream.b.read()  # consumes the queued segment, then parks
    assert not fut.done and stream.b.rx_depth == 0
    assert stream.a.bytes_written == 3000
    sim.run()
    assert fut.value == (500, "tail")
    assert sim.now == 0.0005427950963222416
    assert done == {"w": 0.0004399334500875656}
    assert stream.b.bytes_read == 3500
    assert stream.a.stall_s == 0.0004399334500875656
    assert spy.times() == [
        SEG_1000_S, 0.00029328896672504377, 0.0004399334500875656,
        0.0005427950963222416,
    ]


# -- the credit window ----------------------------------------------------------


def test_credit_goes_fifo_a_large_parked_need_is_not_overtaken():
    """Credit returned piecemeal: a later, smaller write that it would
    already cover waits behind the earlier, larger parked one."""
    sim, net, stream = make_pair(window=1000)
    order = []
    for i in range(4):
        assert stream.a.write_nowait(250, payload=i)  # the window is full

    def writer(tag, nbytes):
        yield from stream.a.write(nbytes, payload=tag)
        order.append((tag, sim.now))

    sim.spawn(writer("big", 750), "big")
    sim.spawn(writer("small", 250), "small")

    def drain():
        for _ in range(4):
            yield sim.timeout(1.0)
            assert stream.b.try_read()[0]

    sim.spawn(drain(), "drain")
    sim.run()
    assert order == [("big", 3.0), ("small", 4.0)]


def test_break_fails_every_parked_writer_and_writable_watcher():
    sim, net, stream = make_pair(window=100)
    assert stream.a.write_nowait(100, payload=0)

    def writer():
        yield from stream.a.write(100, payload=1)

    writers = [sim.spawn(writer(), f"w{i}", supervised=True) for i in range(2)]
    watchers = [stream.a.when_writable(50), stream.a.when_writable(100)]
    sim.after(1.0, lambda: stream.break_both("peer crash"))
    sim.run()
    for fut in [w.done for w in writers] + watchers:
        assert isinstance(fut.exception, Disconnected)
    assert isinstance(stream.a.when_writable(1).exception, Disconnected)


def test_when_writable_resolves_on_returned_credit_without_taking_it():
    """The P4 eager path's wait: resolved by the reader's consumption,
    not by the segment's arrival, and the credit stays for the writer."""
    sim, net, stream = make_pair(window=1000)
    assert stream.a.write_nowait(1000, payload="x")
    fut = stream.a.when_writable(500)
    sim.run()  # arrived and queued: its credit is still taken
    assert stream.b.rx_depth == 1 and not fut.done
    assert stream.b.try_read() == (True, 1000, "x")
    assert fut.done and fut.exception is None
    assert stream.a.credit == 1000
    assert stream.a.when_writable(5000).done  # charged at the window cap


# -- window-stall accounting --------------------------------------------------


def test_stall_counted_when_blocked_behind_queued_waiter():
    """FIFO blocking: a writer with enough raw tokens still queues
    behind an earlier waiter — that is a stall too (the old
    tokens-sufficient pre-check missed it)."""
    sim, net, stream = make_pair(window=1000)
    order = []

    def big_writer():
        yield from stream.a.write(900, payload="a1")
        yield from stream.a.write(900, payload="a2")  # blocks: 100 left
        order.append("big")

    def small_writer():
        # Runs after big_writer queued for credit.  100 tokens remain —
        # enough for this 50-byte segment — but FIFO order parks it
        # behind the blocked big write, so it must count a stall.
        yield sim.timeout(0.001)
        yield from stream.a.write(50, payload="b")
        order.append("small")

    def reader():
        yield sim.timeout(1.0)
        for _ in range(3):
            yield stream.b.read()

    sim.spawn(big_writer(), "w1")
    sim.spawn(small_writer(), "w2")
    p = sim.spawn(reader(), "r")
    sim.run_until(p.done)
    sim.run()
    assert order == ["big", "small"]
    assert stream.a.stall_count == 2  # both the big AND the queued small
    assert stream.a.stall_s > 0.0


def test_no_stall_counted_on_free_write():
    sim, net, stream = make_pair(window=1000)

    def writer():
        yield from stream.a.write(100, payload="x")

    def reader():
        yield stream.b.read()

    sim.spawn(writer(), "w")
    p = sim.spawn(reader(), "r")
    sim.run_until(p.done)
    assert stream.a.stall_count == 0
    assert stream.a.stall_s == 0.0


def test_write_nowait_refuses_behind_queued_waiter():
    """write_nowait must not jump the FIFO credit queue: with waiters
    parked, it reports full even when raw tokens would cover it."""
    sim, net, stream = make_pair(window=1000)

    def blocked_writer():
        yield from stream.a.write(900, payload=1)
        yield from stream.a.write(900, payload=2)  # parks on credit

    sim.spawn(blocked_writer(), "w")
    sim.run()
    assert stream.a.write_nowait(50, payload=3) is False
