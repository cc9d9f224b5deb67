"""Unit tests: logical clocks, sender log, fabric, event logger."""

from types import SimpleNamespace

import pytest

from repro.core.clocks import ClockState, EventRecord
from repro.core.el_client import EventLogClient
from repro.core.event_logger import EventLoggerServer
from repro.core.sender_log import LogOverflow, SenderLog
from repro.mpi.datatypes import Envelope
from repro.runtime.cluster import Cluster
from repro.runtime.config import DEFAULT_TESTBED
from repro.runtime.fabric import ConnectionRefused, Fabric


def env(nbytes=100, src=0, dst=1, sclock=1):
    return Envelope(src, dst, 0, 0, nbytes, sclock)


# -- clocks -----------------------------------------------------------------


def test_clock_ticks_on_send_and_recv():
    c = ClockState()
    assert c.tick_send() == 1
    assert c.tick_recv(src=3, sclock=7) == 1  # independent sequences
    assert c.h == 2  # the paper's scalar clock = sends + receives
    assert c.hr[3] == 7


def test_hr_is_monotonic():
    c = ClockState()
    c.tick_recv(2, 5)
    c.tick_recv(2, 3)  # duplicate/out-of-order metadata never lowers HR
    assert c.hr[2] == 5


def test_suppression_uses_hs():
    c = ClockState()
    c.hs[4] = 10
    assert c.suppressed(4, 10)
    assert c.suppressed(4, 3)
    assert not c.suppressed(4, 11)
    assert not c.suppressed(5, 1)


def test_clock_snapshot_is_independent():
    c = ClockState()
    c.tick_send()
    snap = c.snapshot()
    c.tick_send()
    c.hr[1] = 99
    assert snap.send_seq == 1
    assert 1 not in snap.hr


def test_event_record_ordering():
    a = EventRecord(rclock=1, src=0, sclock=1, probes=0)
    b = EventRecord(rclock=2, src=0, sclock=2, probes=0)
    assert sorted([b, a]) == [a, b]


# -- sender log -------------------------------------------------------------


def test_sender_log_append_and_lookup():
    log = SenderLog(ram_budget=10_000, disk_budget=0)
    log.append(env(nbytes=100, sclock=1))
    log.append(env(nbytes=100, sclock=3))
    log.append(env(nbytes=100, dst=2, sclock=2))
    assert len(log) == 3
    assert [m.sclock for m in log.messages_for(1)] == [1, 3]
    assert [m.sclock for m in log.messages_for(1, after_sclock=1)] == [3]
    assert log.has(2, 2)
    assert not log.has(2, 9)


def test_sender_log_ram_then_disk_spill():
    log = SenderLog(ram_budget=150, disk_budget=1000)
    assert log.append(env(nbytes=100)) == 0  # fits in RAM
    spilled = log.append(env(nbytes=100))  # 50 bytes over RAM
    assert spilled == 50
    assert log.bytes_on_disk == 50


def test_sender_log_overflow_raises():
    log = SenderLog(ram_budget=100, disk_budget=100)
    log.append(env(nbytes=150))
    with pytest.raises(LogOverflow):
        log.append(env(nbytes=100))


def test_sender_log_gc_frees_prefix_only():
    log = SenderLog(ram_budget=10_000, disk_budget=0)
    for sc in (1, 2, 3, 4):
        log.append(env(nbytes=100, sclock=sc))
    freed = log.collect(1, upto_sclock=2)
    assert freed == 200
    assert [m.sclock for m in log.messages_for(1)] == [3, 4]
    assert log.bytes_total == 200


def test_sender_log_snapshot_restore_round_trip():
    log = SenderLog(ram_budget=10_000, disk_budget=0)
    log.append(env(nbytes=10, sclock=1))
    log.append(env(nbytes=20, dst=2, sclock=2))
    entries = log.snapshot()
    back = SenderLog.restore(10_000, 0, entries)
    assert len(back) == 2
    assert back.bytes_total == 30
    assert back.has(2, 2)


# -- fabric -----------------------------------------------------------------


def test_fabric_connect_delivers_hello():
    cluster = Cluster()
    fabric = Fabric(cluster)
    a = cluster.add_cn("a")
    b = cluster.add_cn("b")
    acc = fabric.listen("svc", b)
    end_a = fabric.connect(a, "svc", hello={"rank": 3})

    def server():
        end_b, hello = yield acc.accept()
        return hello

    p = cluster.sim.spawn(server(), "srv")
    assert cluster.sim.run_until(p.done) == {"rank": 3}
    assert end_a.host is a


def test_fabric_refuses_unknown_name():
    cluster = Cluster()
    fabric = Fabric(cluster)
    a = cluster.add_cn("a")
    with pytest.raises(ConnectionRefused):
        fabric.connect(a, "nope")


def test_fabric_refuses_dead_listener_host():
    cluster = Cluster()
    fabric = Fabric(cluster)
    a = cluster.add_cn("a")
    b = cluster.add_cn("b")
    fabric.listen("svc", b)
    b.crash()
    with pytest.raises(ConnectionRefused):
        fabric.connect(a, "svc")


def test_fabric_relisten_replaces_old():
    cluster = Cluster()
    fabric = Fabric(cluster)
    a = cluster.add_cn("a")
    b = cluster.add_cn("b")
    acc1 = fabric.listen("svc", b)
    acc2 = fabric.listen("svc", b)
    assert acc1.closed
    fabric.connect(a, "svc", hello=1)
    assert len(acc2.queue) == 1
    assert len(acc1.queue) == 0


# -- event logger --------------------------------------------------------------


def _el_setup():
    cluster = Cluster()
    fabric = Fabric(cluster)
    aux = cluster.add_aux("el-host")
    cn = cluster.add_cn("cn0")
    el = EventLoggerServer(cluster.sim, aux, fabric, cluster.cfg, "el:0",
                           cluster.tracer, cluster.metrics, 0, ())
    el.start()
    return cluster, fabric, cn, el


def _push(end, recs):
    """Push ``recs`` for rank 0 as one EVENT record each; return the
    cumulative ack covering the last one's rclock (the logger may ack a
    burst with one frame)."""
    for rec in recs:
        yield from end.write(20, ("EVENT", 0, rec))
    while True:
        _, ack = yield end.read()
        if ack[1] >= recs[-1].rclock:
            return ack


def test_event_logger_store_ack_download():
    cluster, fabric, cn, el = _el_setup()

    def client():
        end = fabric.connect(cn, "el:0", hello=0)
        recs = [EventRecord(1, src=2, sclock=5, probes=0)]
        ack = yield from _push(end, recs)
        assert ack == ("ACK", 1)
        yield from end.write(12, ("DOWNLOAD", 0, 0))
        _, reply = yield end.read()
        return reply

    p = cluster.sim.spawn(client(), "cli")
    kind, records = cluster.sim.run_until(p.done)
    assert kind == "EVENTS"
    assert records == [EventRecord(1, 2, 5, 0)]


def test_event_logger_download_after_clock_filters():
    cluster, fabric, cn, el = _el_setup()

    def client():
        end = fabric.connect(cn, "el:0", hello=0)
        recs = [EventRecord(rc, src=1, sclock=rc, probes=0) for rc in (1, 2, 3)]
        yield from _push(end, recs)
        yield from end.write(12, ("DOWNLOAD", 0, 2))
        _, reply = yield end.read()
        return reply[1]

    p = cluster.sim.spawn(client(), "cli")
    records = cluster.sim.run_until(p.done)
    assert [r.rclock for r in records] == [3]


def test_event_logger_dedups_and_prunes():
    cluster, fabric, cn, el = _el_setup()

    def client():
        end = fabric.connect(cn, "el:0", hello=0)
        rec = EventRecord(1, src=1, sclock=1, probes=0)
        yield from _push(end, [rec])
        yield from _push(end, [rec])  # duplicate (replay)
        yield from _push(end, [EventRecord(2, 1, 2, 1)])
        yield from end.write(12, ("PRUNE", 0, 1))
        yield from end.write(12, ("DOWNLOAD", 0, 0))
        _, reply = yield end.read()
        return reply[1]

    p = cluster.sim.spawn(client(), "cli")
    records = cluster.sim.run_until(p.done)
    assert [r.rclock for r in records] == [2]
    # duplicate not double-counted
    assert cluster.metrics.total("el.events_stored") == 2


def test_event_logger_acks_a_burst_before_a_download_queued_behind_it():
    """A DOWNLOAD written right behind an EVENT burst on one stream: the
    burst gets its cumulative ACK on a frame of its own, then the
    EVENTS reply holds the burst (the reply carries no ack)."""
    cluster, fabric, cn, el = _el_setup()
    recs = [EventRecord(rc, src=1, sclock=rc, probes=0) for rc in (1, 2, 3)]

    def client():
        end = fabric.connect(cn, "el:0", hello=0)
        for rec in recs:
            yield from end.write(20, ("EVENT", 0, rec))
        yield from end.write(12, ("DOWNLOAD", 0, 0))
        frames = []
        while not frames or frames[-1][0] != "EVENTS":
            _, msg = yield end.read()
            frames.append(msg)
        return frames

    p = cluster.sim.spawn(client(), "cli")
    frames = cluster.sim.run_until(p.done)
    # rclock 1 is stored alone; 2 and 3 queue behind it with the
    # DOWNLOAD and are stored as one burst
    assert frames == [("ACK", 1), ("ACK", 3), ("EVENTS", recs)]
    assert cluster.metrics.total("el.acks") == 2

def test_event_logger_survives_client_disconnect():
    cluster, fabric, cn, el = _el_setup()

    def client():
        end = fabric.connect(cn, "el:0", hello=0)
        yield from _push(end, [EventRecord(1, 1, 1, 0)])

    p = cluster.sim.spawn(client(), "cli")
    cluster.sim.run_until(p.done)
    cn.crash()
    cluster.sim.run(until=cluster.sim.now + 1.0)
    assert max(el.events[0]) == 1  # events survive the daemon's death


def test_gate_clears_each_event_on_a_quorum_of_replica_acks():
    """Replicas ack at their own pace: an event leaves the ledger, in log
    order, once a quorum of ack watermarks reaches its rclock."""
    cluster = Cluster(DEFAULT_TESTBED.with_(el_replicas=3))
    core = SimpleNamespace(
        sim=cluster.sim, cfg=cluster.cfg, rank=0, _spawn=None, host=None,
        tracer=cluster.tracer, metrics=cluster.metrics,
        session=lambda target, scope: SimpleNamespace(end=None),
    )
    client = EventLogClient(core, ("el:0", "el:0.1", "el:0.2"), 0)
    assert client.quorum == 2
    for rc in (1, 2, 3):
        client.log_event(EventRecord(rc, src=1, sclock=rc, probes=0))
    a, b, c = client.replicas
    client._ack_through(a, 3)  # one replica has all three: none clears
    assert not client.gate.is_open and len(client._pending) == 3
    client._ack_through(b, 1)  # a second one through rclock 1
    assert [rc for rc, _t0 in client._pending] == [2, 3]
    client._ack_through(c, 3)
    assert client.gate.is_open and not client._pending
