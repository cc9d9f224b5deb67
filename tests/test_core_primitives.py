"""Unit tests: logical clocks, sender log, fabric, event logger."""

import pytest

from repro.core.clocks import ClockState, EventRecord
from repro.core.event_logger import EventLoggerServer
from repro.core.sender_log import LogOverflow, SenderLog
from repro.mpi.datatypes import Envelope
from repro.runtime.cluster import Cluster
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
    log.append(1, 1, env(nbytes=100, sclock=1))
    log.append(1, 3, env(nbytes=100, sclock=3))
    log.append(2, 2, env(nbytes=100, sclock=2))
    assert len(log) == 3
    assert [m.sclock for m in log.messages_for(1)] == [1, 3]
    assert [m.sclock for m in log.messages_for(1, after_sclock=1)] == [3]
    assert log.has(2, 2)
    assert not log.has(2, 9)


def test_sender_log_ram_then_disk_spill():
    log = SenderLog(ram_budget=150, disk_budget=1000)
    assert log.append(1, 1, env(nbytes=100)) == 0  # fits in RAM
    spilled = log.append(1, 2, env(nbytes=100))  # 50 bytes over RAM
    assert spilled == 50
    assert log.bytes_on_disk == 50


def test_sender_log_overflow_raises():
    log = SenderLog(ram_budget=100, disk_budget=100)
    log.append(1, 1, env(nbytes=150))
    with pytest.raises(LogOverflow):
        log.append(1, 2, env(nbytes=100))


def test_sender_log_gc_frees_prefix_only():
    log = SenderLog(ram_budget=10_000, disk_budget=0)
    for sc in (1, 2, 3, 4):
        log.append(1, sc, env(nbytes=100, sclock=sc))
    freed = log.collect(1, upto_sclock=2)
    assert freed == 200
    assert [m.sclock for m in log.messages_for(1)] == [3, 4]
    assert log.bytes_total == 200


def test_sender_log_snapshot_restore_round_trip():
    log = SenderLog(ram_budget=10_000, disk_budget=0)
    log.append(1, 1, env(nbytes=10, sclock=1))
    log.append(2, 2, env(nbytes=20, sclock=2))
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


def test_event_logger_store_ack_download():
    cluster, fabric, cn, el = _el_setup()

    def client():
        end = fabric.connect(cn, "el:0", hello=0)
        recs = [EventRecord(1, src=2, sclock=5, probes=0)]
        yield from end.write(20, ("EVENT", 0, 0, recs))
        _, ack = yield end.read()
        assert ack == ("ACK", 0, 1)
        yield from end.write(12, ("DOWNLOAD", 0, 0))
        _, reply = yield end.read()
        return reply

    p = cluster.sim.spawn(client(), "cli")
    kind, records, _piggy = cluster.sim.run_until(p.done)
    assert kind == "EVENTS"
    assert records == [EventRecord(1, 2, 5, 0)]


def test_event_logger_download_after_clock_filters():
    cluster, fabric, cn, el = _el_setup()

    def client():
        end = fabric.connect(cn, "el:0", hello=0)
        recs = [EventRecord(rc, src=1, sclock=rc, probes=0) for rc in (1, 2, 3)]
        yield from end.write(60, ("EVENT", 0, 0, recs))
        yield end.read()
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
        yield from end.write(20, ("EVENT", 0, 0, [rec]))
        yield end.read()
        yield from end.write(20, ("EVENT", 0, 1, [rec]))  # duplicate (replay)
        yield end.read()
        yield from end.write(20, ("EVENT", 0, 2, [EventRecord(2, 1, 2, 1)]))
        yield end.read()
        yield from end.write(12, ("PRUNE", 0, 1))
        yield from end.write(12, ("DOWNLOAD", 0, 0))
        _, reply = yield end.read()
        return reply[1]

    p = cluster.sim.spawn(client(), "cli")
    records = cluster.sim.run_until(p.done)
    assert [r.rclock for r in records] == [2]
    # duplicate not double-counted
    assert cluster.metrics.total("el.events_stored") == 2


def test_event_logger_survives_client_disconnect():
    cluster, fabric, cn, el = _el_setup()

    def client():
        end = fabric.connect(cn, "el:0", hello=0)
        yield from end.write(20, ("EVENT", 0, 0, [EventRecord(1, 1, 1, 0)]))
        yield end.read()

    p = cluster.sim.spawn(client(), "cli")
    cluster.sim.run_until(p.done)
    cn.crash()
    cluster.sim.run(until=cluster.sim.now + 1.0)
    assert max(el.events[0]) == 1  # events survive the daemon's death
