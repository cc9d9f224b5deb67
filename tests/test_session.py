"""The shared session/RPC layer (repro.runtime.session).

Unit-level coverage of the mechanisms every client and service now
stands on: reconnect epochs (bump on adoption, stale-epoch and
stale-drop rejection), the typed-record framing discipline on both
sides of the wire, the deterministic backoff schedule of
:meth:`Session.connect`, the :class:`ServiceBase`
listen/accept/stop/start lifecycle (no process or connection leaks, a
stopped service refuses connects, a restarted one serves again), and
the contract of the process-less :class:`PushReader` (it must do what
the reader loop it replaces did, including how that loop died).
"""

import sys

from repro.runtime.cluster import Cluster
from repro.runtime.config import DEFAULT_TESTBED
from repro.runtime.fabric import ConnectionRefused, Fabric
from repro.runtime.retry import RetryPolicy
from repro.runtime.session import PushReader, ServiceBase, Session, framed
from repro.simnet import Host, Network, Simulator, Stream
from repro.simnet.streams import Disconnected


class EchoService(ServiceBase):
    """Echoes framed records; answers ("BAD",) with unframed garbage."""

    metric_ns = "echo"

    def _serve(self, end, hello):
        while True:
            try:
                msg = yield from self._read_record(end)
            except Disconnected:
                return
            try:
                if msg == ("BAD",):
                    yield from end.write(16, 456)  # deliberately unframed
                else:
                    yield from end.write(16, ("ECHO", msg))
            except Disconnected:
                return


def _deploy(seed=0):
    cluster = Cluster(DEFAULT_TESTBED, seed=seed)
    fabric = Fabric(cluster)
    host = cluster.add_aux("svc-host")
    svc = EchoService(
        cluster.sim, host, fabric, "echo:0", metrics=cluster.metrics
    )
    cn = cluster.add_cn("cn0")
    return cluster, fabric, svc, cn


def _session(cluster, fabric, cn, target="echo:0", **kw):
    return Session(
        cluster.sim, fabric, cn, target, metrics=cluster.metrics,
        labels={"rank": 0}, **kw,
    )


# -- framing -----------------------------------------------------------------


def test_framed_accepts_tagged_tuples_and_allowed_payloads():
    assert framed(("KIND", 1, 2))
    assert framed(("KIND",))
    assert not framed(())  # empty tuple: no tag
    assert not framed((1, "KIND"))  # tag must come first
    assert not framed("KIND")  # a bare string is not a record
    assert not framed(None)
    assert framed(3.5, payload_types=(float,))
    assert not framed(3.5, payload_types=(int,))


def test_server_rejects_unframed_records_and_keeps_serving():
    cluster, fabric, svc, cn = _deploy()
    svc.start()
    sess = _session(cluster, fabric, cn)
    got = {}

    def run():
        sess.connect_now()
        yield from sess.write(16, 123)  # unframed: skipped, counted
        yield from sess.write(16, ("PING", 1))  # still served after garbage
        got["reply"] = yield from sess.read_record()

    cluster.sim.spawn(run())
    cluster.sim.run()
    assert got["reply"] == ("ECHO", ("PING", 1))
    assert cluster.metrics.total("echo.protocol_errors") == 1


def test_client_rejects_unframed_replies_and_keeps_reading():
    cluster, fabric, svc, cn = _deploy()
    svc.start()
    sess = _session(cluster, fabric, cn)
    got = {}

    def run():
        sess.connect_now()
        yield from sess.write(16, ("BAD",))  # provokes an unframed reply
        yield from sess.write(16, ("PING", 2))
        got["reply"] = yield from sess.read_record()  # skips the garbage

    cluster.sim.spawn(run())
    cluster.sim.run()
    assert got["reply"] == ("ECHO", ("PING", 2))
    assert sess.protocol_errors == 1
    assert cluster.metrics.total("session.protocol_errors") == 1


# -- epochs ------------------------------------------------------------------


def test_epoch_bumps_on_reconnect():
    """A service crash breaks the link; the reconnect installs the new
    stream under a bumped epoch and the session reports up again."""
    cluster, fabric, svc, cn = _deploy()
    svc.start()
    sess = _session(cluster, fabric, cn)
    got = {}

    def run():
        sess.connect_now()
        got["e1"] = sess.epoch
        got["up1"] = sess.up()
        svc.stop()
        got["up_after_crash"] = sess.up()
        sess.drop()
        svc.start()
        end = yield from sess.connect()
        got["reconnected"] = end is not None
        got["e2"] = sess.epoch
        got["up2"] = sess.up()

    cluster.sim.spawn(run())
    cluster.sim.run()
    assert got["e1"] == 1 and got["up1"] is True
    assert got["up_after_crash"] is False
    assert got["reconnected"] is True
    assert got["e2"] == 2 and got["up2"] is True


def test_stale_epoch_and_stale_drop_are_rejected():
    """Loops belonging to a replaced stream must neither act (stale
    epoch) nor tear down the replacement (stale drop notification)."""
    cluster, fabric, svc, cn = _deploy()
    svc.start()
    sess = _session(cluster, fabric, cn)
    got = {}

    def run():
        end1 = sess.connect_now()
        e1 = sess.epoch
        end2 = sess.connect_now()  # replacement stream
        got["stale_old"] = sess.stale(e1)
        got["stale_new"] = sess.stale(sess.epoch)
        got["drop_old"] = sess.drop(end1)  # a replaced loop noticed a break
        got["up_after_stale_drop"] = sess.up()
        got["drop_new"] = sess.drop(end2)
        got["up_after_real_drop"] = sess.up()
        try:  # reading a dropped session is a Disconnected, as writing is
            yield from sess.read_record()
        except Disconnected as exc:
            got["read_when_down"] = exc
        yield cluster.sim.timeout(0.0)

    cluster.sim.spawn(run())
    cluster.sim.run()
    assert got["stale_old"] is True and got["stale_new"] is False
    assert got["drop_old"] is False and got["up_after_stale_drop"] is True
    assert got["drop_new"] is True and got["up_after_real_drop"] is False
    assert isinstance(got["read_when_down"], Disconnected)


# -- backoff -----------------------------------------------------------------


def _retry_schedule(seed):
    """(attempt, delay) pairs of a connect against a missing service."""
    cluster = Cluster(DEFAULT_TESTBED, seed=seed)
    fabric = Fabric(cluster)
    cn = cluster.add_cn("cn0")
    seen = []
    sess = Session(
        cluster.sim, fabric, cn, "nobody:0",
        policy=RetryPolicy.from_config(cluster.cfg, max_tries=6),
        rng=cluster.rng.stream("session-test"),
        on_retry=lambda a, d: seen.append((a, d)),
        metrics=cluster.metrics,
    )
    got = {}

    def run():
        got["end"] = yield from sess.connect()

    cluster.sim.spawn(run())
    cluster.sim.run()
    assert got["end"] is None  # budget drained; session never came up
    assert not sess.up()
    return seen


def test_backoff_schedule_is_deterministic():
    a = _retry_schedule(seed=7)
    b = _retry_schedule(seed=7)
    assert a == b  # same seed, same jittered schedule, to the bit
    assert [attempt for attempt, _ in a] == list(range(6))
    cap = DEFAULT_TESTBED.reconnect_cap * (1 + DEFAULT_TESTBED.reconnect_jitter)
    assert all(0 < d <= cap for _, d in a)
    c = _retry_schedule(seed=8)
    assert a != c  # the jitter really is seed-dependent


# -- service lifecycle -------------------------------------------------------


def test_service_stop_breaks_conns_and_refuses_connects():
    cluster, fabric, svc, cn = _deploy()
    svc.start()
    sess = _session(cluster, fabric, cn)
    got = {}

    def run():
        sess.connect_now()
        yield from sess.write(16, ("PING", 1))
        got["r1"] = yield from sess.read_record()
        svc.stop()
        got["listening"] = svc.listening
        got["conn_up"] = sess.up()
        try:
            sess.connect_now()
            got["refused"] = False
        except ConnectionRefused:
            got["refused"] = True

    cluster.sim.spawn(run())
    cluster.sim.run()
    assert got["r1"] == ("ECHO", ("PING", 1))
    assert got["listening"] is False
    assert got["conn_up"] is False and got["refused"] is True
    assert not svc._procs and not svc._conns  # nothing leaked across stop


def test_service_start_after_stop_serves_again():
    """The stop/start durability contract the supervisor relies on."""
    cluster, fabric, svc, cn = _deploy()
    svc.start()
    sess = _session(cluster, fabric, cn)
    got = {}

    def run():
        sess.connect_now()
        yield from sess.write(16, ("PING", 1))
        got["r1"] = yield from sess.read_record()
        svc.stop()
        svc.stop()  # idempotent: a second stop must not blow up
        svc.start()
        got["listening"] = svc.listening
        sess.connect_now()
        got["epoch"] = sess.epoch
        yield from sess.write(16, ("PING", 2))
        got["r2"] = yield from sess.read_record()

    cluster.sim.spawn(run())
    cluster.sim.run()
    assert got["r1"] == ("ECHO", ("PING", 1))
    assert got["listening"] is True
    assert got["epoch"] == 2  # the relaunch link is a new epoch
    assert got["r2"] == ("ECHO", ("PING", 2))


# -- heartbeat ---------------------------------------------------------------


def _absorb(sess):
    """A reader loop that only ever sees PONGs (absorbed in read_record)."""
    while True:
        end = sess.end
        if end is None:
            return
        try:
            yield from sess.read_record(end)
        except Disconnected:
            return


def test_heartbeat_pongs_record_rtt_and_stay_invisible():
    """PINGs are answered inside the service's _read_record (the server
    loop never sees them), PONGs are absorbed inside the client's
    read_record (the reader loop never sees them) — the only visible
    effect is the RTT histogram."""
    cluster, fabric, svc, cn = _deploy()
    svc.start()
    sess = _session(cluster, fabric, cn)
    sess.connect_now()
    cluster.sim.spawn(sess.heartbeat(0.1, timeout=1.0))
    cluster.sim.spawn(_absorb(sess))
    cluster.sim.run(until=2.0)
    rtt = [m for m in cluster.metrics if m.name == "session.rtt_s"]
    assert len(rtt) == 1 and rtt[0].count >= 15
    assert rtt[0].min > 0  # a simulated round trip takes simulated time
    assert sess.last_pong > 1.5
    assert not sess.hb_suspect
    assert cluster.metrics.total("session.hb_timeouts") == 0
    # the 4-tuple PINGs never reached the echo loop as records
    assert cluster.metrics.total("echo.protocol_errors") == 0


def test_heartbeat_times_out_under_partition_and_recovers():
    """A PartitionWindow keeps the socket up but stops the PONGs: the
    session must turn hb_suspect past the timeout, and the first PONG
    after the heal must clear it."""
    cluster, fabric, svc, cn = _deploy()
    svc.start()
    sess = _session(cluster, fabric, cn)
    sess.connect_now()
    cluster.sim.spawn(sess.heartbeat(0.1, timeout=0.5))
    cluster.sim.spawn(_absorb(sess))
    got = {}

    def chaos():
        yield cluster.sim.timeout(1.0)
        cluster.net.partition([cn], [svc.host], 2.0)
        yield cluster.sim.timeout(1.5)
        got["suspect_mid"] = sess.hb_suspect  # t=2.5: inside the cut

    cluster.sim.spawn(chaos())
    cluster.sim.run(until=6.0)
    assert got["suspect_mid"] is True
    assert cluster.metrics.total("session.hb_timeouts") >= 1
    assert not sess.hb_suspect  # healed: the deferred PONGs cleared it
    assert sess.up()  # the socket never broke — that is the point


# -- backpressure ------------------------------------------------------------


def test_backpressure_metrics_surface_stalled_writes():
    """Writes bigger than the peer's window stall on credit; the session
    folds the stall time/count and the receive backlog into the
    ``session.*`` family."""
    cluster, fabric, svc, cn = _deploy()
    got = {}
    svc.start()
    sess = _session(cluster, fabric, cn)

    def run():
        sess.connect_now()
        for i in range(4):
            # 100 KB > the 64 KiB stream window: every write after the
            # first waits for the server to drain the previous one
            yield from sess.write(100_000, ("BULK", i))
        got["reply"] = yield from sess.read_record()

    cluster.sim.spawn(run())
    cluster.sim.run()
    assert got["reply"] == ("ECHO", ("BULK", 0))
    assert cluster.metrics.total("session.stalled_writes") >= 2
    assert cluster.metrics.total("session.stalled_write_s") > 0
    depth = [m for m in cluster.metrics if m.name == "session.queue_depth"]
    assert len(depth) == 1 and depth[0].peak >= 1  # echoes queued unread


# -- push readers ------------------------------------------------------------


def _link(window=64 * 1024):
    """A raw stream a -> b and a session on b that has adopted its end."""
    sim = Simulator()
    net = Network(sim)
    a = net.add_host(Host(sim, "a"))
    b = net.add_host(Host(sim, "b"))
    stream = Stream(net, a, b, window=window)
    sess = Session(sim, None, b, "a")
    sess.adopt(stream.b)
    return sim, stream, sess


def _reader(sess, **kw):
    """A PushReader logging its records and counting its breaks."""
    seen = {"records": [], "breaks": 0}

    def on_break():
        seen["breaks"] += 1

    reader = PushReader(sess, seen["records"].append, on_break,
                        host=sess.host, name="r", **kw)
    return reader, seen


def test_push_reader_drains_a_long_backlog_in_order_iteratively():
    """Segments queued before the start drain as a loop, not a recursion
    (the reason ``Process._step_inner`` continues inline on ready
    futures): far more of them than the interpreter has stack frames."""
    sim, stream, sess = _link()
    n = 20_000
    assert n > 10 * sys.getrecursionlimit()
    for i in range(n):
        assert stream.a.write_nowait(1, ("R", i))
    stream.a.write_nowait(1, None)  # an in-flight segment: skipped
    sim.run()
    assert stream.b.rx_depth == n + 1  # nobody reads yet
    reader, seen = _reader(sess, epoch=sess.epoch)
    sim.run()
    assert seen["records"] == [("R", i) for i in range(n)]
    assert stream.b.rx_depth == 0 and stream.b.consumer is reader
    assert stream.b.bytes_read == n + 1
    # drained, then pushed to: the next segment is read at its arrival
    stream.a.write_nowait(1, ("R", n))
    sim.run()
    assert seen["records"][-1] == ("R", n)
    assert seen["breaks"] == 0


def test_push_reader_of_a_crashed_incarnation_ignores_everything():
    """After its host's crash the loop was dead: its reader neither
    reads a segment nor reports the break, and one created before the
    crash never starts."""
    sim, stream, sess = _link()
    reader, seen = _reader(sess)
    stream.a.write_nowait(8, ("R", 0))
    sim.run()
    assert seen["records"] == [("R", 0)]
    late, late_seen = _reader(sess)  # started after the crash below
    stream.b.host.crash()  # kills, then breaks the stream
    sim.run()
    assert seen["breaks"] == 0
    reader(("R", 1), None)  # a segment reaching it anyway
    reader(None, Disconnected("s", "again"))
    assert seen == {"records": [("R", 0)], "breaks": 0}
    assert late_seen == {"records": [], "breaks": 0}


def test_push_reader_reports_a_live_break_exactly_once():
    sim, stream, sess = _link()
    reader, seen = _reader(sess, epoch=sess.epoch)
    sim.run()
    stream.break_both("link flap")
    stream.break_both("link flap")  # a dead stream breaks once
    sim.run()
    assert seen["breaks"] == 1 and stream.b.consumer is None
    stream.b.host.crash()
    assert seen["breaks"] == 1
    # a break that happened before the start is found by its first read
    sim2, stream2, sess2 = _link()
    stream2.break_both("gone")
    _, seen2 = _reader(sess2, end=stream2.b)
    sim2.run()
    assert seen2["breaks"] == 1


def test_push_reader_of_a_replaced_link_stops_after_one_record():
    """The loop checked its epoch only between records: parked on the
    old stream when the link was replaced, it read one more record,
    then exited, leaving everything later queued and any break unseen."""
    sim, stream, sess = _link()
    reader, seen = _reader(sess, epoch=sess.epoch)
    sim.run()
    other = Stream(stream.net, stream.a.host, stream.b.host)
    sess.adopt(other.b)  # the replacement: the old epoch is stale
    for i in range(3):
        stream.a.write_nowait(8, ("R", i))
    sim.run()
    assert seen["records"] == [("R", 0)]
    assert stream.b.consumer is None and stream.b.rx_depth == 2
    stream.break_both("late")
    assert seen["breaks"] == 0
    # started under an epoch already stale: it never reads at all
    _, seen2 = _reader(sess, epoch=sess.epoch - 1)
    other.a.write_nowait(8, ("R", 9))
    sim.run()
    assert seen2["records"] == [] and other.b.rx_depth == 1
