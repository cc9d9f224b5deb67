"""Volatile infrastructure: partitions, degradation, link flaps, and
crash/restart of the event logger and checkpoint server.

The paper assumes a reliable network and reliable auxiliary nodes; these
tests cover the runtime's behaviour when neither holds: the WAITLOGGED
gate must hold through an event-logger outage, re-pushed events must not
double-store, an interrupted checkpoint push must leave the previous
image intact, and every recovery path must retry with deterministic
backoff.
"""

import pytest

from repro.core.clocks import ClockState, EventRecord
from repro.core.event_logger import EventLoggerServer
from repro.core.replay import CheckpointImage
from repro.devices.base import segment_sizes
from repro.ft import (
    ChurnFaults,
    ExplicitFaults,
    LinkFlapFaults,
    PartitionFaults,
    ServiceFaults,
    ServiceSupervisor,
)
from repro.runtime.cluster import Cluster
from repro.runtime.config import DEFAULT_TESTBED
from repro.runtime.fabric import ConnectionRefused, Fabric
from repro.runtime.mpirun import run_job
from repro.runtime.retry import RetryPolicy
from repro.simnet import Host, LinkConfig, Network, Simulator, Tracer
from repro.simnet.kernel import EV_CALL
from repro.simnet.rng import RngRegistry
from repro.simnet.streams import Disconnected
from repro.store import StoreReplica, assemble_image, chunk_image

#: an arrival event that does nothing: ``transfer``'s flat ``slot, a, b``
NOOP = (EV_CALL, lambda: None, None)


def ring(mpi, rounds=6, work=0.05):
    nxt, prv = (mpi.rank + 1) % mpi.size, (mpi.rank - 1) % mpi.size
    token = mpi.rank
    for r in range(rounds):
        sreq = yield from mpi.isend(nxt, nbytes=256, tag=r, data=token)
        rreq = yield from mpi.irecv(source=prv, tag=r)
        yield from mpi.waitall([sreq, rreq])
        token = rreq.message.data + 1
        yield from mpi.compute(seconds=work)
    return token


# -- network-level fault primitives -----------------------------------------


def make_net():
    sim = Simulator()
    net = Network(sim, LinkConfig(), Tracer(enabled=False))
    a = net.add_host(Host(sim, "a"))
    b = net.add_host(Host(sim, "b"))
    return sim, net, a, b


def test_partition_defers_segments_until_heal():
    sim, net, a, b = make_net()
    net.partition([a], [b], duration=2.0)
    arrivals = []
    net.transfer(a, b, 1000, EV_CALL, lambda: arrivals.append(sim.now), None)
    sim.run()
    assert net.segments_deferred == 1
    assert len(arrivals) == 1
    # released at heal time, then the normal transfer cost applies
    assert arrivals[0] == pytest.approx(2.0 + net.one_way_time(1000))


def test_partition_is_directionless_and_heals():
    sim, net, a, b = make_net()
    win = net.partition([a], [b], duration=1.0)
    assert win.separates("a", "b") and win.separates("b", "a")
    assert net.partitioned(a, b) and net.partitioned(b, a)
    sim.run()
    assert not net.partitioned(a, b)
    # traffic after heal moves normally
    t = net.transfer(a, b, 100, *NOOP)
    assert t == pytest.approx(sim.now + net.one_way_time(100))


def test_loopback_ignores_partitions():
    sim, net, a, b = make_net()
    net.partition([a], [b], duration=5.0)
    arrivals = []
    net.transfer(a, a, 100, EV_CALL, lambda: arrivals.append(sim.now), None)
    sim.run(until=1.0)
    assert len(arrivals) == 1  # same-host traffic never crosses the cut


def test_overlapping_partitions_compose():
    sim, net, a, b = make_net()
    net.partition([a], [b], duration=1.0)
    net.partition([a], [b], duration=3.0)
    arrivals = []
    net.transfer(a, b, 100, EV_CALL, lambda: arrivals.append(sim.now), None)
    sim.run()
    # the first heal re-queues the segment into the second window
    assert arrivals[0] >= 3.0
    assert net.segments_deferred == 2


def test_connect_refused_across_partition_then_ok():
    cluster = Cluster(DEFAULT_TESTBED, seed=0)
    fabric = Fabric(cluster)
    svc = cluster.add_aux("svc")
    cn = cluster.add_cn("cn0")
    fabric.listen("x", svc)
    cluster.net.partition([cn], [svc], duration=1.0)
    with pytest.raises(ConnectionRefused):
        fabric.connect(cn, "x")
    cluster.sim.run()
    assert fabric.connect(cn, "x") is not None


def test_break_links_raises_disconnected_with_hosts_up():
    cluster = Cluster(DEFAULT_TESTBED, seed=0)
    sim = cluster.sim
    a = cluster.add_cn("a")
    b = cluster.add_cn("b")
    stream = cluster.connect(a, b)
    seen = []

    def reader():
        try:
            yield stream.end_for(b).read()
        except Disconnected as exc:
            seen.append(exc)

    sim.spawn(reader())
    sim.after(0.1, lambda: cluster.net.break_links(a, b))
    sim.run(until=1.0)
    assert len(seen) == 1
    assert not a.failed and not b.failed
    assert cluster.net.links_broken == 1


def test_retry_policy_is_deterministic_per_stream():
    policy = RetryPolicy(base=0.05, factor=2.0, cap=2.0, jitter=0.25)
    d1 = [policy.delay(i, RngRegistry(7).stream("x")) for i in range(8)]
    d2 = [policy.delay(i, RngRegistry(7).stream("x")) for i in range(8)]
    assert d1 == d2
    # capped, and jitter stays within the advertised band
    for i, d in enumerate(d1):
        nominal = min(2.0, 0.05 * 2.0**i)
        assert 0.75 * nominal <= d <= 1.25 * nominal


def test_retry_policy_from_config_tracks_knobs():
    cfg = DEFAULT_TESTBED.with_(reconnect_base=0.1, reconnect_cap=0.4,
                                reconnect_jitter=0.0)
    policy = RetryPolicy.from_config(cfg, max_tries=3)
    assert policy.max_tries == 3
    assert [policy.delay(i) for i in range(4)] == [0.1, 0.2, 0.4, 0.4]


# -- event-logger outage ------------------------------------------------------


def _logger(cluster, fabric, host, name="el:0", peer_names=()):
    """A shard-0 event-logger replica on the cluster's tracer and registry."""
    return EventLoggerServer(
        cluster.sim, host, fabric, cluster.cfg, name, cluster.tracer,
        cluster.metrics, 0, peer_names,
    )


def test_event_logger_stop_start_keeps_durable_events():
    cluster = Cluster(DEFAULT_TESTBED, seed=0)
    sim = cluster.sim
    fabric = Fabric(cluster)
    svc = cluster.add_aux("svc")
    cn = cluster.add_cn("cn0")
    el = _logger(cluster, fabric, svc)
    el.start()
    got = {}

    def client():
        end = fabric.connect(cn, "el:0", hello=("DAEMON", 0, 0))
        recs = [EventRecord(i, src=1, sclock=i, probes=0) for i in (1, 2, 3)]
        yield from end.write(60, ("EVENT", 0, 0, recs))
        _, ack = yield end.read()
        got["ack"] = ack
        # crash the service; this connection dies with it
        el.stop()
        with pytest.raises(Disconnected):
            yield from end.write(60, ("EVENT", 0, 1, recs))
        el.start()
        end = fabric.connect(cn, "el:0", hello=("DAEMON", 0, 1))
        yield from end.write(16, ("DOWNLOAD", 0, 0))
        _, (tag, events, _piggy) = yield end.read()
        got["events"] = events

    sim.spawn(client())
    sim.run()
    assert got["ack"] == ("ACK", 0, 3)
    assert [e.rclock for e in got["events"]] == [1, 2, 3]


def test_event_logger_repush_is_idempotent():
    cluster = Cluster(DEFAULT_TESTBED, seed=0)
    sim = cluster.sim
    fabric = Fabric(cluster)
    svc = cluster.add_aux("svc")
    cn = cluster.add_cn("cn0")
    el = _logger(cluster, fabric, svc)
    el.start()

    def client():
        end = fabric.connect(cn, "el:0", hello=("DAEMON", 0, 0))
        recs = [EventRecord(i, src=1, sclock=i, probes=0) for i in (1, 2)]
        for bid in range(3):  # the same batch, re-pushed after "reconnects"
            yield from end.write(40, ("EVENT", 0, bid, recs))
            yield end.read()

    sim.spawn(client())
    sim.run()
    stored = cluster.metrics.total("el.events_stored")
    dups = cluster.metrics.total("el.dup_events")
    assert stored == 2
    assert dups == 4
    assert stored + dups == 6  # every record received, stored or not
    assert {r: max(evs) for r, evs in el.events.items()} == {0: 2}
    assert sum(len(v) for v in el.events.values()) == 2


def test_el_outage_gate_holds_and_no_double_store():
    """Crash the event logger mid-run: the job must finish with correct
    results, and reconnect re-pushes must not double-store any event."""
    expect = run_job(ring, 3, device="v2",
                     params={"rounds": 20, "work": 0.05}).results
    res = run_job(
        ring, 3, device="v2", params={"rounds": 20, "work": 0.05},
        faults=[ServiceFaults([(0.3, "el:0", 0.8)])],
        limit=600.0, audit=True,
    )
    assert res.results == expect
    assert res.audit.clean
    assert res.restarts == 0
    el = res.extras["event_loggers"][0]
    assert res.metrics.total("svc.crashes") == 1
    assert res.metrics.total("svc.restarts") == 1
    # no rank restarts and no pruning: every stored event is fresh exactly
    # once, so the store matches the per-rank high-water marks
    stored = res.metrics.counter(
        "el.events_stored", server=el.name, shard=el.shard
    ).value
    assert stored == sum(len(v) for v in el.events.values())
    assert stored == sum(max(v) for v in el.events.values() if v)
    assert res.metrics.total("outage.retries") > 0
    assert res.metrics.total("outage.reconnects") >= 3  # every daemon
    assert res.metrics.total("outage.el_down_s") > 0


def test_el_outage_while_job_idle_is_harmless():
    """An EL crash during a compute-only stretch stalls nothing."""
    res = run_job(
        ring, 2, device="v2", params={"rounds": 2, "work": 0.6},
        faults=[ServiceFaults([(0.5, "el:0", 0.5)])],
        limit=600.0,
    )
    assert res.results == [2, 3]


# -- checkpoint-server outage -------------------------------------------------


def _image(rank, seq, footprint=200_000):
    return CheckpointImage(rank=rank, seq=seq, op_count=seq, clock=ClockState(),
                           saved=[], delivery_log=[], app_footprint=footprint)


def test_ckpt_server_mid_push_crash_keeps_previous_image():
    """The docstring's claim, under a *service* crash: a manifest commits
    only when every chunk it references arrived, so a push interrupted by
    the crash leaves the previous image intact."""
    cluster = Cluster(DEFAULT_TESTBED, seed=0)
    sim = cluster.sim
    fabric = Fabric(cluster)
    svc = cluster.add_aux("svc")
    cn = cluster.add_cn("cn0")
    cs = StoreReplica(
        sim, svc, fabric, cluster.cfg, "cs:0", cluster.tracer, cluster.metrics
    )
    cs.start()
    cfg = cluster.cfg
    got = {}

    def push(end, image):
        manifest, chunks = chunk_image(image, cfg.ckpt_chunk_bytes)
        for digest in manifest.digests:
            chunk = chunks[digest]
            sizes = segment_sizes(max(1, chunk.nbytes), cfg.chunk_bytes)
            for nbytes in sizes[:-1]:
                yield from end.write(nbytes, None)
            yield from end.write(sizes[-1], ("CHUNK", chunk))
        yield from end.write(manifest.wire_bytes, ("COMMIT", manifest))
        yield end.read()  # STORED

    def read_record(end):
        while True:
            _, msg = yield end.read()
            if msg is not None:
                return msg

    def client():
        end = fabric.connect(cn, "cs:0")
        yield from push(end, _image(0, seq=1))
        # second push: crash the server after the first few chunks
        sim.after(0.005, cs.stop)
        with pytest.raises(Disconnected):
            yield from push(end, _image(0, seq=2))
        cs.start()
        end = fabric.connect(cn, "cs:0")
        yield from end.write(16, ("FETCH", 0, 0, ()))
        _, manifest = yield from read_record(end)
        have = {}
        while set(manifest.digests) - set(have):
            _, chunk = yield from read_record(end)
            have[chunk.digest] = chunk
        got["fetched"] = assemble_image(manifest, have)
        # a clean retry of the interrupted push now supersedes it
        yield from push(end, _image(0, seq=2))
        got["final"] = cs.latest(0).seq

    sim.spawn(client())
    sim.run()
    assert got["fetched"].seq == 1  # previous image intact after the crash
    assert got["final"] == 2


def test_ckpt_push_aborts_cleanly_and_is_retried():
    """A CS outage mid-run: the interrupted push aborts (previous image
    intact), the scheduler re-orders it, and the retry completes."""
    from repro.workloads import nas

    mod = nas.KERNELS["cg"]
    res = run_job(
        mod.program, 4, device="v2", params={"klass": "S"}, seed=1,
        checkpointing=True, ckpt_policy="round_robin", ckpt_continuous=True,
        faults=[ServiceFaults([(0.25, "cs:0", 0.5)])],
        limit=1e8,
    )
    sched = res.extras["scheduler"]
    assert res.metrics.total("ckpt.aborted") >= 1
    assert sched.ckpt_retries >= 1
    assert res.checkpoints >= 1  # the retried push landed
    cs = res.extras["checkpoint_servers"][0]
    assert any(cs.latest(rank) for rank in range(4))  # durable store intact


def test_cs_replica_crash_mid_restart_fails_over():
    """The store acceptance scenario: 3 replicated checkpoint servers
    with write quorum 2; one replica is down exactly when a killed rank
    restarts.  The fetch fails over to a surviving replica, recovery
    completes with correct results, and the audit is clean."""
    expect = run_job(ring, 4, device="v2",
                     params={"rounds": 20, "work": 0.1}).results
    cfg = DEFAULT_TESTBED.with_(ckpt_servers=3, ckpt_replicas=2)
    res = run_job(
        ring, 4, device="v2", cfg=cfg, params={"rounds": 20, "work": 0.1},
        checkpointing=True, ckpt_interval=0.1, ckpt_continuous=True,
        faults=[
            ExplicitFaults([(1.0, 2)]),
            # down through the whole detect+respawn+fetch window
            ServiceFaults([(0.9, "cs:0", 3.0)]),
        ],
        limit=600.0, audit=True,
    )
    assert res.results == expect
    assert res.audit.clean
    assert res.restarts >= 1
    assert res.checkpoints >= 1
    # the restart was served by a failover target, not the dead replica
    assert res.metrics.total("store.failover") >= 1
    assert res.metrics.total("store.fetch_bytes") > 0
    assert len(res.extras["checkpoint_servers"]) == 3


# -- composed plans and determinism -------------------------------------------


def test_partition_faults_ride_out_the_cut():
    expect = run_job(ring, 4, device="v2",
                     params={"rounds": 20, "work": 0.05}).results
    res = run_job(
        ring, 4, device="v2", params={"rounds": 20, "work": 0.05},
        faults=[PartitionFaults([(0.4, (0,), 0.8)])],
        limit=600.0, audit=True,
    )
    assert res.results == expect
    assert res.audit.clean
    assert res.restarts == 0  # nobody died: the cut only delays traffic
    assert res.metrics.total("net.partitions") == 1
    assert res.metrics.total("net.deferred_segments") > 0


def test_heartbeat_suspects_partitioned_rank_then_clears():
    """A partition longer than hb_timeout must flag the quiet rank as
    suspect on both sides — the daemon's session turns hb_suspect
    (session.hb_timeouts) and the dispatcher's monitor counts it
    (disp.suspected) — and the first heartbeat after the heal clears
    the suspicion; the socket detector never fires (no restarts)."""
    expect = run_job(ring, 4, device="v2",
                     params={"rounds": 20, "work": 0.05}).results
    res = run_job(
        ring, 4, device="v2", params={"rounds": 20, "work": 0.05},
        faults=[PartitionFaults([(0.4, (0,), 2.0)])],
        limit=600.0,
    )
    assert res.results == expect
    assert res.restarts == 0
    assert res.stat("disp.suspected") >= 1
    assert res.stat("session.hb_timeouts") >= 1
    disp = res.extras["dispatcher"]
    assert not disp.suspects  # healed: the resumed PINGs cleared it
    assert 0 in disp.last_hb  # the partitioned rank reported back in


def test_link_flaps_resync_without_restarts():
    expect = run_job(ring, 4, device="v2",
                     params={"rounds": 24, "work": 0.05}).results
    flaps = LinkFlapFaults(interval=0.4, count=2, seed=5)
    res = run_job(
        ring, 4, device="v2", params={"rounds": 24, "work": 0.05},
        faults=[flaps], limit=600.0, audit=True,
    )
    assert res.results == expect
    assert res.audit.clean
    assert res.restarts == 0
    assert len(flaps.injected) == 2
    assert res.metrics.total("net.links_broken") >= 2
    assert res.metrics.total("outage.reconnects") >= 1


def test_churn_same_seed_is_deterministic():
    def once():
        churn = ChurnFaults(mean_lifetime=1.2, seed=3, max_faults=3,
                            check_interval=0.1)
        res = run_job(
            ring, 4, device="v2", params={"rounds": 12, "work": 0.15},
            checkpointing=True, ckpt_interval=0.2,
            faults=churn, limit=3600.0,
        )
        return churn.injected, res.results, res.elapsed

    inj1, results1, t1 = once()
    inj2, results2, t2 = once()
    assert inj1 == inj2
    assert results1 == results2
    assert t1 == t2


def test_combined_plan_acceptance_cg():
    """The issue's acceptance scenario: CG-A-4 with two rank kills, one
    event-logger crash/restart and one 5-second partition — completes
    with correct results and a clean audit."""
    from repro.workloads import nas

    mod = nas.KERNELS["cg"]
    base = run_job(mod.program, 4, device="v2", params={"klass": "A"},
                   seed=1, limit=1e9)
    res = run_job(
        mod.program, 4, device="v2", params={"klass": "A"}, seed=1,
        checkpointing=True, ckpt_policy="random", ckpt_continuous=True,
        faults=[
            ExplicitFaults([(1.2, 1), (2.5, 3)]),
            ServiceFaults([(0.8, "el:0", 1.0)]),
            PartitionFaults([(1.8, (0, 2), 5.0)]),
        ],
        limit=1e9, audit=True,
    )
    assert res.results == base.results
    assert res.audit.clean
    assert res.restarts == 2
    assert res.metrics.total("svc.restarts") == 1
    assert res.metrics.total("net.partitions") == 1
    assert res.metrics.total("outage.retries") > 0
    assert res.metrics.total("outage.backoff_s") > 0
    injected = res.extras["faults"].injected
    assert len(injected) == 4  # 2 kills + 1 service crash + 1 partition


def test_service_faults_skip_unknown_services():
    plan = ServiceFaults([(0.2, "nope:9", 0.5)])
    res = run_job(
        ring, 2, device="v2", params={"rounds": 4, "work": 0.05},
        faults=[plan], limit=600.0,
    )
    assert res.results == [4, 5]
    assert plan.injected == []


# -- event-logger replication -------------------------------------------------


def test_el_replica_kill_quorum_rides_through():
    """Kill one of three replicas mid-run: the quorum (2 of 3) keeps the
    WAITLOGGED gate moving, the relaunch resyncs from its peers, and the
    job finishes with correct results, a clean audit and no restarts."""
    cfg = DEFAULT_TESTBED.with_(el_replicas=3)
    expect = run_job(ring, 3, device="v2", cfg=cfg,
                     params={"rounds": 30, "work": 0.05}).results
    res = run_job(
        ring, 3, device="v2", cfg=cfg, params={"rounds": 30, "work": 0.05},
        faults=[ServiceFaults([(0.3, "el:0.1", 0.4)])],
        limit=600.0, audit=True,
    )
    assert res.results == expect
    assert res.audit.clean
    assert res.audit.checks["el-quorum"] > 0
    assert res.restarts == 0  # no rank ever restarted for an EL fault
    assert res.metrics.total("svc.crashes") == 1
    assert res.metrics.total("svc.restarts") == 1
    assert res.metrics.total("el.failovers") >= 1
    assert res.metrics.total("el.resyncs") == 1
    assert res.metrics.total("el.events_resynced") > 0


def test_el_back_to_back_crashes_no_double_delivery():
    """A second crash landing while clients are still re-pushing events
    unacked from the first: the (rank, rclock) dedup must keep every
    replica's store exact, and no gate may clear below quorum."""
    cfg = DEFAULT_TESTBED.with_(el_replicas=3)
    expect = run_job(ring, 3, device="v2", cfg=cfg,
                     params={"rounds": 30, "work": 0.05}).results
    res = run_job(
        ring, 3, device="v2", cfg=cfg, params={"rounds": 30, "work": 0.05},
        faults=[ServiceFaults([(0.3, "el:0", 0.3), (0.7, "el:0", 0.3)])],
        limit=600.0, audit=True,
    )
    assert res.results == expect
    assert res.audit.clean  # el-quorum: no early WAITLOGGED clears
    assert res.restarts == 0
    assert res.metrics.total("svc.crashes") == 2
    assert res.metrics.total("svc.restarts") == 2
    # the second relaunch may still be resyncing when the job completes
    assert res.metrics.total("el.resyncs") >= 1
    # per-replica store exactness: every rank's events form the contiguous
    # prefix 1..hw — a double-delivered re-push would inflate dup counts,
    # a lost one would leave a hole below the high-water mark (with
    # nothing pruned, the highest rclock stored)
    for el in res.extras["event_loggers"]:
        for rank, evs in el.events.items():
            hw = max(evs, default=0)
            assert sorted(evs) == list(range(1, hw + 1))


def test_el_replica_resync_pulls_missing_events():
    """A restarted replica whose in-memory store died refills from a live
    peer before serving: DOWNLOADs against it see the full log."""
    cluster = Cluster(DEFAULT_TESTBED, seed=0)
    sim = cluster.sim
    fabric = Fabric(cluster)
    host_a = cluster.add_aux("ela")
    host_b = cluster.add_aux("elb")
    cn = cluster.add_cn("cn0")
    el_a = _logger(cluster, fabric, host_a, "el:0", ("el:0.1",))
    el_b = _logger(cluster, fabric, host_b, "el:0.1", ("el:0",))
    el_a.start()
    el_b.start()
    got = {}

    def recs(lo, hi):
        return [EventRecord(i, src=1, sclock=i, probes=0)
                for i in range(lo, hi + 1)]

    def client():
        ends = {}
        for name in ("el:0", "el:0.1"):
            ends[name] = fabric.connect(cn, name, hello=("DAEMON", 0, 0))
        for name in ("el:0", "el:0.1"):
            yield from ends[name].write(60, ("EVENT", 0, 0, recs(1, 3)))
            yield ends[name].read()
        # replica b crashes (store lost) while 4..6 land on a only
        el_b.stop()
        yield from ends["el:0"].write(60, ("EVENT", 0, 1, recs(4, 6)))
        yield ends["el:0"].read()
        el_b.start()  # relaunch resyncs from el:0
        end = fabric.connect(cn, "el:0.1", hello=("DAEMON", 0, 1))
        yield from end.write(16, ("DOWNLOAD", 0, 0))
        _, (tag, events, _piggy) = yield end.read()
        got["events"] = events

    sim.spawn(client())
    sim.run()
    assert [e.rclock for e in got["events"]] == [1, 2, 3, 4, 5, 6]
    assert sorted(el_b.events[0]) == [1, 2, 3, 4, 5, 6]


# -- V1 channel-memory supervision ---------------------------------------------


def test_v1_supervised_cm_crash_replays_through():
    """A supervised Channel Memory crash/relaunch: clients reconnect with
    backoff, re-push their store history (msgid-deduped) and rewind the
    serve cursor — the job finishes with faultless results and no rank
    restarts."""
    expect = run_job(ring, 4, device="v1",
                     params={"rounds": 16, "work": 0.05}).results
    res = run_job(
        ring, 4, device="v1", params={"rounds": 16, "work": 0.05},
        faults=[ServiceFaults([(0.25, "cm:0", 0.8)])],
        limit=600.0,
    )
    assert res.results == expect
    assert res.restarts == 0
    assert res.metrics.total("svc.crashes") == 1
    assert res.metrics.total("svc.restarts") == 1
    assert res.metrics.total("v1.cm_reconnects") >= 1
    # the CM's durable msgid dedup absorbed the history re-push: serve
    # cursors never ran past what the durable log holds
    cm = res.extras["channel_memories"][0]
    for rank, cur in cm.cursor.items():
        assert cur <= len(cm.log.get(rank, ()))


def test_supervisor_ignores_replaced_or_dead_services():
    cluster = Cluster(DEFAULT_TESTBED, seed=0)
    fabric = Fabric(cluster)
    svc_host = cluster.add_aux("svc")
    el = _logger(cluster, fabric, svc_host)
    el.start()
    sup = ServiceSupervisor(
        cluster.sim, cluster.cfg, cluster.tracer, cluster.metrics
    )
    sup.register(el.name, el)
    sup.crash(el.name, downtime=0.2)
    # replace the registration while the crashed instance is down
    el2 = _logger(cluster, fabric, svc_host)
    sup.register(el.name, el2)
    cluster.sim.run()
    assert cluster.metrics.total("svc.crashes") == 1
    # the stale relaunch was discarded
    assert cluster.metrics.total("svc.restarts") == 0
