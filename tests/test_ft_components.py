"""Unit/integration tests for the fault-tolerance components."""

import pytest

from repro.core.clocks import ClockState, EventRecord
from repro.core.replay import CheckpointImage, DeliveryRecord, ReplayState
from repro.core.sender_log import LogOverflow
from repro.ft.failure import ExplicitFaults, RandomFaults
from repro.mpi.datatypes import Envelope
from repro.mpi.protocol import Packet, PacketKind
from repro.runtime.mpirun import run_job


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


# -- ReplayState unit behaviour -------------------------------------------------


def _pkt(src, sclock):
    env = Envelope(src, 9, 0, 0, 64, sclock)
    return Packet(PacketKind.SHORT, env, payload_bytes=64)


def test_replay_releases_in_event_order():
    events = [EventRecord(1, src=2, sclock=5, probes=0),
              EventRecord(2, src=1, sclock=3, probes=0)]
    rp = ReplayState(None, events)
    assert rp.offer_packet(_pkt(1, 3)) == []  # not due yet
    released = rp.offer_packet(_pkt(2, 5))
    assert [(p.env.src, p.env.sclock) for p in released] == [(2, 5), (1, 3)]
    assert not rp.replaying()


def test_replay_holds_post_crash_traffic_until_done():
    events = [EventRecord(1, src=1, sclock=1, probes=0)]
    rp = ReplayState(None, events)
    assert rp.offer_packet(_pkt(1, 9)) == []  # future message: held
    released = rp.offer_packet(_pkt(1, 1))
    assert [(p.env.src, p.env.sclock) for p in released] == [(1, 1), (1, 9)]


def test_replay_dedups_within_holdback():
    events = [EventRecord(1, src=1, sclock=2, probes=0)]
    rp = ReplayState(None, events)
    rp.offer_packet(_pkt(1, 9))
    rp.offer_packet(_pkt(1, 9))  # duplicate re-send
    released = rp.offer_packet(_pkt(1, 2))
    ids = [(p.env.src, p.env.sclock) for p in released]
    assert ids == [(1, 2), (1, 9)]


def test_replay_probe_budget_counts_down():
    events = [EventRecord(1, src=1, sclock=1, probes=3)]
    rp = ReplayState(None, events)
    assert [rp.replay_probe() for _ in range(4)] == [False, False, False, None]


def test_fast_forward_boundaries():
    img = CheckpointImage(
        rank=0, seq=1, op_count=5, clock=ClockState(),
        saved=[], delivery_log=[
            DeliveryRecord(1, 1, 1, 0, 64, 0, 0, None)
        ], app_footprint=1000,
    )
    rp = ReplayState(img, [])
    assert rp.fast_forward(0)
    assert rp.fast_forward(4)
    assert not rp.fast_forward(5)
    rec = rp.next_ff_delivery()
    assert rec.src == 1
    assert rp.next_ff_delivery() is None


def test_image_bytes_counts_footprint_and_saved():
    env = Envelope(0, 1, 0, 0, 5000, 1)
    img = CheckpointImage(
        rank=0, seq=1, op_count=1, clock=ClockState(),
        saved=[(1, 1, env)], delivery_log=[], app_footprint=100_000,
    )
    assert img.image_bytes == 100_000 + 5000 + 4096


# -- fault injectors --------------------------------------------------------------


def test_explicit_faults_record_injections():
    faults = ExplicitFaults([(0.1, 1)])
    res = run_job(ring, 3, device="v2", faults=faults)
    assert faults.injected and faults.injected[0][1] == 1
    assert res.restarts == 1


def test_random_faults_respect_count():
    faults = RandomFaults(interval=0.08, count=2, seed=5)
    res = run_job(ring, 3, device="v2", params={"rounds": 10}, faults=faults,
                  limit=3600.0)
    assert len(faults.injected) <= 2
    assert res.restarts == len(faults.injected)


def test_faults_after_completion_are_not_injected():
    faults = ExplicitFaults([(1e6, 0)])
    res = run_job(ring, 3, device="v2", faults=faults)
    assert res.restarts == 0
    assert faults.injected == []


# -- dispatcher / deployment -----------------------------------------------------


def test_spares_exhausted_falls_back_to_reboot():
    expect = run_job(ring, 3, device="v2").results
    res = run_job(
        ring, 3, device="v2", spares=1,
        faults=ExplicitFaults([(0.05, 0), (2.0, 1)]),
    )
    assert res.results == expect
    disp = res.extras["dispatcher"]
    assert disp.states[0].host.name == "spare0"  # first crash took the spare
    assert disp.states[1].host.name == "cn1"  # second rebooted in place


def test_multiple_event_loggers():
    from repro.runtime.config import DEFAULT_TESTBED

    res = run_job(ring, 4, device="v2",
                  cfg=DEFAULT_TESTBED.with_(el_servers=2))
    els = res.extras["event_loggers"]
    assert len(els) == 2
    # ranks are partitioned round-robin across loggers
    assert len(els[0].records_for(0)) > 0
    assert len(els[1].records_for(1)) > 0
    assert len(els[0].records_for(1)) == 0


def test_log_overflow_aborts_job():
    def hog(mpi):
        # two ranks exchange far beyond the 2 GB log budget
        peer = 1 - mpi.rank
        for i in range(50):
            yield from mpi.sendrecv(peer, nbytes=100 << 20, tag=i, source=peer)
        return None

    with pytest.raises(LogOverflow):
        run_job(hog, 2, device="v2", limit=1e6)


def test_checkpoint_server_keeps_latest_image():
    res = run_job(
        ring, 3, device="v2", params={"rounds": 12, "work": 0.1},
        checkpointing=True, ckpt_interval=0.15,
    )
    cs = res.extras["checkpoint_servers"][0]
    assert res.metrics.counter("cs.stores", server=cs.name).value >= 2
    img = cs.latest(0) or cs.latest(1) or cs.latest(2)
    assert img is not None
    assert img.seq == max(cs.manifests[img.rank])


def test_adaptive_scheduler_polls_status():
    res = run_job(
        ring, 3, device="v2", params={"rounds": 15, "work": 0.1},
        checkpointing=True, ckpt_policy="adaptive", ckpt_interval=0.2,
    )
    sched = res.extras["scheduler"]
    assert sched.orders_issued >= 1
    assert sched.status  # STATUS replies arrived


def _flat_broadcast(mpi, steps=60, work=0.05):
    """Rank 0 sends 256 KiB to every other rank each step: a pure sender."""
    for s in range(steps):
        if mpi.rank == 0:
            reqs = []
            for dst in range(1, mpi.size):
                req = yield from mpi.isend(dst, nbytes=256 << 10, tag=s)
                reqs.append(req)
            yield from mpi.waitall(reqs)
        else:
            req = yield from mpi.irecv(source=0, tag=s)
            yield from mpi.wait(req)
        yield from mpi.compute(seconds=work)


def _ring_exchange(mpi, steps=60, work=0.05):
    """Each rank swaps 256 KiB with both neighbours each step."""
    nxt, prv = (mpi.rank + 1) % mpi.size, (mpi.rank - 1) % mpi.size
    for s in range(steps):
        reqs = []
        for peer in (nxt, prv):
            req = yield from mpi.isend(peer, nbytes=256 << 10, tag=s)
            reqs.append(req)
        for peer in (prv, nxt):
            req = yield from mpi.irecv(source=peer, tag=s)
            reqs.append(req)
        yield from mpi.waitall(reqs)
        yield from mpi.compute(seconds=work)


def _continuous_run(program, policy):
    res = run_job(
        program, 8, device="v2", checkpointing=True, ckpt_policy=policy,
        ckpt_continuous=True, trace=True, seed=1,
    )
    recs = res.tracer.records
    orders = [r["rank"] for r in recs if r.kind == "sched.order"]
    images = [r["rank"] for r in recs if r.kind == "v2.ckpt"]
    return orders, images


def test_adaptive_checkpoints_every_receiver_of_a_flat_broadcast():
    """The first cycle ranks all-zero counters (nobody has sent yet) and
    orders every rank; from then on the pure-sending root is left out
    and each receiver is checkpointed, however the status replies queue
    behind the bulk frames on the root's NIC."""
    orders, images = _continuous_run(_flat_broadcast, "adaptive")
    assert all(r in images for r in range(1, 8)), images
    assert 0 not in orders[8:], orders


def test_adaptive_orders_a_symmetric_ring_like_round_robin():
    """Equal received/sent ratios keep rank order (a stable sort): while
    the counters it reads are equal, adaptive orders as round-robin."""
    adaptive, _ = _continuous_run(_ring_exchange, "adaptive")
    round_robin, _ = _continuous_run(_ring_exchange, "round_robin")
    assert len(adaptive) >= 8
    assert adaptive == round_robin


def test_round_robin_scheduler_orders_in_cycle():
    res = run_job(
        ring, 3, device="v2", params={"rounds": 15, "work": 0.1},
        checkpointing=True, ckpt_policy="round_robin", ckpt_interval=0.15,
    )
    assert res.checkpoints >= 2
    cs = res.extras["checkpoint_servers"][0]
    assert sum(1 for rank in range(3) if cs.latest(rank)) >= 2


def test_elapsed_and_restart_accounting_consistency():
    res = run_job(ring, 3, device="v2", faults=ExplicitFaults([(0.05, 2)]))
    disp = res.extras["dispatcher"]
    assert res.elapsed == max(s.finish_time for s in disp.states)
    assert disp.states[2].incarnation == 1
    assert disp.states[2].spawn_time > 0


def test_checkpoint_server_crash_degrades_to_restart_from_scratch():
    """Paper §4.3: "the checkpoint scheduler and the checkpoint servers may
    be unreliable. In the case where such a component fails, the computing
    nodes requiring checkpoint images will not be served by the failed
    checkpoint components and may restart from scratch, at worst."""
    from repro.runtime.config import DEFAULT_TESTBED

    cfg = DEFAULT_TESTBED.with_(reliable_aux=False)
    expect = run_job(ring, 3, device="v2", params={"rounds": 10, "work": 0.1},
                     cfg=cfg).results

    def chaos(env):
        env["sim"].after(0.35, env["cs_hosts"][0].crash)

    res = run_job(
        ring, 3, device="v2", params={"rounds": 10, "work": 0.1}, cfg=cfg,
        checkpointing=True, ckpt_interval=0.1,
        faults=ExplicitFaults([(0.5, 1)]),  # fault after the CS is gone
        on_ready=chaos, limit=600.0,
    )
    # per-process replay was impossible (image gone, logs collected):
    # the whole application restarted from scratch — and still finished
    # with the correct result
    assert res.extras["global_restarts"] >= 1
    assert res.results == expect
    disp = res.extras["dispatcher"]
    assert disp.states[1].daemon.restart_base_recv == 0


def test_global_restart_under_the_observers():
    """The §4.3 scenario above with the auditor and the trace attached:
    the auditor drops the dead history at ``ft.global_restart`` (verdict
    stays clean) and MTTR attribution closes the span the restart cut
    short."""
    from repro.obs import RecoveryAttribution
    from repro.runtime.config import DEFAULT_TESTBED

    cfg = DEFAULT_TESTBED.with_(reliable_aux=False)

    def chaos(env):
        env["sim"].after(0.35, env["cs_hosts"][0].crash)

    res = run_job(
        ring, 3, device="v2", params={"rounds": 10, "work": 0.1}, cfg=cfg,
        checkpointing=True, ckpt_interval=0.1,
        faults=ExplicitFaults([(0.5, 1)]), on_ready=chaos, limit=600.0,
        audit=True, trace=True,
    )
    assert res.extras["global_restarts"] == 1
    assert res.audit.verdict == "clean"
    spans = RecoveryAttribution.from_trace(res.tracer).spans
    assert [s.aborted_by for s in spans].count("global_restart") == 1


def test_churn_faults_kill_and_recover():
    from repro.ft.failure import ChurnFaults

    expect = run_job(ring, 4, device="v2", params={"rounds": 12, "work": 0.15}).results
    churn = ChurnFaults(mean_lifetime=1.2, seed=3, max_faults=4,
                        check_interval=0.1)
    res = run_job(
        ring, 4, device="v2", params={"rounds": 12, "work": 0.15},
        checkpointing=True, ckpt_interval=0.2,
        faults=churn, limit=3600.0,
    )
    assert res.restarts == len(churn.injected)
    assert res.restarts >= 1
    assert res.results == expect


def test_churn_respects_max_faults():
    from repro.ft.failure import ChurnFaults

    churn = ChurnFaults(mean_lifetime=0.3, seed=1, max_faults=2,
                        check_interval=0.05)
    res = run_job(
        ring, 3, device="v2", params={"rounds": 10, "work": 0.2},
        faults=churn, limit=3600.0,
    )
    assert len(churn.injected) <= 2
