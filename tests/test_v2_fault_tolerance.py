"""Fault-tolerance tests: crashes, restarts, replay, checkpoints.

The paper's correctness property (Theorems 1-2): after any number of
faults, the execution is equivalent to a fault-free execution.  Every
test here asserts *numerically identical results* to the fault-free run.
"""


from repro.ft.failure import ExplicitFaults, RandomFaults
from repro.runtime.mpirun import run_job


def ring_prog(mpi, rounds=8, nbytes=2000, work=0.02):
    """A token ring: each rank adds its rank to the token every round."""
    nxt = (mpi.rank + 1) % mpi.size
    prv = (mpi.rank - 1) % mpi.size
    token = [0]
    for _ in range(rounds):
        if mpi.rank == 0:
            yield from mpi.send(nxt, nbytes=nbytes, tag=0, data=list(token))
            msg = yield from mpi.recv(source=prv, tag=0)
            token = [msg.data[0] + 1] + msg.data[1:]
        else:
            msg = yield from mpi.recv(source=prv, tag=0)
            token = msg.data + [mpi.rank]
            yield from mpi.send(nxt, nbytes=nbytes, tag=0, data=token)
        yield from mpi.compute(seconds=work)
    return token


def stencil_prog(mpi, iters=6):
    """Nearest-neighbour exchange + allreduce: a mini 1-D stencil."""
    left = (mpi.rank - 1) % mpi.size
    right = (mpi.rank + 1) % mpi.size
    value = float(mpi.rank + 1)
    for it in range(iters):
        sreqs = []
        r = yield from mpi.isend(right, nbytes=800, tag=10 + it, data=value)
        sreqs.append(r)
        r = yield from mpi.isend(left, nbytes=800, tag=20 + it, data=value)
        sreqs.append(r)
        rr = yield from mpi.irecv(source=left, tag=10 + it)
        rl = yield from mpi.irecv(source=right, tag=20 + it)
        yield from mpi.waitall(sreqs + [rr, rl])
        value = 0.5 * value + 0.25 * (rr.message.data + rl.message.data)
        yield from mpi.compute(seconds=0.01)
        total = yield from mpi.allreduce(value=value, nbytes=8)
        value += 1e-3 * total
    return round(value, 9)


def baseline(prog, n, **params):
    return run_job(prog, n, device="v2", params=params).results


def test_single_fault_restart_from_scratch():
    expect = baseline(ring_prog, 4)
    res = run_job(
        ring_prog,
        4,
        device="v2",
        faults=ExplicitFaults([(0.1, 2)]),
    )
    assert res.restarts == 1
    assert res.results == expect


def test_fault_on_rank_zero():
    expect = baseline(ring_prog, 4)
    res = run_job(ring_prog, 4, device="v2", faults=ExplicitFaults([(0.15, 0)]))
    assert res.restarts == 1
    assert res.results == expect


def test_two_concurrent_faults():
    expect = baseline(ring_prog, 5)
    res = run_job(
        ring_prog,
        5,
        device="v2",
        faults=ExplicitFaults([(0.1, 1), (0.1, 3)]),
    )
    assert res.restarts == 2
    assert res.results == expect


def test_cascading_fault_during_reexecution():
    expect = baseline(ring_prog, 4)
    # second fault lands while rank 1 is still replaying (restart takes
    # ~1.25 s of detect+spawn delay, so 1.5 s is mid-recovery)
    res = run_job(
        ring_prog,
        4,
        device="v2",
        faults=ExplicitFaults([(0.1, 1), (1.5, 2)]),
    )
    assert res.restarts == 2
    assert res.results == expect


def test_repeated_faults_same_rank():
    expect = baseline(ring_prog, 3, rounds=10, work=0.3)
    res = run_job(
        ring_prog,
        3,
        device="v2",
        params={"rounds": 10, "work": 0.3},
        faults=ExplicitFaults([(0.1, 1), (2.0, 1), (4.0, 1)]),
    )
    assert res.restarts == 3
    assert res.results == expect


def test_fault_with_nonblocking_pattern():
    expect = baseline(stencil_prog, 4)
    res = run_job(
        stencil_prog,
        4,
        device="v2",
        faults=ExplicitFaults([(0.05, 2)]),
    )
    assert res.restarts == 1
    assert res.results == expect


def test_random_faults_many():
    expect = baseline(ring_prog, 4, rounds=10, work=0.25)
    res = run_job(
        ring_prog,
        4,
        device="v2",
        params={"rounds": 10, "work": 0.25},
        faults=RandomFaults(interval=0.8, count=4, seed=7),
        limit=600.0,
    )
    assert res.restarts >= 3  # some faults may land after completion
    assert res.results == expect


def test_restart_on_spare_node():
    expect = baseline(ring_prog, 4)
    res = run_job(
        ring_prog,
        4,
        device="v2",
        spares=2,
        faults=ExplicitFaults([(0.1, 1)]),
    )
    assert res.results == expect
    disp = res.extras["dispatcher"]
    assert disp.states[1].host.name == "spare0"


def test_faulty_run_takes_longer_than_clean():
    clean = run_job(ring_prog, 4, device="v2")
    faulty = run_job(ring_prog, 4, device="v2", faults=ExplicitFaults([(0.1, 2)]))
    assert faulty.elapsed > clean.elapsed


def test_checkpoint_roundtrip_no_faults():
    expect = baseline(ring_prog, 4, rounds=10, work=0.2)
    res = run_job(
        ring_prog,
        4,
        device="v2",
        params={"rounds": 10, "work": 0.2},
        checkpointing=True,
        ckpt_interval=0.2,
    )
    assert res.results == expect
    assert res.checkpoints > 0


def test_restart_from_checkpoint_image():
    expect = baseline(ring_prog, 4, rounds=12, work=0.2)
    res = run_job(
        ring_prog,
        4,
        device="v2",
        params={"rounds": 12, "work": 0.2},
        checkpointing=True,
        ckpt_interval=0.1,
        faults=ExplicitFaults([(1.5, 1)]),
    )
    assert res.results == expect
    assert res.restarts == 1
    assert res.checkpoints > 0
    # the restarted rank actually used an image: its daemon restored clock>0
    disp = res.extras["dispatcher"]
    assert disp.states[1].daemon.restart_base_recv > 0


def test_checkpoint_with_continuous_scheduling_and_faults():
    expect = baseline(ring_prog, 4, rounds=12, work=0.2)
    res = run_job(
        ring_prog,
        4,
        device="v2",
        params={"rounds": 12, "work": 0.2},
        checkpointing=True,
        ckpt_policy="random",
        ckpt_continuous=True,
        faults=RandomFaults(interval=1.2, count=3, seed=3),
        limit=600.0,
    )
    assert res.results == expect


def test_garbage_collection_after_checkpoint():
    res = run_job(
        ring_prog,
        4,
        device="v2",
        params={"rounds": 14, "work": 0.15},
        checkpointing=True,
        ckpt_interval=0.1,
    )
    assert res.checkpoints > 0
    # some sender logs were garbage-collected (the registry counts every
    # incarnation's frees; this fault-free job has one per rank)
    assert res.restarts == 0
    assert res.metrics.total("senderlog.gc_bytes") > 0


def test_event_logger_not_replayed_on_restart():
    """Replayed deliveries must not be re-logged (no duplicate events)."""
    clean = run_job(ring_prog, 3, device="v2")
    el_clean = clean.extras["event_loggers"][0]
    clean_counts = {r: len(el_clean.records_for(r)) for r in range(3)}

    faulty = run_job(ring_prog, 3, device="v2", faults=ExplicitFaults([(0.1, 1)]))
    el_faulty = faulty.extras["event_loggers"][0]
    for r in range(3):
        assert len(el_faulty.records_for(r)) == clean_counts[r]


def test_crash_between_rts_and_data():
    """A sender dying after its rendezvous RTS but before the DATA must
    still deliver the message after restart (the re-executed RTS is not a
    duplicate of a delivered payload and must pass the discard filter)."""

    def prog(mpi, iters=4):
        peer = 1 - mpi.rank
        total = 0.0
        for i in range(iters):
            # 400 KB: always above the eager threshold -> rendezvous
            sreq = yield from mpi.isend(peer, nbytes=400_000, tag=i, data=float(i))
            rreq = yield from mpi.irecv(source=peer, tag=i)
            yield from mpi.waitall([sreq, rreq])
            total += rreq.message.data
            yield from mpi.compute(seconds=0.05)
        return total

    expect = run_job(prog, 2, device="v2").results
    # kill the sender while rendezvous handshakes are in flight
    res = run_job(
        prog, 2, device="v2", faults=ExplicitFaults([(0.051, 0)]), limit=600.0
    )
    assert res.restarts == 1
    assert res.results == expect


def test_crash_mid_rendezvous_with_checkpoints():
    def prog(mpi, iters=6):
        peer = 1 - mpi.rank
        total = 0.0
        for i in range(iters):
            sreq = yield from mpi.isend(peer, nbytes=300_000, tag=i, data=float(i))
            rreq = yield from mpi.irecv(source=peer, tag=i)
            yield from mpi.waitall([sreq, rreq])
            total += rreq.message.data
            yield from mpi.compute(seconds=0.08)
        return total

    expect = run_job(prog, 2, device="v2").results
    res = run_job(
        prog, 2, device="v2",
        checkpointing=True, ckpt_interval=0.1, ckpt_continuous=True,
        ckpt_policy="random",
        faults=ExplicitFaults([(0.13, 1), (1.6, 0)]), limit=600.0,
    )
    assert res.restarts == 2
    assert res.results == expect


def test_crash_during_image_push_keeps_previous_image():
    """A node dying mid-checkpoint-push must not corrupt the server: the
    partial image is discarded and the previous one serves the restart."""
    res = run_job(
        ring_prog, 4, device="v2", params={"rounds": 14, "work": 0.2},
        checkpointing=True, ckpt_continuous=True, ckpt_policy="round_robin",
        # kill while some image transfer is almost certainly in flight
        faults=ExplicitFaults([(0.45, 0), (1.1, 2)]),
        limit=600.0,
    )
    expect = run_job(ring_prog, 4, device="v2",
                     params={"rounds": 14, "work": 0.2}).results
    assert res.results == expect
    cs = res.extras["checkpoint_servers"][0]
    # stored images are internally consistent (sequence monotone per rank)
    for rank in cs.manifests:
        img = cs.latest(rank)
        assert img.rank == rank
        assert img.op_count > 0


def test_restored_image_content_is_consistent():
    res = run_job(
        ring_prog, 3, device="v2", params={"rounds": 12, "work": 0.2},
        checkpointing=True, ckpt_interval=0.15,
        faults=ExplicitFaults([(1.4, 1)]), limit=600.0,
    )
    disp = res.extras["dispatcher"]
    d = disp.states[1].daemon
    if d.restart_base_recv > 0:  # restored from an image
        # the restored SAVED holds exactly the pre-checkpoint sends
        assert all(
            m.sclock <= d.clock.send_seq for m in d.saved
        )
        # and the delivery log extends past the image boundary
        assert len(d.delivery_log) >= d.restart_base_recv
