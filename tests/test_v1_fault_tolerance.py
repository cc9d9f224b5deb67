"""MPICH-V1's own fault tolerance: uncoordinated restart via the CM log.

Section 3.2 of the paper: "After a crash, a re-executing process
retrieves all lost receptions in the correct order by requesting them to
its Channel Memory. A main property of MPICH-V1 is the uncoordinated
restart: a process re-execution is independent of the other processes of
the system."
"""


from repro.ft.failure import ExplicitFaults, RandomFaults
from repro.runtime.mpirun import run_job


def ring(mpi, rounds=8, work=0.03):
    nxt, prv = (mpi.rank + 1) % mpi.size, (mpi.rank - 1) % mpi.size
    token = float(mpi.rank)
    for r in range(rounds):
        sreq = yield from mpi.isend(nxt, nbytes=600, tag=r, data=token)
        rreq = yield from mpi.irecv(source=prv, tag=r)
        yield from mpi.waitall([sreq, rreq])
        token = 0.5 * token + 0.5 * rreq.message.data + 1.0
        yield from mpi.compute(seconds=work)
    total = yield from mpi.allreduce(value=round(token, 9), nbytes=8)
    return round(total, 9)


def test_v1_single_fault_identical_result():
    clean = run_job(ring, 4, device="v1")
    res = run_job(ring, 4, device="v1", faults=ExplicitFaults([(0.05, 2)]),
                  limit=600.0)
    assert res.restarts == 1
    assert res.results == clean.results


def test_v1_two_concurrent_faults():
    clean = run_job(ring, 4, device="v1")
    res = run_job(
        ring, 4, device="v1", faults=ExplicitFaults([(0.05, 1), (0.05, 3)]),
        limit=600.0,
    )
    assert res.restarts == 2
    assert res.results == clean.results


def test_v1_repeated_faults_same_rank():
    clean = run_job(ring, 3, device="v1", params={"rounds": 10, "work": 0.2})
    res = run_job(
        ring, 3, device="v1", params={"rounds": 10, "work": 0.2},
        faults=ExplicitFaults([(0.1, 1), (2.2, 1)]), limit=600.0,
    )
    assert res.restarts == 2
    assert res.results == clean.results


def test_v1_random_faults():
    clean = run_job(ring, 4, device="v1", params={"rounds": 10, "work": 0.15})
    res = run_job(
        ring, 4, device="v1", params={"rounds": 10, "work": 0.15},
        faults=RandomFaults(interval=0.6, count=3, seed=9), limit=600.0,
    )
    assert res.restarts >= 1
    assert res.results == clean.results


def test_v1_restart_is_uncoordinated():
    """Only the crashed rank re-executes: others never roll back (their
    device incarnation stays 0)."""
    res = run_job(
        ring, 4, device="v1", faults=ExplicitFaults([(0.06, 2)]), limit=600.0
    )
    # re-run bookkeeping is visible through message re-service at the CM
    assert res.restarts == 1
    # the restarted rank's stream was replayed: serves > stores for it
    total_serves = res.metrics.total("v1.cm_serves")
    total_stores = res.metrics.total("v1.cm_stores")
    assert total_serves > total_stores  # replayed deliveries re-served


def test_v1_cm_dedups_reexecuted_sends():
    res = run_job(
        ring, 4, device="v1", faults=ExplicitFaults([(0.05, 1)]), limit=600.0
    )
    cms = res.extras["channel_memories"]
    # every log entry is unique per (src, sclock)
    for cm in cms:
        for dst, msgs in cm.log.items():
            ids = [m.env.msgid for m in msgs]
            assert len(set(ids)) == len(ids)


def test_v1_fault_with_collectives_and_any_source():
    def prog(mpi):
        if mpi.rank == 0:
            got = []
            for _ in range(mpi.size - 1):
                msg = yield from mpi.recv(source=mpi.ANY_SOURCE, tag=3)
                got.append(msg.data)
            total = yield from mpi.allreduce(value=sum(got), nbytes=8)
            return round(total, 9)
        yield from mpi.compute(seconds=0.01 * mpi.rank)
        yield from mpi.send(0, nbytes=64, tag=3, data=float(mpi.rank))
        total = yield from mpi.allreduce(value=0.0, nbytes=8)
        return round(total, 9)

    clean = run_job(prog, 4, device="v1")
    res = run_job(prog, 4, device="v1", faults=ExplicitFaults([(0.005, 0)]),
                  limit=600.0)
    assert res.restarts == 1
    assert res.results == clean.results
