"""Randomized program equivalence (hypothesis).

Generates arbitrary (deadlock-free) MPI programs — mixes of blocking and
nonblocking point-to-point with data-dependent payloads, collectives,
compute, wildcard receives — and checks the two load-bearing properties:

1. **device independence**: P4, V1 and V2 produce identical results (the
   MPI stack above the channel is the same code; the devices may not
   change semantics);
2. **failure transparency**: V2 with injected faults produces the exact
   fault-free results (Theorems 1-2).

The program generator emits a *schedule* of global steps; every rank
derives its actions deterministically from the schedule and its rank, so
any generated program is valid and terminating by construction.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ft.failure import ExplicitFaults
from repro.runtime.mpirun import run_job

NPROCS = 4

# one step of the global schedule
step_st = st.one_of(
    st.tuples(st.just("shift"), st.integers(1, NPROCS - 1),
              st.integers(16, 4000)),  # ring shift by k, nbytes
    st.tuples(st.just("pair"), st.integers(0, 1), st.integers(16, 2000)),
    st.tuples(st.just("allreduce"), st.just(0), st.just(8)),
    st.tuples(st.just("bcast"), st.integers(0, NPROCS - 1), st.integers(8, 1000)),
    st.tuples(st.just("gather_any"), st.integers(0, NPROCS - 1), st.just(8)),
    st.tuples(st.just("compute"), st.integers(1, 30), st.just(0)),
    st.tuples(st.just("scan"), st.just(0), st.just(8)),
)

#: the padding step of the checkpointed fault test
PAD = ("compute", 30, 0)


def make_program(schedule):
    def program(mpi):
        acc = float(mpi.rank + 1)
        for idx, (kind, a, b) in enumerate(schedule):
            tag = 100 + idx
            if kind == "shift":
                dst = (mpi.rank + a) % mpi.size
                src = (mpi.rank - a) % mpi.size
                sreq = yield from mpi.isend(dst, nbytes=b, tag=tag, data=acc)
                rreq = yield from mpi.irecv(source=src, tag=tag)
                yield from mpi.waitall([sreq, rreq])
                acc = 0.5 * acc + 0.5 * rreq.message.data + 0.25
            elif kind == "pair":
                peer = mpi.rank ^ (1 + a)
                if peer < mpi.size:
                    msg = yield from mpi.sendrecv(
                        peer, nbytes=b, tag=tag, data=acc,
                        source=peer, recvtag=tag,
                    )
                    acc = 0.5 * (acc + msg.data)
            elif kind == "allreduce":
                acc = yield from mpi.allreduce(value=round(acc, 9), nbytes=8)
            elif kind == "bcast":
                out = yield from mpi.bcast(
                    root=a, nbytes=b, data=round(acc, 9) if mpi.rank == a else None
                )
                acc = 0.5 * acc + 0.5 * out
            elif kind == "gather_any":
                got = yield from mpi.gather(root=a, value=round(acc, 9), nbytes=8)
                if mpi.rank == a:
                    acc += sum(got) * 0.125
            elif kind == "compute":
                yield from mpi.compute(seconds=a / 1000.0)
            elif kind == "scan":
                acc = yield from mpi.scan(value=round(acc, 9), nbytes=8)
            acc = acc % 1000.0  # keep numbers bounded
        total = yield from mpi.allreduce(value=round(acc, 9), nbytes=8)
        return round(total, 6)

    return program


@given(st.lists(step_st, min_size=2, max_size=10))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_devices_agree_on_random_programs(schedule):
    prog = make_program(schedule)
    ref = run_job(prog, NPROCS, device="p4", limit=3600.0).results
    assert run_job(prog, NPROCS, device="v1", limit=3600.0).results == ref
    assert run_job(prog, NPROCS, device="v2", limit=3600.0).results == ref


@given(
    st.lists(step_st, min_size=3, max_size=10),
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(0, NPROCS - 1),
)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_v2_faults_transparent_on_random_programs(schedule, frac, victim):
    """The kill lands inside the run: at a fraction of its fault-free
    length, which is milliseconds for these programs."""
    prog = make_program(schedule)
    ref = run_job(prog, NPROCS, device="v2", limit=3600.0)
    t_kill = frac * ref.elapsed
    faults = ExplicitFaults([(t_kill, victim)])
    res = run_job(
        prog, NPROCS, device="v2", faults=faults, limit=3600.0, audit=True,
    )
    assert res.results == ref.results
    assert len(faults.injected) == 1
    # a rank killed while it runs is restarted; one killed after it
    # finished is not if the job ends before the crash is detected
    finished = ref.extras["dispatcher"].states[victim].finish_time
    assert res.restarts == 1 or (res.restarts == 0 and t_kill >= finished)
    assert res.audit.verdict == "clean", res.audit.violations


@given(
    st.lists(step_st, min_size=3, max_size=8),
    st.integers(0, 10_000),
)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_v2_checkpointed_faults_transparent_on_random_programs(schedule, seed):
    """30 ms of compute after every step gives checkpoints time to land;
    the checkpoint and fault intervals scale with the fault-free run."""
    from repro.ft.failure import RandomFaults

    prog = make_program([s for step in schedule for s in (step, PAD)])
    ref = run_job(prog, NPROCS, device="v2", limit=3600.0)
    faults = RandomFaults(interval=ref.elapsed / 3, count=2, seed=seed)
    res = run_job(
        prog, NPROCS, device="v2",
        checkpointing=True, ckpt_interval=ref.elapsed / 10,
        faults=faults, limit=3600.0, audit=True,
    )
    assert res.results == ref.results
    assert faults.injected and res.restarts == len(faults.injected)
    assert res.checkpoints >= 1
    assert res.audit.verdict == "clean", res.audit.violations
