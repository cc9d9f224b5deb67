#!/usr/bin/env python3
"""Desktop grid: a long MPI job on highly volatile nodes.

The paper positions MPICH-V2 for "campus/industry wide desktop Grids
with volatile nodes": machines join and leave unpredictably, so a long
computation must survive a steady drizzle of failures.  This example
runs a master/worker Monte-Carlo-flavoured workload (with MPI_ANY_SOURCE
receives — the nondeterministic receptions that make event logging
necessary) under random node kills every few seconds, with continuous
checkpointing so restarted workers fast-forward from their images
instead of recomputing from scratch.

Run:  python examples/desktop_grid.py
"""

from repro.ft.failure import RandomFaults
from repro.runtime.mpirun import run_job
from repro.runtime.progfile import parse_progfile

CHUNKS = 24
CHUNK_WORK = 0.35  # simulated seconds of computation per chunk


def master_worker(mpi):
    """Rank 0 farms work chunks; workers request, compute, return."""
    if mpi.rank == 0:
        handed = 0
        results = []
        active = mpi.size - 1
        while active:
            # ANY_SOURCE: the matching order is a nondeterministic event,
            # logged by MPICH-V2 and forced during any replay
            msg = yield from mpi.recv(source=mpi.ANY_SOURCE, tag=1)
            worker, payload = msg.data
            if payload is not None:
                results.append(payload)
            if handed < CHUNKS:
                yield from mpi.send(worker, nbytes=64, tag=2, data=handed)
                handed += 1
            else:
                yield from mpi.send(worker, nbytes=16, tag=2, data=None)
                active -= 1
        return round(sum(results), 9)
    # worker
    done = 0
    yield from mpi.send(0, nbytes=32, tag=1, data=(mpi.rank, None))
    while True:
        task = yield from mpi.recv(source=0, tag=2)
        if task.data is None:
            return done
        yield from mpi.compute(seconds=CHUNK_WORK)
        value = 1.0 / (1.0 + task.data)  # the "Monte-Carlo" estimate
        yield from mpi.send(0, nbytes=64, tag=1, data=(mpi.rank, value))
        done += 1


#: the §4.7 program file: five volunteer machines compute, two more
#: stand by to replace lost ones, one reliable machine runs the services
GRID = """
vol0    CN
vol1    CN
vol2    CN
vol3    CN
vol4    CN
vol5    SPARE
vol6    SPARE
service EL
storage CS
"""


def main() -> None:
    plan = parse_progfile(GRID)
    nprocs = plan.nprocs

    print("== calm desktop grid (no faults)")
    calm = run_job(master_worker, nprocs, device="v2")
    print(f"   sum={calm.results[0]}   elapsed={calm.elapsed:.2f} s")

    print("== volatile desktop grid: a node dies every ~1.5 s, 5 deaths")
    stormy = run_job(
        master_worker,
        nprocs,
        device="v2",
        checkpointing=True,
        ckpt_interval=0.4,
        faults=RandomFaults(interval=1.5, count=5, seed=42),
        plan=plan,  # volunteers joining the grid replace lost machines
        limit=3600.0,
    )
    print(
        f"   sum={stormy.results[0]}   elapsed={stormy.elapsed:.2f} s   "
        f"restarts={stormy.restarts}   checkpoints={stormy.checkpoints}"
    )

    assert calm.results[0] == stormy.results[0], "consistency violated!"
    print("\nSame result despite the churn — workers restarted (some on")
    print("spare machines), fast-forwarded from checkpoint images, and")
    print("replayed their ANY_SOURCE receptions in the logged order.")


if __name__ == "__main__":
    main()
