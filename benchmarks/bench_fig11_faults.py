"""Figure 11: BT-A on 4 nodes under an increasing number of faults.

Paper setup: continuous checkpointing ("the system is always
checkpointing a node") with a random selection policy; faults are
termination signals to a randomly selected MPI process, any time —
including during a checkpoint or a re-execution.  Claims:

1. low overhead of the checkpoint system when no fault occurs;
2. smooth degradation of the execution time with the fault count;
3. execution time below twice the fault-free reference at 9 faults.
"""

from repro.analysis.report import Report
from repro.ft.failure import RandomFaults
from repro.runtime.mpirun import run_job
from repro.workloads import nas

from conftest import full_sweep, record_report

FAULTS_DEFAULT = [0, 1, 3, 9]
FAULTS_FULL = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]


def run_fig11():
    prog = nas.bt.program
    params = {"klass": "A"}
    base = run_job(prog, 4, device="v2", params=params, limit=1e7)
    reference = base.elapsed  # no checkpointing, no faults
    fault_interval = reference / 10  # the paper: one fault every 45 s
    counts = FAULTS_FULL if full_sweep() else FAULTS_DEFAULT
    rows = []
    times = {}
    for n in counts:
        res = run_job(
            prog, 4, device="v2", params=params,
            checkpointing=True, ckpt_policy="random", ckpt_continuous=True,
            faults=RandomFaults(interval=fault_interval, count=n, seed=11 + n)
            if n
            else None,
            limit=1e7,
        )
        rows.append([n, res.elapsed, res.elapsed / reference, res.restarts,
                     res.checkpoints])
        times[n] = res.elapsed
    return reference, rows, times


def bench_fig11_faults():
    reference, rows, times = run_fig11()
    rep = Report("Figure 11 - BT-A on 4 nodes, increasing fault count")
    rep.add(f"fault-free, checkpoint-free reference: {reference:.1f} s")
    rep.table(
        ["faults", "time s", "vs reference", "restarts", "checkpoints"], rows
    )
    rep.add(
        "paper: low no-fault checkpointing overhead; smooth degradation; "
        "under 2x the reference at 9 faults (1 fault per ~45 s)"
    )
    record_report(rep)
    counts = sorted(times)
    # claim 1: checkpointing alone costs little
    assert times[0] < 1.2 * reference
    # claim 2: smooth degradation (monotonic within noise)
    assert times[counts[-1]] >= times[0]
    # claim 3: < 2x reference at the maximum fault count
    assert times[counts[-1]] < 2.0 * reference
