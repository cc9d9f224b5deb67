"""Seeds that once misbehaved, kept as regression runs.

Each entry is a full run that surfaced a defect, pinned with the online
auditor attached: it must finish, restart every injected fault and audit
clean.  Its simulated numbers are pinned too, because the simulator is
bit-deterministic for a given seed; a change that moves one on purpose
updates it here and says why.
"""

from repro.ft.failure import ChurnFaults
from repro.runtime.mpirun import run_job
from repro.workloads import nas


def test_cg_a8_churn_seed4_finishes_clean():
    """CG-A-8 under ``ChurnFaults(seed=4)`` with continuous random
    checkpoints once crashed the simulator (a dropped session's
    ``stall_s``).  Its second checkpoint order goes to rank 3, which is
    killed mid-push; the continuous scheduler then waits out its
    ``10 * ckpt_interval`` patience, so the run ends with one image."""
    faults = ChurnFaults(seed=4, mean_lifetime=12.0, shape=0.7, max_faults=4)
    res = run_job(
        nas.cg.program, 8, device="v2", params={"klass": "A"}, seed=1,
        limit=1e8, faults=faults, checkpointing=True, ckpt_policy="random",
        ckpt_continuous=True, audit=True,
    )
    assert len(res.results) == 8 and all(r is not None for r in res.results)
    assert len(faults.injected) == 4 and res.restarts == 4
    assert res.audit.verdict == "clean", res.audit.violations
    assert res.checkpoints == 1
    assert round(res.elapsed, 4) == 10.5932
