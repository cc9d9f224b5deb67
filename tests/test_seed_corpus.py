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


def _cg_a8_churn(run_seed: int, churn_seed: int):
    """CG-A-8 under Weibull churn (4 kills) with continuous random
    checkpoints, audited: the ``cg_a8_churn`` benchmark's setup."""
    faults = ChurnFaults(
        seed=churn_seed, mean_lifetime=12.0, shape=0.7, max_faults=4
    )
    res = run_job(
        nas.cg.program, 8, device="v2", params={"klass": "A"},
        seed=run_seed, limit=1e8, faults=faults, checkpointing=True,
        ckpt_policy="random", ckpt_continuous=True, audit=True,
    )
    assert len(res.results) == 8 and all(r is not None for r in res.results)
    assert len(faults.injected) == 4 and res.restarts == 4
    assert res.audit.verdict == "clean", res.audit.violations
    return res


def test_cg_a8_churn_seed4_finishes_clean():
    """``ChurnFaults(seed=4)`` once crashed the simulator (a dropped
    session's ``stall_s``).  Its second checkpoint order goes to rank 3,
    which is killed mid-push.  The continuous scheduler used to wait for
    that push until a 10 × ``ckpt_interval`` patience ran out, so the run
    ended after 10.59 s with one image; the broken link now ends the
    wait and the scheduler keeps ordering checkpoints to the end."""
    res = _cg_a8_churn(run_seed=1, churn_seed=4)
    assert res.checkpoints == 15
    assert round(res.elapsed, 4) == 23.2997


def test_continuous_checkpointing_survives_a_kill_mid_push():
    """``run_job(seed=5)`` orders rank 4 first, and rank 4 dies mid-push
    before any image exists.  With the stall the run made no checkpoint
    at all (6.87 s, 0 images)."""
    res = _cg_a8_churn(run_seed=5, churn_seed=1)
    assert res.checkpoints > 0
