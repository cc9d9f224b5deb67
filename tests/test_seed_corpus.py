"""Seeds that once misbehaved, kept as regression runs.

Each entry is a full run that surfaced a defect, pinned with the online
auditor attached: it must finish, restart every injected fault and audit
clean.  Its simulated numbers are pinned too, because the simulator is
bit-deterministic for a given seed; a change that moves one on purpose
updates it here and says why.
"""

from repro.ft.failure import ChurnFaults, RandomFaults
from repro.runtime.mpirun import run_job
from repro.workloads import nas
from tests.test_random_programs import NPROCS, PAD, make_program


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


def test_fresh_send_cannot_overtake_a_handshake_resend():
    """A shrunk case of ``test_v2_checkpointed_faults_transparent_on_random_programs``.
    Rank 3 dies before its first checkpoint; rank 2 dies after its own,
    while rank 3 is still replaying.  Restored, rank 2 sent its next
    message to rank 3 (sclock 6) before the RESTART handshake re-sent
    the checkpointed one rank 3 still lacked (sclock 5).  Rank 3 finished
    its replay, forwarded 6, and then discarded 5 as a duplicate under
    its watermark, so the job waited for 5 until the time limit.  Fresh
    sends now queue behind the handshake's re-sends."""
    schedule = [("allreduce", 0, 8), ("scan", 0, 8), ("pair", 1, 1009),
                ("shift", 1, 16), ("shift", 1, 217), ("allreduce", 0, 8),
                ("scan", 0, 8)]
    prog = make_program([s for step in schedule for s in (step, PAD)])
    ref = run_job(prog, NPROCS, device="v2", limit=3600.0)
    faults = RandomFaults(interval=ref.elapsed / 3, count=2, seed=3985)
    res = run_job(
        prog, NPROCS, device="v2", checkpointing=True,
        ckpt_interval=ref.elapsed / 10, faults=faults, limit=3600.0,
        audit=True,
    )
    assert [r for _, r in faults.injected] == [3, 2]
    assert res.results == ref.results
    assert res.restarts == 2
    assert res.audit.verdict == "clean", res.audit.violations
