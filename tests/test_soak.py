"""Soak test: a long multi-kernel run under desktop-grid churn.

Exercises the whole stack at once — NAS verification kernels chained in
one program over sub-communicators, with checkpointing and Weibull churn
— and asserts end-to-end consistency against the calm run.
"""


from repro.ft.failure import ChurnFaults
from repro.runtime.mpirun import run_job
from repro.runtime.progfile import parse_progfile
from repro.workloads import nas


def campaign(mpi):
    """Run CG then FT (whole world), then MG per half, then combine."""
    r1 = yield from nas.cg.program(mpi, klass="T")
    r2 = yield from nas.ft.program(mpi, klass="T")
    half = yield from mpi.split(color=mpi.rank % 2)
    r3 = yield from nas.mg.program(half, klass="T")
    yield from mpi.compute(seconds=0.05)
    combined = yield from mpi.allreduce(
        value=round(r1.checksum + r2.checksum + r3.checksum, 6), nbytes=8
    )
    return round(combined, 6)


def test_soak_campaign_under_churn():
    calm = run_job(campaign, 4, device="v2", limit=3600.0)
    churn = ChurnFaults(mean_lifetime=0.35, seed=17, max_faults=5,
                        check_interval=0.03)
    plan = parse_progfile(
        "service EL\ncs-host CS\ncn0 CN\ncn1 CN\ncn2 CN\ncn3 CN\n"
        "spare0 SPARE\nspare1 SPARE\n"
    )
    stormy = run_job(
        campaign, 4, device="v2",
        checkpointing=True, ckpt_interval=0.1,
        faults=churn, plan=plan, limit=3600.0,
    )
    assert stormy.restarts == len(churn.injected) >= 2
    assert stormy.results == calm.results


def test_soak_campaign_cross_device():
    ref = run_job(campaign, 4, device="p4", limit=3600.0).results
    assert run_job(campaign, 4, device="v2", limit=3600.0).results == ref
