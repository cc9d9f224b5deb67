"""The gang-scheduling control plane (repro.serve).

Covers the admission queue (FIFO within a tenant, head-blocking,
cross-tenant fair share), all-or-nothing gang placement, per-job
namespace isolation on the shared fabric / EL shards / store replicas,
rank-kill isolation between co-resident jobs (with clean audits on both
sides), and per-job metrics-registry isolation.
"""

import pytest

from repro.ft.failure import ExplicitFaults, RandomFaults
from repro.runtime.cluster import Cluster
from repro.runtime.config import DEFAULT_TESTBED
from repro.runtime.fabric import ConnectionRefused, Fabric, ScopedFabric
from repro.runtime.mpirun import run_job
from repro.runtime.results import JobResult
from repro.serve import ControlPlane, JobSpec, load_plan
from repro.workloads import token_ring

TINY = {"rounds": 3, "nbytes": 256}


def _p4(nranks=2, tenant="default", **kw):
    return JobSpec(
        workload=token_ring, nranks=nranks, device="p4", tenant=tenant,
        params=dict(kw.pop("params", TINY)), **kw,
    )


def _v2(nranks=4, tenant="default", **kw):
    return JobSpec(
        workload=token_ring, nranks=nranks, device="v2", tenant=tenant,
        params=dict(kw.pop("params", TINY)), **kw,
    )


# -- one launch path ---------------------------------------------------------


def _data_ring(mpi, rounds=3):
    """A token ring whose result is what travelled, not when."""
    token = mpi.rank
    for _ in range(rounds):
        msg = yield from mpi.sendrecv(
            (mpi.rank + 1) % mpi.size, nbytes=256, data=token,
            source=(mpi.rank - 1) % mpi.size,
        )
        token = msg.data + 1
    return token


@pytest.mark.parametrize("device, through_plane", [
    ("p4", False), ("v1", False), ("v2", False), ("p4", True), ("v2", True),
])
def test_launch_parity(device, through_plane):
    """Three devices on a private cluster (``run_job``) and two submitted
    to a control plane go through one start/collect pair and must hand
    back the same shape of result and the same program results."""

    def launch(audit):
        if not through_plane:
            return run_job(_data_ring, 3, device=device, audit=audit)
        plane = ControlPlane(capacity=4)
        spec = JobSpec(workload=_data_ring, nranks=3, device=device,
                       audit=audit)
        return plane.wait(plane.submit(spec))

    res = launch(audit=True)
    assert isinstance(res, JobResult)
    assert (res.nprocs, res.device, res.restarts) == (3, device, 0)
    # after k rounds rank r holds the token of rank r-k, incremented k times
    assert res.results == [3, 4, 5]
    assert sorted(res.timers) == sorted(res.metrics.by_label("rank")) == [0, 1, 2]
    assert all(res.timers[r].comm_total() > 0 for r in range(3))
    assert all(res.stat("dev.msgs_sent", rank=r) >= 3 for r in range(3))
    assert res.elapsed > 0 and res.metrics.snapshot()
    assert res.audit is not None and res.audit.clean
    assert res.extras["global_restarts"] == 0
    if through_plane:
        assert res.extras["tenant"] == "default"
    unasked = launch(audit=False)
    assert unasked.audit is None and unasked.results == res.results


# -- namespaces --------------------------------------------------------------


def test_scoped_fabric_prefixes_all_but_shared_names():
    cluster = Cluster(DEFAULT_TESTBED, seed=0)
    fabric = Fabric(cluster)
    view = ScopedFabric(fabric, "j0/", shared=frozenset({"el:0"}))
    assert view.scoped("dispatcher") == "j0/dispatcher"
    assert view.scoped("el:0") == "el:0"

    host = cluster.add_aux("svc-host")
    view.listen("svc:0", host)
    cn = cluster.add_cn("cn0")
    # the listener landed on the prefixed name, not the bare one
    with pytest.raises(ConnectionRefused):
        fabric.connect(cn, "svc:0")
    assert fabric.connect(cn, "j0/svc:0") is not None


# -- plans -------------------------------------------------------------------


def test_jobspec_validation():
    with pytest.raises(ValueError):
        JobSpec(workload=token_ring, nranks=2, device="v1")
    with pytest.raises(ValueError):
        JobSpec(workload=token_ring, nranks=0)
    with pytest.raises(ValueError):  # faults need the FT device
        JobSpec(workload=token_ring, nranks=2, device="p4",
                fault={"kind": "kill", "rank": 0, "at": 1.0})
    # submitted, 0 froze the whole plane (the scheduler ordered in a
    # zero-time loop) and -1 crashed it with every tenant's job
    for interval in (0.0, -1.0):
        with pytest.raises(ValueError, match="ckpt_interval"):
            JobSpec(workload="cg", klass="S", nranks=2, device="v2",
                    checkpointing=True, ckpt_interval=interval)


@pytest.mark.parametrize("fault", [
    pytest.param({"kind": "kill", "rank": 9, "at": 0.01}, id="kill-rank"),
    pytest.param({"kind": "explicit", "schedule": [[0.01, -1]]},
                 id="explicit-rank"),
    pytest.param(ExplicitFaults([(0.01, 2)]), id="ExplicitFaults-rank"),
    pytest.param({"kind": "random", "interval": -1.0}, id="random-interval"),
    pytest.param(RandomFaults(interval=0.0, count=1), id="RandomFaults-interval"),
])
def test_jobspec_rejects_a_fault_the_injector_cannot_run(fault):
    """A kill rank outside the job, or a random plan that never advances
    time, used to crash the job's fault injector inside the shared plane
    (``SimError`` out of ``drain``, every tenant's job with it); the spec
    is refused at construction instead."""
    with pytest.raises(ValueError):
        _v2(nranks=2, fault=fault)


def test_load_plan_rejects_unknown_keys(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text('[{"workload": "token_ring", "nranks": 2, "bogus": 1}]')
    with pytest.raises(ValueError, match="bogus"):
        load_plan(str(path))


def test_load_plan_bare_list_defaults_tenant(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text('[{"workload": "token_ring", "nranks": 2}]')
    tenants, jobs = load_plan(str(path))
    assert tenants == {"default": 1.0}
    assert jobs[0].nranks == 2 and jobs[0].device == "p4"


# -- admission ---------------------------------------------------------------


def test_fifo_within_tenant_and_capacity_gating():
    plane = ControlPlane(capacity=2, svc_slots=0)
    handles = [
        plane.submit(_p4(2, params={"rounds": 50, "nbytes": 2048}))
        for _ in range(3)
    ]
    plane.drain()
    starts = [h.start_t for h in handles]
    assert starts == sorted(starts)  # admitted in submit order
    assert handles[0].start_t == 0.0
    assert handles[1].start_t > 0.0  # had to wait for job 0's gang
    assert all(h.done.done for h in handles)
    assert plane.finish()["completed"] == 3


def test_gang_is_all_or_nothing_with_tenant_head_blocking():
    plane = ControlPlane(capacity=4, svc_slots=0)
    big = plane.submit(_p4(3, tenant="alpha",
                           params={"rounds": 100, "nbytes": 4096}))
    blocked = plane.submit(_p4(2, tenant="alpha"))  # 1 slot free: no gang
    behind = plane.submit(_p4(1, tenant="alpha"))  # would fit, but FIFO
    other = plane.submit(_p4(1, tenant="beta"))  # other tenant: may run
    plane.drain()
    big_done = big.start_t + big.result.elapsed
    # never a partial gang: the 2-rank job waited for the 3-rank release
    assert blocked.start_t >= big_done - 1e-9
    assert blocked.wait_s > 0
    # a later same-tenant job does not leapfrog its blocked head ...
    assert behind.start_t >= blocked.start_t
    # ... but another tenant's 1-rank job takes the free slot immediately
    assert other.start_t == 0.0


def test_fair_share_tracks_tenant_weights():
    plane = ControlPlane(
        capacity=2, svc_slots=0, tenants={"alpha": 3.0, "beta": 1.0}
    )
    spec = {"rounds": 50, "nbytes": 2048}
    handles = (
        [plane.submit(_p4(2, tenant="alpha", params=spec)) for _ in range(9)]
        + [plane.submit(_p4(2, tenant="beta", params=spec)) for _ in range(3)]
    )
    plane.drain()
    # admissions over the saturation window (both tenants still queued):
    # rank-weighted share per tenant tracks the 3:1 weights within 20%
    order = sorted(handles, key=lambda h: h.start_t)[:8]
    alpha = sum(h.spec.nranks for h in order if h.spec.tenant == "alpha")
    beta = sum(h.spec.nranks for h in order if h.spec.tenant == "beta")
    share = alpha / (alpha + beta)
    assert abs(share - 0.75) <= 0.2 * 0.75
    summary = plane.finish()
    assert summary["completed"] == 12
    assert summary["tenants"]["alpha"]["served_ranks"] == 18.0


def test_submit_at_future_time_defers_enqueue():
    plane = ControlPlane(capacity=4, svc_slots=0)
    handle = plane.submit(_p4(2), at=1.5)
    assert handle.submit_t is None  # not queued before its submit time
    plane.wait(handle)
    assert handle.submit_t == 1.5
    assert handle.start_t >= 1.5


def test_oversized_gang_is_rejected_outright():
    plane = ControlPlane(capacity=2, svc_slots=0)
    with pytest.raises(ValueError, match="pool has 2"):
        plane.submit(_p4(4))


# -- isolation ---------------------------------------------------------------


def test_rank_kill_recovers_without_touching_the_neighbour_job():
    plane = ControlPlane(capacity=8, svc_slots=2)
    faulty = plane.submit(_v2(
        4, tenant="alpha", params={"rounds": 400, "nbytes": 16384},
        checkpointing=True, ckpt_interval=0.05,
        fault={"kind": "kill", "rank": 1, "at": 0.08}, trace=True,
    ))
    clean = plane.submit(_v2(
        4, tenant="beta", params={"rounds": 400, "nbytes": 16384},
    ))
    plane.drain()
    a, b = faulty.result, clean.result
    # both ran concurrently on the shared cluster
    assert faulty.start_t == 0.0 and clean.start_t == 0.0
    # the kill was detected and recovered entirely inside job A ...
    assert a.restarts >= 1
    assert a.metrics.total("ft.faults") >= 1
    assert a.audit is not None and a.audit.clean
    # ... with per-fault recovery attribution from its private trace
    assert a.extras["mttr"] is not None
    # job B never saw a fault: no restarts, nothing in its registry,
    # and its own audit is clean over the shared EL/store services
    assert b.restarts == 0
    assert b.metrics.total("ft.faults", default=0.0) == 0.0
    assert b.audit is not None and b.audit.clean
    assert plane.finish()["audit_violations"] == 0


def _submit_or_refusal(plane, spec_kw):
    """The handle of a submitted job, or the error its spec raised."""
    try:
        return plane.submit(JobSpec(**spec_kw))
    except ValueError as exc:
        return exc


def test_unknown_workload_is_refused_before_it_reaches_the_plane():
    """``JobSpec(workload="bogus")`` used to raise inside the job driver,
    and ``drain`` died with the other tenant's job still running."""
    plane = ControlPlane(capacity=4, svc_slots=1)
    good = plane.submit(_v2(2, tenant="alpha"))
    refused = _submit_or_refusal(
        plane, dict(workload="bogus", nranks=2, tenant="beta"),
    )
    plane.drain()
    assert isinstance(refused, ValueError)
    assert "unknown workload 'bogus'" in str(refused)
    assert len(good.result.results) == 2
    assert good.result.extras["error"] is None


def _divides_by_zero(mpi):
    """Rank 1 raises after 10 ms; rank 0 waits for it forever."""
    yield from mpi.compute(seconds=0.01)
    if mpi.rank == 1:
        return 1 // 0
    msg = yield from mpi.recv(source=1)
    return msg.data


def test_a_program_error_fails_its_job_and_spares_the_plane():
    """A program that raises used to escape ``drain`` as ``SimError``
    (the job driver re-raised it); now it is that job's result, and its
    slice goes back to the pool as on a timeout."""
    plane = ControlPlane(capacity=4, svc_slots=1)
    good = plane.submit(_p4(2, tenant="alpha", params={"rounds": 40}))
    bad = plane.submit(JobSpec(
        workload=_divides_by_zero, nranks=2, device="v2", tenant="beta",
    ))
    plane.drain()
    res = bad.result
    assert res.extras["error"].startswith("ZeroDivisionError")
    assert res.results == [] and not res.extras["timed_out"]
    assert res.audit.clean
    assert len(good.result.results) == 2
    assert good.result.extras["error"] is None
    summary = plane.finish()
    assert summary["completed"] == 2 and summary["failed"] == 1
    assert len(plane._free_cn) == 4 and len(plane._free_svc) == 1


def test_a_p4_program_error_fails_its_job_and_spares_the_plane():
    """p4 ranks run supervised like every other device's: a p4 rank that
    raises fails its own job, naming the rank, and the v2 tenant sharing
    the plane completes (it used to escape ``drain`` as ``SimError:
    process 'rank1.i0' crashed``)."""
    plane = ControlPlane(capacity=4, svc_slots=1)
    good = plane.submit(_v2(2, tenant="alpha", params={"rounds": 40}))
    bad = plane.submit(JobSpec(
        workload=_divides_by_zero, nranks=2, device="p4", tenant="beta",
    ))
    plane.drain()
    error = bad.result.extras["error"]
    assert error.startswith("ZeroDivisionError") and "rank1" in error
    assert bad.result.results == [] and not bad.result.extras["timed_out"]
    assert good.result.extras["error"] is None
    assert len(good.result.results) == 2 and good.result.audit.clean
    assert plane.finish()["failed"] == 1
    assert len(plane._free_cn) == 4 and len(plane._free_svc) == 1


def test_finished_jobs_are_evicted_from_shared_services():
    plane = ControlPlane(capacity=4, svc_slots=1)
    handle = plane.submit(_v2(
        2, params={"rounds": 200, "nbytes": 8192},
        checkpointing=True, ckpt_interval=0.05,
    ))
    plane.wait(handle)
    assert handle.result.checkpoints > 0
    tag = handle.result.extras["namespace"]
    for el in plane.loggers:
        assert not any(k[0] == tag for k in el.events)
    for srv in plane.servers:
        assert not any(k[0] == tag for k in srv.manifests)


def test_per_job_metrics_registries_are_isolated():
    plane = ControlPlane(capacity=8, svc_slots=2)
    h1 = plane.submit(_v2(2))
    h2 = plane.submit(_v2(2))
    plane.drain()
    r1, r2 = h1.result, h2.result
    assert r1.metrics is not r2.metrics
    assert r1.metrics is not plane.metrics
    # each job's registry carries its own ranks' client traffic ...
    assert r1.metrics.total("el.roundtrips") > 0
    assert r2.metrics.total("el.roundtrips") > 0
    # ... and none of it leaks into the plane's registry, which keeps
    # only shared-infrastructure and admission metrics
    assert plane.metrics.total("el.roundtrips", default=-1.0) == -1.0
    assert not any(m.name.startswith("ft.") for m in plane.metrics)
    assert plane.metrics.total("serve.completed") == 2
