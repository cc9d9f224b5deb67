"""A finished job leaves only its result.

The control plane's long-lived side — simulator, hosts, shared services,
fabric, RNG registry, trace router — must hold state for *running* jobs
only: every table is bounded by a constant after a drain, however many
jobs went through, and once the handles are dropped the heap is as small
after 120 jobs as after 40.  The rank-restart twin: on a private
``run_job``, a dead incarnation's daemon is unreachable from the result.
"""

import gc

from repro.core.v2_device import V2Daemon
from repro.ft.failure import ChurnFaults, ServiceFaults
from repro.runtime.mpirun import run_job
from repro.serve import ControlPlane, JobSpec
from repro.workloads import token_ring

TABLE_BOUND = 16  # entries per long-lived table after a drain; not per job


def _spec(i: int) -> JobSpec:
    """Mostly p4; every fifth job v2, every other one of those killed
    mid-traffic under continuous checkpointing.  Audit on everywhere."""
    if i % 5:
        return JobSpec(workload=token_ring, nranks=1 + i % 3, device="p4",
                       tenant="ab"[i % 2], params={"rounds": 3, "nbytes": 256})
    kw = {}
    if i % 10 == 0:
        kw = {"checkpointing": True, "ckpt_interval": 0.05,
              "fault": {"kind": "kill", "rank": 1, "at": 0.06}}
    return JobSpec(workload=token_ring, nranks=2, device="v2",
                   tenant="ab"[i % 2],
                   params={"rounds": 200 if kw else 10, "nbytes": 4096}, **kw)


def _drained_plane(n_jobs: int) -> ControlPlane:
    plane = ControlPlane(seed=1, capacity=8, svc_slots=2)
    handles = [plane.submit(_spec(i)) for i in range(n_jobs)]
    results = plane.drain()
    assert len(results) == n_jobs
    assert all(r.audit.clean and not r.extras["timed_out"] for r in results)
    assert sum(r.restarts for r in results) == len(range(0, n_jobs, 10))
    # after completion a job's tracer feeds nothing: the auditor and the
    # dispatcher are unsubscribed, so an emit reaches no one
    for h in handles:
        seen = h.result.audit.events_seen
        assert not h.result.tracer.hot and not h.result.tracer._subs
        h.result.tracer.emit(0.0, "v2.deliver", rank=0, src=1, sclock=1,
                             rclock=1, mode="fresh")
        assert h.result.audit.events_seen == seen
    return plane


def _tables(plane: ControlPlane) -> dict[str, int]:
    sim, hosts = plane.sim, plane.cluster.net.hosts.values()
    services = plane.loggers + plane.servers
    return {
        "sim._processes": len(sim._processes),
        "sim._heap": len(sim._heap),
        "host._processes": sum(len(h._processes) for h in hosts),
        "host._streams": sum(len(h._streams) for h in hosts),
        "host.on_crash": sum(len(h.on_crash) for h in hosts),
        "service._procs": sum(len(s._procs) for s in services),
        "service._conns": sum(len(s._conns) for s in services),
        "rng streams": len(plane.cluster.rng._streams),
        "router._jobs": len(plane.router._jobs),
        "job listeners": len(
            set(plane.fabric._listeners) - plane.shared_names
        ),
    }


def _settled_objects(n_jobs: int) -> int:
    """GC-tracked objects once ``n_jobs`` ran and their handles are gone
    (the plane itself, and whatever it still pins, is alive)."""
    plane = _drained_plane(n_jobs)
    tables = _tables(plane)
    assert all(n <= TABLE_BOUND for n in tables.values()), tables
    assert tables["job listeners"] == tables["router._jobs"] == 0, tables
    plane.handles.clear()
    gc.collect()
    return len(gc.get_objects())


def test_plane_tables_and_heap_do_not_grow_with_jobs_run():
    _settled_objects(10)  # warm every lazy import and cache first
    after_40 = _settled_objects(40)
    after_120 = _settled_objects(120)
    assert abs(after_120 - after_40) <= 0.02 * after_40, (after_40, after_120)


def test_a_released_job_leaves_no_process_behind():
    """At the instant ``wait`` returns — not hb_timeout/2 later, when the
    dispatcher's heartbeat monitor used to notice ``done`` — the only
    live processes are the shared services' (accept loops)."""
    plane = ControlPlane(seed=1, capacity=4)
    idle = sorted(p.name for p in plane.sim._processes.values())
    seen = []
    plane.sim.at(1e-3, lambda: seen.extend(
        p.name for p in plane.sim._processes.values()))
    plane.wait(plane.submit(_spec(5)))
    assert "disp.hb-monitor" in seen  # it did run while the job did
    assert sorted(p.name for p in plane.sim._processes.values()) == idle


def _reachable(root, kind) -> list:
    """Every ``kind`` instance reachable from ``root`` (referent walk)."""
    seen, stack, found = {id(root)}, [root], []
    while stack:
        obj = stack.pop()
        if isinstance(obj, kind):
            found.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, type):
                seen.add(id(ref))
                stack.append(ref)
    return found


def test_dead_incarnations_are_unreachable_from_a_private_result():
    """Every first incarnation catches a ``Disconnected`` (the event
    logger is crashed at 0.2 s) and is killed later: the stored exception
    used to pin the catching daemon's frames, and the logger's host kept
    the dead stream that stored it."""
    churn = ChurnFaults(seed=1, mean_lifetime=0.15, shape=0.7, max_faults=4)
    res = run_job(
        token_ring, 4, device="v2", seed=1, audit=True,
        faults=[ServiceFaults([(0.2, "el:0", 0.1)]), churn],
        params={"rounds": 400, "nbytes": 8192},
        checkpointing=True, ckpt_policy="random", ckpt_continuous=True,
    )
    assert res.restarts == len(churn.injected) == 4 and res.audit.clean
    current = {id(st.daemon) for st in res.extras["dispatcher"].states}
    gc.collect()
    daemons = _reachable(res, V2Daemon)
    assert {id(d) for d in daemons} == current, [
        (d.rank, d.incarnation) for d in daemons
    ]
    # ... and the long-lived tables saw the incarnations come and go
    sim = res.extras["dispatcher"].sim
    assert all(p.alive for p in sim._processes.values())
    fabric = res.extras["dispatcher"].fabric
    assert sorted(n for n in fabric._listeners if n.startswith("daemon:")) \
        == [f"daemon:{r}" for r in range(4)]
