"""The performance-attribution layer (repro.obs.profile).

Covers the three mechanisms separately and end-to-end: the kernel
probe (exact dispatch counts, kind labelling, sampled service CPU,
probe detach on finish), the process-name -> service classifier, the
critical-path walk over a hand-built happens-before graph (latest
predecessor wins, per-category aggregation), and the ``profile=True``
plumbing through ``run_job`` with el-ack edges present on a real V2 run.
"""

import re

import pytest

from repro.obs.profile import KernelProfiler, classify_service, critical_path
from repro.runtime import mpirun
from repro.runtime.mpirun import run_job
from repro.simnet.kernel import Simulator


def ring(mpi, rounds=6, work=0.01):
    nxt, prv = (mpi.rank + 1) % mpi.size, (mpi.rank - 1) % mpi.size
    token = mpi.rank
    for r in range(rounds):
        sreq = yield from mpi.isend(nxt, nbytes=256, tag=r, data=token)
        rreq = yield from mpi.irecv(source=prv, tag=r)
        yield from mpi.waitall([sreq, rreq])
        token = rreq.message.data + 1
        yield from mpi.compute(seconds=work)
    return token


# -- service classification --------------------------------------------------


def test_classify_service_prefix_rules():
    assert classify_service("rank3.i0") == "app"
    assert classify_service("daemon2.i1") == "daemon"
    assert classify_service("d3.el.i0") == "daemon"  # daemon-side EL client
    assert classify_service("d0.fwd.i2") == "daemon"
    assert classify_service("el:0.accept") == "el"
    assert classify_service("cs:1.serve(0)") == "store"
    assert classify_service("sched.drive") == "scheduler"
    assert classify_service("disp.hb-monitor") == "dispatcher"
    assert classify_service("dispatcher.accept") == "dispatcher"
    assert classify_service("cm:0.serve") == "cm"
    assert classify_service("fault-injector") == "infra"
    assert classify_service("v1.restart2") == "infra"


# -- the kernel probe --------------------------------------------------------


def test_profiler_counts_exact_and_services_sampled():
    sim = Simulator()
    # odd stride: the two tickers alternate resumes, so an even stride
    # would sample only one of them (the periodic-aliasing caveat)
    prof = KernelProfiler(sample_every=3).install(sim)

    def ticker(n):
        for _ in range(n):
            yield sim.timeout(0.01)

    sim.spawn(ticker(100), name="rank0")
    sim.spawn(ticker(100), name="daemon0.i0")
    sim.run()
    profile = prof.finish()
    assert sim._probe is None  # finish() detaches
    assert profile.events == sum(k["count"] for k in profile.kinds)
    by_kind = {k["kind"]: k["count"] for k in profile.kinds}
    timeouts = [c for k, c in by_kind.items() if "timeout" in k]
    assert sum(timeouts) == 200  # counts are exact, not sampled
    assert profile.events_per_s > 0
    assert profile.sim_s == pytest.approx(1.0)
    svcs = {s["service"] for s in profile.services}
    assert "app" in svcs and "daemon" in svcs
    assert all(s["cpu_s"] >= 0 for s in profile.services)
    assert abs(sum(s["share"] for s in profile.services) - 1.0) < 1e-9
    assert profile.queue_depth["samples"] > 0
    assert profile.queue_depth["max"] >= profile.queue_depth["mean"]


def test_profiler_rejects_bad_stride_and_runs_detached():
    with pytest.raises(ValueError):
        KernelProfiler(sample_every=0)
    sim = Simulator()
    assert sim._probe is None  # the default kernel path carries no probe


# -- critical path -----------------------------------------------------------


def _hb():
    """tx(r0) --message--> log_event(r1) --el--> el_ack(r1) --> tx(r1)."""
    nodes = [
        {"id": 0, "rank": 0, "op": "tx", "time": 0.0},
        {"id": 1, "rank": 1, "op": "log_event", "time": 0.3},
        {"id": 2, "rank": 1, "op": "el_ack", "time": 0.9},
        {"id": 3, "rank": 1, "op": "tx", "time": 1.0},
    ]
    edges = [
        {"from": 0, "to": 1, "kind": "message"},
        {"from": 1, "to": 2, "kind": "el"},
        {"from": 1, "to": 3, "kind": "program"},
        {"from": 2, "to": 3, "kind": "program"},
    ]
    return {"nodes": nodes, "edges": edges}


def test_critical_path_follows_latest_predecessor():
    cp = critical_path(_hb())
    assert cp["end"]["id"] == 3
    # tx's two predecessors: log_event (0.3) and el_ack (0.9); the walk
    # must take the ack — the dependency that actually bound the send
    cats = [s["category"] for s in cp["steps"]]
    assert cats == ["message", "el-ack", "local-tx"]
    assert cp["span_s"] == pytest.approx(1.0)
    assert cp["top_contributor"] == "el-ack"
    top = cp["contributions"][0]
    assert top["category"] == "el-ack"
    assert top["latency_s"] == pytest.approx(0.6)
    assert top["share"] == pytest.approx(0.6)


def test_critical_path_empty_graph():
    cp = critical_path({"nodes": [], "edges": []})
    assert cp["steps"] == [] and cp["span_s"] == 0.0
    assert cp["top_contributor"] is None and cp["end"] is None


# -- run_job plumbing --------------------------------------------------------


def test_run_job_profile_off_by_default():
    res = run_job(ring, 2, device="p4", params={"rounds": 2, "work": 0.0})
    assert res.profile is None


def test_run_job_profile_v2_with_critical_path():
    res = run_job(
        ring, 4, device="v2", params={"rounds": 8, "work": 0.01},
        profile=True, audit=True, audit_hb=True,
    )
    p = res.profile
    assert p is not None and p.events > 0
    assert p.events == sum(k["count"] for k in p.kinds)
    assert p.wall_s > 0 and p.events_per_s > 0
    assert {s["service"] for s in p.services} >= {"daemon", "app"}
    assert res.audit.clean
    cp = critical_path(res.audit.hb)
    assert cp["span_s"] > 0 and len(cp["steps"]) > 0
    # pessimistic logging leaves its signature: el edges on the graph
    # and an el-ack contribution on the binding chain
    assert any(e["kind"] == "el" for e in res.audit.hb["edges"])
    assert any(c["category"] == "el-ack" for c in cp["contributions"])


def test_run_job_profile_p4_and_v1():
    for dev in ("p4", "v1"):
        res = run_job(
            ring, 2, device=dev, params={"rounds": 3, "work": 0.0},
            profile=True,
        )
        assert res.profile is not None and res.profile.events > 0


def test_processless_daemon_work_stays_in_the_daemon_row(monkeypatch):
    """The UNIX-socket forward and the peer and event-logger readers run
    as direct calls at arrival, not as processes; while a dispatch is
    sampled they report their time under the names their processes had,
    so the daemon row of the decomposition keeps that work."""
    reported: dict[str, int] = {}

    class EveryDispatch(KernelProfiler):
        def __init__(self):
            super().__init__(sample_every=1)

        def step_done(self, name, dt):
            reported[name] = reported.get(name, 0) + 1
            super().step_done(name, dt)

    monkeypatch.setattr(mpirun, "KernelProfiler", EveryDispatch)
    res = run_job(
        ring, 4, device="v2", params={"rounds": 8, "work": 0.01},
        profile=True,
    )
    families = {
        "socket forward": r"d\d\.fwd\.i0",
        "peer reader": r"d\d\.rx\de1\.i0",
        "event-logger reader": r"d\d\.el\.rx0\.i0",
    }
    steps = {
        family: sum(n for name, n in reported.items()
                    if re.fullmatch(pattern, name))
        for family, pattern in families.items()
    }
    # each of the 4 ranks reads and forwards 8 ring messages and reads
    # the event logger's acks of its 8 deliveries, at least
    assert all(n >= 4 * 8 for n in steps.values()), steps
    daemon = res.profile.service("daemon")
    assert daemon["steps"] >= sum(steps.values()), (daemon, steps)


def test_profiled_run_matches_unprofiled_results():
    """The probe must not perturb the simulation: same program, same
    seed, same simulated outcome with and without profiling."""
    plain = run_job(ring, 4, device="v2", params={"rounds": 6, "work": 0.01})
    probed = run_job(
        ring, 4, device="v2", params={"rounds": 6, "work": 0.01},
        profile=True,
    )
    assert probed.results == plain.results
    assert probed.elapsed == plain.elapsed
