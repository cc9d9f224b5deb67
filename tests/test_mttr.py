"""Recovery attribution: phase decomposition, aborted spans, telemetry.

Covers the PR-7 observability layer end to end: phase markers along the
whole recovery arc reconcile exactly with ``RestartSpan.recovery_s``, a
second fault mid-recovery aborts-and-chains instead of corrupting the
timeline, ``ComposedFaults`` runs (kill + partition + store-replica
crash) keep every phase attributable with a clean audit, the
time-series sampler rings are bounded and exportable, and the ``repro
mttr`` CLI prints the decomposition.
"""

import json

import pytest

from repro.analysis.report import format_mttr, format_timeline
from repro.cli import main
from repro.ft.failure import ExplicitFaults, PartitionFaults, ServiceFaults
from repro.obs import (
    Metrics,
    RecoveryAttribution,
    TimeseriesSampler,
    chrome_trace,
    counter_events,
    recovery_timeline,
)
from repro.obs.timeline import quantile
from repro.runtime.config import DEFAULT_TESTBED
from repro.runtime.mpirun import run_job
from repro.simnet.trace import Tracer
from repro.workloads import nas
from repro.workloads.pingpong import pingpong


def ring_prog(mpi, rounds=30, nbytes=2000, work=0.02):
    """Token ring (mirrors the fault-tolerance suite's workload)."""
    nxt = (mpi.rank + 1) % mpi.size
    prv = (mpi.rank - 1) % mpi.size
    token = [0]
    for _ in range(rounds):
        if mpi.rank == 0:
            yield from mpi.send(nxt, nbytes=nbytes, tag=0, data=list(token))
            msg = yield from mpi.recv(source=prv, tag=0)
            token = [msg.data[0] + 1] + msg.data[1:]
        else:
            msg = yield from mpi.recv(source=prv, tag=0)
            token = msg.data + [mpi.rank]
            yield from mpi.send(nxt, nbytes=nbytes, tag=0, data=token)
        yield from mpi.compute(seconds=work)
    return token


@pytest.fixture(scope="module")
def ckpt_faulty_run():
    """One kill on a checkpointing run: the full recovery arc fires."""
    return run_job(
        ring_prog, 4, device="v2", trace=True, seed=1, limit=600,
        params={"rounds": 60},
        checkpointing=True, ckpt_policy="random", ckpt_continuous=True,
        ckpt_interval=0.3,
        faults=ExplicitFaults([(1.0, 2)]),
        timeseries=0.25,
    )


# ------------------------------------------------- phase decomposition


def test_every_phase_marker_present(ckpt_faulty_run):
    att = RecoveryAttribution.from_trace(ckpt_faulty_run.tracer)
    assert len(att.completed) == 1 and not att.aborted
    s = att.completed[0]
    assert s.rank == 2
    assert s.detect_source == "socket"
    # every arc timestamp in order
    assert s.fault_t <= s.detect_t <= s.respawn_t
    assert s.respawn_t <= s.replay_start_t <= s.caught_up_t
    # restore-window sub-phases all fired
    assert s.fetch_start_t is not None and s.fetch_done_t is not None
    assert s.fetch_found is True and s.fetch_bytes > 0 and s.fetch_chunks > 0
    assert s.el_download_t is not None and s.el_events is not None
    assert s.resync_t is not None and s.resync_peers >= 1
    b = att.breakdown(s)
    assert set(b) == set(att.PHASES)
    assert all(b[p] is not None and b[p] >= 0 for p in att.PHASES)


def test_phase_sums_reconcile_exactly(ckpt_faulty_run):
    att = RecoveryAttribution.from_trace(ckpt_faulty_run.tracer)
    for s in att.completed:
        err = att.reconcile(s)
        assert err is not None and err < 1e-9
    assert att.as_dict()["max_reconcile_err_s"] < 1e-9


def test_mttr_and_phase_stats(ckpt_faulty_run):
    att = RecoveryAttribution.from_trace(ckpt_faulty_run.tracer)
    mttr = att.mttr()
    assert mttr["n"] == 1
    assert mttr["p50"] == mttr["p95"] == mttr["mean"] == mttr["max"]
    stats = att.phase_stats()
    assert set(stats) == set(att.PHASES)
    # detect + respawn are the configured dispatcher delays
    assert stats["detect"]["p50"] == pytest.approx(
        DEFAULT_TESTBED.restart_detect_delay
    )
    assert stats["respawn"]["p50"] == pytest.approx(
        DEFAULT_TESTBED.restart_spawn_delay
    )
    totals = att.totals()
    assert totals["fetch_bytes"] > 0 and totals["el_events"] > 0
    # the whole attribution round-trips through JSON
    json.dumps(att.as_dict())


def test_format_mttr_renders(ckpt_faulty_run):
    att = RecoveryAttribution.from_trace(ckpt_faulty_run.tracer)
    text = format_mttr(att)
    assert "per-fault phase decomposition" in text
    assert "detect" in text and "resync" in text and "replay" in text
    assert "reconcile" in text
    assert format_mttr(None).startswith("(no attribution")
    assert format_mttr(RecoveryAttribution([])).startswith("(no faults")


# ------------------------------------------- aborted spans / chaining


@pytest.fixture(scope="module")
def refault_run():
    """A second fault strikes rank 2 mid-recovery.

    The partition stalls incarnation 1's rejoin (its host is cut off
    right after the respawn), so the 3.0 s kill lands while the first
    arc is still open — and because the partitioned-but-alive daemon
    went heartbeat-quiet, the second detection is attributed to the
    heartbeat monitor, not the socket detector.
    """
    return run_job(
        ring_prog, 4, device="v2", trace=True, seed=3, limit=600,
        params={"rounds": 40, "work": 0.05},
        faults=[
            ExplicitFaults([(0.5, 2), (3.0, 2)]),
            PartitionFaults([(1.0, (2,), 3.0)]),
        ],
    )


def test_second_fault_aborts_and_chains(refault_run):
    att = RecoveryAttribution.from_trace(refault_run.tracer)
    assert len(att.spans) == 2
    first, second = att.spans
    assert first.aborted and first.aborted_by == "fault"
    assert first.aborted_t == pytest.approx(3.0)
    assert first.caught_up_t is None and first.recovery_s is None
    assert second.chained_from == first.incarnation == 1
    assert second.completed and second.incarnation == 2
    # aborted arcs never pollute the MTTR distribution
    assert att.mttr()["n"] == 1
    assert len(att.aborted) == 1 and len(att.incomplete) == 0


def test_detect_source_split(refault_run):
    att = RecoveryAttribution.from_trace(refault_run.tracer)
    first, second = att.spans
    assert first.detect_source == "socket"
    assert second.detect_source == "heartbeat"
    by_src = att.detect_by_source()
    assert by_src["socket"]["n"] == 1 and by_src["heartbeat"]["n"] == 1
    # the histogram side carries the same split
    m = refault_run.metrics
    counts = {
        h.labels["source"]: h.count
        for h in m
        if h.name == "disp.detect_latency_s" and h.count
    }
    assert counts == {"socket": 1, "heartbeat": 1}


def test_timeline_table_marks_aborted(refault_run):
    spans = recovery_timeline(refault_run.tracer)
    text = format_timeline(spans)
    assert "aborted:fault" in text
    assert "supersedes i1" in text


# ------------------------------------------------- composed faults


def test_composed_faults_timeline_and_audit():
    """Kill + store-replica crash + partition in one run: every phase
    stays attributable, the failover is counted, the audit stays clean."""
    cfg = DEFAULT_TESTBED.with_(ckpt_servers=3, ckpt_replicas=2)
    res = run_job(
        ring_prog, 4, device="v2", cfg=cfg, trace=True, seed=5, limit=600,
        params={"rounds": 60},
        checkpointing=True, ckpt_policy="random", ckpt_interval=0.3,
        ckpt_continuous=True, audit=True,
        faults=[
            ExplicitFaults([(1.0, 2)]),
            ServiceFaults([(0.9, "cs:0", 3.0)]),
            PartitionFaults([(3.5, (0,), 0.5)]),
        ],
    )
    assert res.audit is not None and res.audit.clean
    att = RecoveryAttribution.from_trace(res.tracer)
    assert len(att.completed) >= 1
    s = att.completed[0]
    assert s.rank == 2
    b = att.breakdown(s)
    assert all(b[p] is not None for p in att.PHASES)
    assert att.reconcile(s) < 1e-9
    # the dead replica forced the fetch onto a failover target
    assert s.fetch_failovers >= 1 and s.fetch_found is True
    assert res.stat("store.fetch_bytes") > 0


# ------------------------------------------------- time-series sampler


def test_timeseries_sampler_on_run(ckpt_faulty_run):
    ts = ckpt_faulty_run.timeseries
    assert ts is not None and ts.interval == 0.25
    assert "disp.recovering" in ts.series
    values = [v for _, v in ts.series["disp.recovering"]]
    assert max(values) >= 1.0  # the outstanding recovery was sampled
    assert values[-1] == 0.0  # and it drained by job end
    times = [t for t, _ in ts.series["disp.recovering"]]
    assert times == sorted(times)
    # the JSON document carries the same samples
    doc = json.loads(json.dumps(ts.as_dict()))
    assert doc["interval"] == 0.25
    assert [t for t, _ in doc["series"]["disp.recovering"]] == times


def test_recovery_gauge_does_not_ride_the_trace_stream():
    """An untraced, unaudited V2 job keeps its tracer cold for its whole
    life: the dispatcher learns of a caught-up rank by a direct call, not
    a subscription, and the ``disp.recovering`` gauge still rises and
    drains with the pinned values at the pinned simulated instants."""
    res = run_job(
        nas.KERNELS["cg"].program, 4, device="v2", params={"klass": "S"},
        timeseries=True, faults=ExplicitFaults([(0.05, 1), (0.12, 3)]),
        limit=1000.0,
    )
    assert res.restarts == 2
    assert res.tracer.hot is False and not res.tracer._subs
    series = list(res.timeseries.series["disp.recovering"])
    assert max(v for _, v in series) == 2.0 and series[-1][1] == 0.0
    # sample for sample, and the time-weighted mean pins every set()
    assert res.elapsed == 2.1885321839362954
    assert series == [
        (0.0, 0.0), (0.5, 2.0), (1.0, 2.0), (1.5, 0.0), (2.0, 0.0),
        (res.elapsed, 0.0),
    ]
    gauge = res.metrics.gauge("disp.recovering")
    assert gauge.time_avg(res.elapsed) == 1.1894018519367353


def test_unobserved_pingpong_emits_nothing(monkeypatch):
    """Every per-message emit site is guarded by ``tracer.hot``; on an
    unobserved fault-free run none of them reaches ``Tracer.emit``."""
    calls = []
    emit = Tracer.emit

    def counting(self, *args, **fields):
        calls.append(args[1])
        return emit(self, *args, **fields)

    monkeypatch.setattr(Tracer, "emit", counting)
    res = run_job(
        pingpong, 2, device="v2", params={"nbytes": 0, "reps": 50}
    )
    assert res.results[0] > 0
    assert calls == []


def test_timeseries_ring_is_bounded():
    m = Metrics()
    g = m.gauge("session.queue_depth")
    ts = TimeseriesSampler(m, interval=1.0, max_samples=4)
    for i in range(8):
        g.set(float(i))
        ts.sample(float(i))
    ring = ts.series["session.queue_depth"]
    assert len(ring) == 4
    assert ts.dropped == 4
    assert [v for _, v in ring] == [4.0, 5.0, 6.0, 7.0]
    # re-sampling the same instant is a no-op
    ts.sample(7.0)
    assert len(ring) == 4


def test_timeseries_prefix_selection():
    m = Metrics()
    m.counter("sched.ckpt_retry").inc(3)
    m.counter("el.cpu_s").inc(0.5)
    m.counter("dev.msgs_sent").inc(100)  # not selected
    ts = TimeseriesSampler(m, interval=1.0)
    ts.sample(1.0)
    assert "sched.ckpt_retry" in ts.series  # prefix match
    assert "el.cpu_s" in ts.series  # exact match
    assert "dev.msgs_sent" not in ts.series


def test_from_flag():
    m = Metrics()
    assert TimeseriesSampler.from_flag(m, True).interval == 0.5
    assert TimeseriesSampler.from_flag(m, 2).interval == 2.0
    with pytest.raises(ValueError):
        TimeseriesSampler(m, interval=0.0)


# ------------------------------------------------- chrome counter export


def test_counter_events_shape():
    tracks = {"disp.recovering": [(0.0, 0.0), (1.0, 2.0)]}
    evs = counter_events(tracks)
    assert evs[0]["ph"] == "M" and evs[0]["args"]["name"] == "telemetry"
    counters = [e for e in evs if e["ph"] == "C"]
    assert len(counters) == 2
    assert counters[1]["ts"] == pytest.approx(1e6)
    assert counters[1]["args"] == {"disp.recovering": 2.0}
    assert counter_events({}) == []


def test_chrome_trace_with_counters(ckpt_faulty_run, tmp_path):
    tracks = ckpt_faulty_run.timeseries.counter_tracks()
    doc = chrome_trace(ckpt_faulty_run.tracer, counters=tracks)
    by_ph = {}
    for e in doc["traceEvents"]:
        by_ph[e["ph"]] = by_ph.get(e["ph"], 0) + 1
    assert by_ph.get("C", 0) == sum(len(v) for v in tracks.values())
    # counter track rides a dedicated pid, disjoint from event tracks
    event_pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "i"}
    counter_pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "C"}
    assert counter_pids and not (event_pids & counter_pids)
    json.dumps(doc)
    # without counters the document is unchanged from the classic shape
    plain = chrome_trace(ckpt_faulty_run.tracer)
    assert not any(e["ph"] == "C" for e in plain["traceEvents"])


# ------------------------------------------------- helpers / CLI


def test_quantile():
    assert quantile([], 0.5) is None
    assert quantile([3.0], 0.95) == 3.0
    assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
    assert quantile([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0
    assert quantile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0


def test_cli_mttr_smoke(capsys, tmp_path):
    report_out = tmp_path / "r.json"
    rc = main([
        "run", "cg", "--class", "S", "-n", "4",
        "--kill-at", "1.0:2", "--seed", "1", "--ckpt-interval", "5",
        "--observe", "mttr", "--report-out", str(report_out),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "per-fault phase decomposition" in out
    assert "detection latency by source" in out
    doc = json.loads(report_out.read_text())["mttr"]
    assert doc["completed"] >= 1
    assert doc["max_reconcile_err_s"] < 1e-9
    assert doc["timeseries"]["interval"] == 0.5
    assert doc["timeseries"]["series"]


def test_cli_faulty_run_surfaces_detect_latency(capsys):
    rc = main(["run", "cg", "--class", "S", "-n", "4",
               "--faults", "1", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "detection latency by source" in out
    assert "socket" in out
