"""Observability layer: registry semantics, trace export, timelines.

Covers the metrics registry in isolation, the Chrome trace-event export
(valid JSON, monotonic microsecond timestamps, stable pid/tid mapping),
the recovery timeline reconstructed from an injected-fault run, and the
acceptance property that a V2 job exposes nonzero mechanism stats where
a P4 job exposes zeros.
"""

import json

import pytest

from repro.analysis.report import format_stats
from repro.ft.failure import ExplicitFaults
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    Metrics,
    chrome_trace,
    recovery_timeline,
    write_chrome_trace,
)
from repro.runtime.mpirun import run_job
from repro.simnet.trace import Tracer


def ring_prog(mpi, rounds=8, nbytes=2000, work=0.02):
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


# ---------------------------------------------------------------- registry


def test_counter_basics():
    m = Metrics()
    c = m.counter("x.count", rank=0)
    c.inc()
    c.inc(2.5)
    assert c.scalar() == pytest.approx(3.5)
    # get-or-create: same (name, labels) returns the same instance
    assert m.counter("x.count", rank=0) is c
    assert m.counter("x.count", rank=1) is not c


def test_counter_rejects_negative():
    c = Metrics().counter("x")
    with pytest.raises(ValueError):
        c.inc(-1)


def test_kind_mismatch_raises():
    m = Metrics()
    m.counter("x", rank=0)
    with pytest.raises(TypeError):
        m.gauge("x", rank=0)


def test_gauge_time_weighted_average():
    m = Metrics()
    g = m.gauge("occ", rank=0)
    g.set(10.0, now=0.0)
    g.set(20.0, now=1.0)  # held 10 for [0,1)
    g.set(0.0, now=3.0)  # held 20 for [1,3)
    assert g.value == 0.0
    assert g.peak == 20.0
    assert g.time_avg(3.0) == pytest.approx((10 * 1 + 20 * 2) / 3)


def test_histogram_buckets_and_stats():
    m = Metrics()
    h = m.histogram("lat", bounds=(0.1, 1.0, 10.0), rank=0)
    for v in (0.05, 0.5, 5.0, 50.0):
        h.observe(v)
    assert h.count == 4
    assert h.sum == pytest.approx(55.55)
    assert h.min == 0.05 and h.max == 50.0
    exp = h.export()
    assert exp["buckets"]["le_0.1"] == 1
    assert exp["buckets"]["le_1"] == 1
    assert exp["buckets"]["le_10"] == 1
    assert exp["buckets"]["overflow"] == 1


def test_histogram_sample_on_a_bound_is_filed_under_that_bound():
    h = Histogram("lat", {}, bounds=(0.1, 1.0, 10.0))
    h.observe(1.0)
    h.observe(20.0)
    assert h.export()["buckets"] == {"le_1": 1, "overflow": 1}
    assert h.quantile(0.5) == 1.0  # its own bound, not the next one up
    h.observe(0.1)
    assert h.export()["buckets"]["le_0.1"] == 1
    assert h.quantile(1 / 3) == 0.1


def test_histogram_quantile_is_the_bucket_bound_clamped_to_the_max():
    h = Histogram("lat", {}, bounds=(0.1, 1.0, 10.0))
    assert h.quantile(0.5) == 0.0  # no sample yet
    for v in (0.05, 0.5, 0.7, 5.0):
        h.observe(v)
    assert h.quantile(0.25) == 0.1  # upper bound of the q-th's bucket
    assert h.quantile(0.5) == h.quantile(0.75) == 1.0
    assert h.quantile(1.0) == 5.0  # bound 10.0 clamped to the max
    h.observe(50.0)  # past the last bound: the max answers
    assert h.quantile(1.0) == 50.0


def test_registry_quantile_merges_label_sets():
    m = Metrics()
    bounds = (0.1, 1.0, 10.0)
    assert m.quantile("lat", 0.5) == 0.0  # no such histogram
    m.histogram("lat", bounds=bounds, rank=3)  # bound, never observed
    assert m.quantile("lat", 0.5) == 0.0
    m.histogram("lat", bounds=bounds, rank=0).observe(0.05)
    assert m.quantile("lat", 1.0) == 0.05  # one label set: its own max
    m.histogram("lat", bounds=bounds, rank=1).observe(0.5)
    m.histogram("lat", bounds=bounds, rank=1).observe(0.6)
    m.histogram("lat", bounds=bounds, rank=2).observe(3.0)
    m.histogram("other", bounds=bounds, rank=0).observe(9.0)  # not merged
    assert m.quantile("lat", 0.25) == 0.1
    assert m.quantile("lat", 0.5) == m.quantile("lat", 0.75) == 1.0
    assert m.quantile("lat", 1.0) == 3.0  # the max over every label set


def test_registry_shares_one_label_set_per_distinct_labels():
    m = Metrics()
    caller = {"rank": 0, "peer": 1}
    a = m.counter("peer.bytes", **caller)
    b = m.gauge("peer.depth", peer=1, rank=0)  # same set, other order
    c = m.counter("peer.bytes", rank=1, peer=1)
    name = "".join(["dev.", "msgs"])  # a fresh string, as an f-string makes
    d = m.counter(name, rank=0, peer=1)
    assert a.labels is b.labels is d.labels
    assert c.labels is not a.labels and c.labels == {"rank": 1, "peer": 1}
    assert d.name is m.counter("dev.msgs", peer=1, rank=0).name
    caller["rank"] = 7  # the caller's dict is not the registry's
    assert a.labels == {"rank": 0, "peer": 1}
    assert m.counter("peer.bytes", rank=0, peer=1) is a
    a.inc(3)
    c.inc(4)
    d.inc(1)
    assert m.export() == [
        {"name": "peer.bytes", "kind": "counter",
         "labels": {"rank": 0, "peer": 1}, "value": 3.0},
        {"name": "peer.depth", "kind": "gauge",
         "labels": {"rank": 0, "peer": 1}, "value": 0.0, "peak": 0.0},
        {"name": "peer.bytes", "kind": "counter",
         "labels": {"rank": 1, "peer": 1}, "value": 4.0},
        {"name": "dev.msgs", "kind": "counter",
         "labels": {"rank": 0, "peer": 1}, "value": 1.0},
    ]
    assert m.by_label("rank") == {
        0: {"peer.bytes": 3.0, "peer.depth": 0.0, "dev.msgs": 1.0},
        1: {"peer.bytes": 4.0},
    }
    assert m.snapshot() == {"peer.bytes": 7.0, "peer.depth": 0.0,
                            "dev.msgs": 1.0}


def test_registry_total_and_by_label():
    m = Metrics()
    m.counter("bytes", rank=0).inc(10)
    m.counter("bytes", rank=1).inc(32)
    m.counter("other", host="h0").inc(5)
    assert m.total("bytes") == 42
    assert m.total("bytes", rank=1) == 32
    assert m.total("missing", default=-1.0) == -1.0
    by = m.by_label("rank")
    assert by[0]["bytes"] == 10 and by[1]["bytes"] == 32
    assert "other" not in by.get(0, {})
    snap = m.snapshot()
    assert snap["bytes"] == 42 and snap["other"] == 5


def test_registry_export_shapes():
    m = Metrics()
    m.counter("c", rank=0).inc()
    m.gauge("g", rank=0).set(2.0, now=1.0)
    m.histogram("h", rank=0).observe(0.5)
    kinds = {e["kind"] for e in m.export()}
    assert kinds == {"counter", "gauge", "histogram"}
    assert len(m) == 3
    json.dumps(m.export())  # export must be JSON-serialisable


# -------------------------------------------------------------- retention


def test_tracer_unbounded_by_default():
    t = Tracer(enabled=True)
    for i in range(100):
        t.emit(float(i), "x", i=i)
    assert len(t) == 100
    assert [r["i"] for r in t.records] == list(range(100))


# ------------------------------------------------------------ trace export


@pytest.fixture(scope="module")
def traced_run():
    return run_job(ring_prog, 3, device="v2", trace=True)


def test_chrome_trace_is_valid_json(traced_run, tmp_path):
    path = tmp_path / "t.json"
    n = write_chrome_trace(traced_run.tracer, str(path))
    assert n == len(traced_run.tracer)
    doc = json.loads(path.read_text())
    assert doc["displayTimeUnit"] == "ms"
    assert len([e for e in doc["traceEvents"] if e.get("ph") == "i"]) == n


def test_chrome_trace_monotonic_and_microseconds(traced_run):
    doc = chrome_trace(traced_run.tracer)
    events = [e for e in doc["traceEvents"] if e.get("ph") == "i"]
    ts = [e["ts"] for e in events]
    assert ts == sorted(ts)  # tracer emits in simulated-time order
    # ts is microseconds: last event matches the last record's time
    assert ts[-1] == pytest.approx(traced_run.tracer.records[-1].time * 1e6)
    for e in events:
        assert e["s"] == "t" and isinstance(e["pid"], int)


def test_chrome_trace_pid_tid_mapping(traced_run):
    doc = chrome_trace(traced_run.tracer)
    names = {}
    for e in doc["traceEvents"]:
        if e.get("ph") == "M" and e["name"] == "process_name":
            names[e["pid"]] = e["args"]["name"]
    # every instant event's pid has a registered track name
    tracks = set()
    for e in doc["traceEvents"]:
        if e.get("ph") == "i":
            assert e["pid"] in names
            tracks.add(names[e["pid"]])
    # a V2 run populates rank, host and event-logger tracks
    assert any(t.startswith("rank") for t in tracks)
    assert any(t.startswith("host:") for t in tracks)
    assert "event-logger" in tracks


# -------------------------------------------------------- recovery timeline


@pytest.fixture(scope="module")
def faulty_run():
    return run_job(
        ring_prog,
        4,
        device="v2",
        trace=True,
        faults=ExplicitFaults([(0.1, 2)]),
    )


def test_recovery_timeline_spans(faulty_run):
    spans = recovery_timeline(faulty_run.tracer)
    assert len(spans) == 1
    s = spans[0]
    assert s.rank == 2
    assert s.fault_t == pytest.approx(0.1)
    assert s.detect_t is not None and s.detect_t >= s.fault_t
    assert s.respawn_t is not None and s.respawn_t >= s.detect_t
    assert s.caught_up_t is not None and s.caught_up_t >= s.respawn_t
    assert s.downtime_s == pytest.approx(s.respawn_t - s.fault_t)
    assert s.recovery_s == pytest.approx(s.caught_up_t - s.fault_t)
    assert s.incarnation >= 1
    d = s.as_dict()
    assert d["rank"] == 2 and d["caught_up_t"] == s.caught_up_t


def test_recovery_timeline_empty_without_faults(traced_run):
    assert recovery_timeline(traced_run.tracer) == []


def test_faulty_trace_has_dispatcher_track(faulty_run):
    doc = chrome_trace(faulty_run.tracer)
    names = {
        e["args"]["name"]
        for e in doc["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "process_name"
    }
    assert "dispatcher" in names  # ft.* events land on the dispatcher track


def test_faulty_run_counts_replayed_deliveries(faulty_run):
    assert faulty_run.stat("ft.faults") == 1
    assert faulty_run.stat("ft.restarts") == 1
    assert faulty_run.stat("deliveries.replayed") > 0
    assert faulty_run.stat("ckpt.bytes", default=-1.0) >= 0


# ------------------------------------------------------- job-level stats


@pytest.fixture(scope="module")
def v2_run():
    return run_job(ring_prog, 3, device="v2")


@pytest.fixture(scope="module")
def p4_run():
    return run_job(ring_prog, 3, device="p4")


def test_v2_stats_nonzero(v2_run):
    # acceptance: the core mechanism signals must be live on V2
    assert v2_run.stat("el.roundtrips") > 0
    assert v2_run.stat("gate.stall_s") > 0
    assert v2_run.stat("senderlog.bytes") > 0
    assert v2_run.stat("net.bytes") > 0
    assert v2_run.stat("deliveries.fresh") > 0
    assert v2_run.stat("deliveries.replayed") == 0  # fault-free


def test_p4_stats_zero_for_v2_mechanisms(p4_run):
    assert p4_run.stat("el.roundtrips") == 0
    assert p4_run.stat("gate.stall_s") == 0
    assert p4_run.stat("senderlog.bytes") == 0
    assert p4_run.stat("net.bytes") > 0  # but the network is still metered


def test_metrics_off_when_absent():
    from repro.runtime.results import JobResult

    res = JobResult(nprocs=1, device="p4", elapsed=0.0, results=[], timers={})
    assert res.stat("anything", default=7.0) == 7.0


# ------------------------------------------------------------- formatters


def test_format_stats_renders_tables(v2_run):
    text = format_stats(v2_run.metrics)
    assert "rank" in text
    assert "el.roundtrips" in text
    assert "metric" in text and "total" in text


def test_format_stats_empty_registry():
    assert format_stats(Metrics()) == "(no metrics recorded)"


# ------------------------------------------------- overhead / compatibility


def test_counters_survive_restart(faulty_run):
    # the restarted rank keeps accumulating into the same labelled series
    assert faulty_run.stat("senderlog.bytes", rank=2) > 0
    assert faulty_run.stat("el.roundtrips", rank=2) > 0


def test_metrics_do_not_change_simulated_time():
    # observability must be free in simulated time: elapsed matches a
    # reference value only if no metric path adds timeouts
    a = run_job(ring_prog, 3, device="v2").elapsed
    b = run_job(ring_prog, 3, device="v2", trace=True).elapsed
    assert a == b


def test_histogram_export_names():
    exp = Counter.__name__, Gauge.__name__, Histogram.__name__
    assert exp == ("Counter", "Gauge", "Histogram")
