"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_command(capsys):
    rc = main(["run", "cg", "--class", "T", "-n", "4", "--device", "v2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "CG-T" in out
    assert "Mop/s" in out


def test_run_with_faults_prints_reference_and_mechanism_stats(capsys):
    rc = main(["run", "cg", "--class", "S", "-n", "4", "--faults", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "reference s" in out and "slowdown" in out and "restarts" in out
    assert "replayed" in out and "ckpt MB" in out


def test_run_rejects_unknown_kernel():
    with pytest.raises(SystemExit):
        main(["run", "nope"])


@pytest.mark.parametrize(
    "verb", ["kernel", "faulty", "stats", "profile", "mttr", "trace", "audit",
             "pingpong", "burst", "sched"]
)
def test_retired_verbs_are_rejected_not_aliased(verb, capsys):
    with pytest.raises(SystemExit) as exc:
        main([verb, "cg", "--class", "T", "-n", "2"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_run_rejects_unknown_observer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "cg", "--class", "T", "--observe", "audit,bogus"])
    assert exc.value.code == 2
    assert "bogus" in capsys.readouterr().err


def test_run_rejects_fault_plan_on_p4(capsys):
    rc = main(["run", "cg", "--class", "T", "--device", "p4",
               "--faults", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "v2" in err


def test_run_rejects_negative_faults(capsys):
    rc = main(["run", "cg", "--class", "T", "-n", "2", "--faults", "-1"])
    assert rc == 2
    assert "--faults must be >= 0" in capsys.readouterr().err


def test_run_rejects_zero_ranks(capsys):
    # p4 so that a missing check fails fast (DeadlockError) instead of
    # hanging on V2's heartbeats
    rc = main(["run", "cg", "--class", "T", "-n", "0", "--device", "p4"])
    assert rc == 2
    assert "-n must be >= 1" in capsys.readouterr().err


def test_run_rejects_non_positive_fault_interval(capsys):
    rc = main(["run", "cg", "--class", "T", "-n", "2", "--faults", "1",
               "--fault-interval", "0"])
    assert rc == 2
    assert "--fault-interval must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag, spec", [
    ("--kill-at", "0.001:5"), ("--partitions", "0.001:0.01:0+7"),
])
def test_run_rejects_fault_ranks_outside_the_job(flag, spec, capsys):
    rc = main(["run", "cg", "--class", "T", "-n", "2", flag, spec])
    assert rc == 2
    assert f"{flag} rank" in capsys.readouterr().err


def test_run_rejects_ckpt_interval_off_v2(capsys):
    rc = main(["run", "cg", "--class", "T", "--device", "p4",
               "--ckpt-interval", "1"])
    assert rc == 2
    assert "--ckpt-interval requires --device v2" in capsys.readouterr().err


def test_observe_stats(capsys):
    rc = main(["run", "cg", "--class", "T", "-n", "2", "--observe", "stats"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "el.roundtrips" in out
    assert "senderlog.bytes" in out


def test_run_trace_out_writes_chrome_trace(tmp_path, capsys):
    import json

    path = tmp_path / "t.json"
    rc = main(["run", "cg", "--class", "T", "-n", "2",
               "--trace-out", str(path)])
    assert rc == 0
    doc = json.loads(path.read_text())
    assert doc["traceEvents"]
    assert any(e.get("ph") == "i" for e in doc["traceEvents"])


def test_report_out_stats_is_the_registry_export(tmp_path, capsys):
    import json

    path = tmp_path / "r.json"
    rc = main(["run", "cg", "--class", "T", "-n", "2", "--observe", "stats",
               "--report-out", str(path)])
    assert rc == 0
    doc = json.loads(path.read_text())
    assert list(doc) == ["run", "stats"]
    assert any(e["name"] == "el.roundtrips" for e in doc["stats"])


def test_observe_mttr_with_trace_out(tmp_path, capsys):
    """The per-fault recovery table names the host each incarnation ran
    on, and the Chrome trace carries the sampled series as counters."""
    import json

    path = tmp_path / "t.json"
    rc = main(["run", "cg", "--class", "T", "-n", "2", "--faults", "1",
               "--fault-interval", "0.05", "--trace-out", str(path),
               "--observe", "mttr"])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"wrote trace to {path}" in out
    table = out.split("per-fault phase decomposition")[1].splitlines()
    assert table[1].split()[:3] == ["rank", "host", "inc"]
    assert table[3].split()[:3] == ["1", "cn1", "1"]  # rank, host, inc
    events = json.loads(path.read_text())["traceEvents"]
    assert any(e["ph"] == "C" for e in events)


def test_observe_audit_clean_run_exits_zero(capsys):
    rc = main(["run", "cg", "--class", "T", "-n", "2", "--observe", "audit"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "audit verdict: clean" in out
    assert "waitlogged" in out and "gc-safety" in out
    assert "Mop/s" in out  # the run row is still there


def test_observe_audit_with_faults(capsys):
    rc = main(["run", "cg", "--class", "T", "-n", "2", "--faults", "1",
               "--fault-interval", "0.05", "--observe", "audit"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "audit verdict: clean" in out


def test_report_out_audit_carries_the_hb_graph(tmp_path, capsys):
    import json

    path = tmp_path / "r.json"
    rc = main(["run", "cg", "--class", "T", "-n", "2", "--observe", "audit",
               "--report-out", str(path)])
    assert rc == 0
    doc = json.loads(path.read_text())["audit"]
    assert doc["verdict"] == "clean"
    assert doc["checks"]["waitlogged"] > 0
    hb = doc["happens_before"]
    assert hb["nodes"] and hb["edges"]


def test_observe_audit_with_random_kill_on_class_s(capsys):
    rc = main(["run", "cg", "--class", "S", "-n", "4", "--faults", "1",
               "--observe", "audit"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "audit verdict: clean" in out


# The ids keep each case's name fixed as cases come and go.
@pytest.mark.parametrize("argv", [
    pytest.param(["run", "cg", "--class", "T", "-n", "2", "--observe",
                  "audit"], id="argv0"),
    pytest.param(["serve", "--jobs", "examples/serve_plan.json",
                  "--capacity", "8", "--svc-slots", "2"], id="argv3"),
])
def test_unclean_audit_exits_one(argv, monkeypatch, capsys):
    """The one exit rule: whatever attached the auditor, a verdict other
    than clean is exit 1 (``kernel --audit`` used to return 0)."""
    import repro.cli
    import repro.runtime.mpirun
    from repro.obs.audit import Violation

    def violate(res):
        if res.audit is not None:
            res.audit.violations.append(
                Violation(0.0, "waitlogged", 0, "seeded")
            )
        return res

    real_run = repro.runtime.mpirun.run_job
    real_plan = repro.cli.run_plan

    def run_job(*a, **kw):
        return violate(real_run(*a, **kw))

    def run_plan(*a, **kw):
        plane, handles = real_plan(*a, **kw)
        for h in handles:
            violate(h.result)
        return plane, handles

    monkeypatch.setattr(repro.cli, "run_job", run_job)
    monkeypatch.setattr(repro.runtime.mpirun, "run_job", run_job)
    monkeypatch.setattr(repro.cli, "run_plan", run_plan)
    assert main(argv) == 1
    assert "violations" in capsys.readouterr().out


@pytest.mark.parametrize("job", [
    pytest.param({"workload": "token_ring", "nranks": 2, "bogus": 1},
                 id="unknown-key"),
    pytest.param({"workload": "token_ring", "nranks": 2, "device": "v2",
                  "fault": {"kind": "kill", "rank": 9, "at": 0.01}},
                 id="fault-rank"),
    pytest.param({"workload": "bogus", "nranks": 2}, id="unknown-workload"),
])
def test_serve_rejects_a_bad_plan_as_a_usage_error(job, tmp_path, capsys):
    """A plan the plane refuses is exit 2 with a ``repro:`` line, not a
    traceback."""
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([job]))
    assert main(["serve", "--jobs", str(plan)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: ") and "job 0" in err


def test_serve_json_out(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([
        {"workload": "token_ring", "nranks": 2, "params": {"rounds": 3}},
        {"workload": "token_ring", "nranks": 2, "tenant": "b", "at": 0.01},
    ]))
    out = tmp_path / "serve.json"
    assert main(["serve", "--jobs", str(plan), "--json-out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["jobs"] == doc["summary"]["completed"] == 2
    assert [j["job"] for j in doc["jobs"]] == [0, 1]
    assert {j["tenant"] for j in doc["jobs"]} == {"default", "b"}
    assert all(j["device"] == "p4" and j["nranks"] == 2 for j in doc["jobs"])


def test_serve_reports_a_failed_job_without_a_traceback(
    tmp_path, capsys, monkeypatch
):
    """A job whose program raises is printed as failed and makes the
    exit status 1; the plane and the other job finish."""
    import repro.workloads

    def broken_ring(mpi, **params):
        yield from mpi.compute(seconds=0.01)
        return 1 // 0

    monkeypatch.setattr(repro.workloads, "token_ring", broken_ring)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([
        {"workload": "token_ring", "nranks": 2, "device": "v2"},
        {"workload": "pingpong", "nranks": 2, "tenant": "b",
         "params": {"nbytes": 8, "reps": 2}},
    ]))
    out = tmp_path / "serve.json"
    assert main(["serve", "--jobs", str(plan), "--json-out", str(out)]) == 1
    text = capsys.readouterr().out
    assert "job 0 failed: ZeroDivisionError" in text
    assert "2/2 jobs" in text
    doc = json.loads(out.read_text())
    assert doc["jobs"][0]["error"].startswith("ZeroDivisionError")
    assert doc["jobs"][1]["error"] is None
    assert doc["summary"]["failed"] == 1


def test_serve_closing_line_counts_the_failed_job(tmp_path, capsys):
    """A p4 BT job on a non-square rank count raises; the closing line
    still counts it among the finished jobs, but also says it failed."""
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([
        {"workload": "token_ring", "nranks": 2, "device": "v2"},
        {"workload": "bt", "nranks": 2, "device": "p4", "klass": "T"},
    ]))
    rc = main(["serve", "--jobs", str(plan), "--capacity", "4",
               "--svc-slots", "1"])
    text = capsys.readouterr().out
    assert rc == 1
    assert "job 1 failed: ValueError: BT/SP need a square process count" in text
    closing = text.strip().splitlines()[-1]
    assert closing.startswith("2/2 jobs in ")
    assert closing.endswith("; 1 failed, 0 timeouts, 0 audit violations")


def test_run_service_faults_and_partitions(capsys):
    rc = main(["run", "cg", "--class", "S", "-n", "4",
               "--service-faults", "el:0@0.3:0.5",
               "--partitions", "0.5:0.5:0+1", "--observe", "audit"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "audit verdict: clean" in out
    assert "outages:" in out
    assert "retries=" in out and "reconnects=" in out


def test_run_churn_plan(capsys):
    rc = main(["run", "cg", "--class", "S", "-n", "4", "--plan", "churn",
               "--faults", "1", "--mean-lifetime", "3.0", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "restarts" in out


def test_run_rejects_bad_partition_spec(capsys):
    rc = main(["run", "cg", "--class", "S", "-n", "2",
               "--partitions", "bogus"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "bad fault spec" in err


def test_fault_spec_parse_helpers():
    from repro.cli import (
        _parse_kills,
        _parse_partitions,
        _parse_service_faults,
    )

    assert _parse_kills("1.0:2, 3:1") == [(1.0, 2), (3.0, 1)]
    assert _parse_partitions("1.5:2.0:0+3, 4:1:2") == [
        (1.5, (0, 3), 2.0), (4.0, (2,), 1.0)]
    assert _parse_service_faults("el:0@2.0:1.0,cs:0@3:0.5") == [
        (2.0, "el:0", 1.0), (3.0, "cs:0", 0.5)]


def test_stats_prefix_filter(capsys):
    rc = main(["run", "cg", "--class", "T", "-n", "2", "--observe", "stats",
               "--prefix", "el."])
    out = capsys.readouterr().out
    assert rc == 0
    assert "el.roundtrips" in out
    assert "senderlog.bytes" not in out  # filtered out of both tables


def test_stats_top_filter(capsys):
    rc = main(["run", "cg", "--class", "T", "-n", "2", "--observe", "stats",
               "--top", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    # the totals table keeps only the 3 largest metrics; byte counters
    # dominate, so the small per-event counters must be gone
    totals = out.split("\n\n")[-1]
    assert len([ln for ln in totals.splitlines() if ln.strip()]) == 5
    assert "senderlog.ram_bytes" in totals


def test_observe_audit_and_profile_adds_critical_path(tmp_path, capsys):
    import json

    path = tmp_path / "r.json"
    rc = main(["run", "cg", "--class", "T", "-n", "2",
               "--observe", "audit,profile", "--report-out", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "events/s" in out
    assert "service CPU decomposition" in out
    assert "critical path" in out and "el-ack" in out
    doc = json.loads(path.read_text())
    assert doc["profile"]["events"] > 0
    assert doc["critical_path"]["span_s"] > 0


@pytest.mark.parametrize("observe", ["profile", "audit,profile"])
def test_observe_profile_on_p4_has_no_critical_path(observe, capsys):
    rc = main(["run", "cg", "--class", "T", "-n", "2", "--device", "p4",
               "--observe", observe])
    out = capsys.readouterr().out
    assert rc == 0
    assert "events/s" in out
    assert "critical path" not in out  # no hb graph outside v2


def test_one_run_composes_every_observer(tmp_path, capsys):
    """stats + audit + profile + mttr attach to a single simulation."""
    import json

    from repro.ft.failure import RandomFaults
    from repro.runtime.config import DEFAULT_TESTBED
    from repro.runtime.mpirun import run_job
    from repro.workloads import nas

    path = tmp_path / "r.json"
    rc = main(["run", "cg", "--class", "T", "-n", "2", "--faults", "1",
               "--seed", "1", "--observe", "stats,audit,profile,mttr",
               "--report-out", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    for section in ("senderlog.ram_bytes", "audit verdict: clean",
                    "service CPU decomposition", "critical path:",
                    "per-fault phase decomposition"):
        assert out.count(section) == 1, section
    doc = json.loads(path.read_text())
    assert list(doc) == ["run", "stats", "audit", "profile",
                         "critical_path", "mttr"]
    assert doc["audit"]["happens_before"]["nodes"]
    assert doc["mttr"]["completed"] == doc["run"]["restarts"] == 1
    assert doc["mttr"]["timeseries"]["series"]

    program = nas.KERNELS["cg"].program
    kw = dict(device="v2", cfg=DEFAULT_TESTBED, params={"klass": "T"},
              seed=1, limit=1e8)
    base = run_job(program, 2, **kw)
    assert doc["run"]["reference_elapsed"] == base.elapsed
    direct = run_job(
        program, 2, **kw, trace=True, audit=True, audit_hb=True,
        profile=True, timeseries=True, checkpointing=True,
        ckpt_policy="random", ckpt_continuous=True,
        faults=RandomFaults(interval=base.elapsed / 2, count=1, seed=1),
    )
    assert doc["run"]["elapsed"] == direct.elapsed
    assert doc["audit"]["checks"] == dict(direct.audit.checks)
