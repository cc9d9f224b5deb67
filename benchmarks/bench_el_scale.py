"""Event-logger scaling: sharding and replication under a replica kill.

The paper prices the pessimistic-logging tax as the event-logger round
trip gating every send (Table 1) — and assumes the logger itself is
reliable.  This benchmark drops both simplifications at once: it sweeps
the EL replication group's two knobs (``el_servers`` shards ×
``el_replicas`` copies) on CG-A-8 and, for every replicated
configuration, kills one replica mid-run.  Three claims are gated:

- **availability** — with K=3 (majority quorum 2) the kill is absorbed:
  the job completes with a clean audit, zero rank restarts, and the
  relaunched replica resyncs from its peers;
- **scaling** — sharding ranks across EL servers reduces the el-ack
  share of the protocol's critical path (the WAITLOGGED tax) versus the
  single-server baseline, because each shard serves fewer ranks;
- **regression gate** — the killed-replica run's elapsed time must not
  exceed the checked-in ``BENCH_el_scale.json`` baseline by more than
  ``REGRESSION_BUDGET`` (simulated time on a fixed seed: deterministic).

Run as ``python benchmarks/bench_el_scale.py`` (not part of the tier-1
suite); ``gate.py`` compares it with the committed ``BENCH_el_scale.json``,
writes the result to ``benchmarks/out/`` and sets the exit code.
"""

from __future__ import annotations

from repro.analysis.report import Report
from repro.ft.failure import ServiceFaults
from repro.obs.profile import critical_path
from repro.runtime.config import DEFAULT_TESTBED
from repro.runtime.mpirun import run_job
from repro.workloads import nas

import gate
from conftest import full_sweep

#: (el_servers, el_replicas) swept; (1, 1) is the paper's reliable-EL shape
CONFIGS = ((1, 1), (2, 1), (1, 3), (2, 3))
FULL_CONFIGS = CONFIGS + ((4, 3),)
KILL_AT = 1.0  # simulated seconds; CG-A-8 runs ~3.3 s
DOWNTIME = 0.8  # relaunch + peer resync land well before the job ends
SEED = 1
REGRESSION_BUDGET = 0.20  # killed-run elapsed vs the checked-in baseline


def el_ack_share(res) -> tuple[float, float]:
    """The el-ack share of an ``audit_hb`` run's critical path (the
    WAITLOGGED tax), and the path's span in simulated seconds."""
    cp = critical_path(res.audit.hb)
    share = next(
        (c["share"] for c in cp["contributions"] if c["category"] == "el-ack"),
        0.0,
    )
    return share, cp["span_s"]


def _run_config(servers: int, replicas: int, nprocs: int, klass: str) -> dict:
    cfg = DEFAULT_TESTBED.with_(el_servers=servers, el_replicas=replicas)
    # replicated configurations take a mid-run replica kill (replica 1 of
    # shard 0); K=1 has no redundant copy to lose without data loss
    faults = (
        [ServiceFaults([(KILL_AT, "el:0.1", DOWNTIME)])]
        if replicas > 1
        else None
    )
    res = run_job(
        nas.cg.program, nprocs, device="v2", cfg=cfg,
        params={"klass": klass}, limit=1e8, seed=SEED,
        faults=faults, audit=True, audit_hb=True,
    )
    m = res.metrics
    shard_cpu = {}
    for metric in m:
        if metric.name == "el.cpu_s":
            key = str(metric.labels.get("shard", 0))
            shard_cpu[key] = shard_cpu.get(key, 0.0) + metric.value
    return {
        "el_servers": servers,
        "el_replicas": replicas,
        "quorum": min(replicas, cfg.el_quorum),
        "killed_replica": "el:0.1" if replicas > 1 else None,
        "elapsed": res.elapsed,
        "restarts": res.restarts,
        "audit_clean": res.audit.clean,
        "el_ack_share": el_ack_share(res)[0],
        "quorum_wait_p95_s": m.quantile("el.quorum_wait_s", 0.95),
        "failovers": int(m.total("el.failovers")),
        "resyncs": int(m.total("el.resyncs")),
        "events_resynced": int(m.total("el.events_resynced")),
        "shard_cpu_s": shard_cpu,
    }


def measure(nprocs: int = 8, klass: str = "A") -> dict:
    """Sweep shard/replica configurations; one replica kill per K>1 run."""
    configs = FULL_CONFIGS if full_sweep() else CONFIGS
    sweep = [_run_config(s, k, nprocs, klass) for s, k in configs]
    base = next(
        r for r in sweep if r["el_servers"] == 1 and r["el_replicas"] == 1
    )
    multi = [r for r in sweep if r["el_servers"] > 1]
    return {
        "kernel": "cg",
        "klass": klass,
        "nprocs": nprocs,
        "seed": SEED,
        "kill_at_s": KILL_AT,
        "downtime_s": DOWNTIME,
        "sweep": sweep,
        "baseline_el_ack_share": base["el_ack_share"],
        "best_sharded_el_ack_share": min(r["el_ack_share"] for r in multi),
        "regression_budget": REGRESSION_BUDGET,
    }


def check(out: dict, base: dict) -> list:
    problems = []
    for row in out["sweep"]:
        tag = f"{row['el_servers']}x{row['el_replicas']}"
        problems.append(gate.holds(row["audit_clean"],
                                   f"{tag}: audit reported violations"))
        if row["el_replicas"] > 1:
            problems += [
                gate.at_most(f"{tag}: rank restarts after a replica kill "
                             f"(the quorum must absorb it)", row["restarts"], 0),
                gate.at_least(f"{tag}: client failovers (none means the "
                              f"kill did not land)", row["failovers"], 1),
                gate.at_least(f"{tag}: relaunched-replica resyncs",
                              row["resyncs"], 1),
            ]
    problems.append(gate.holds(
        out["best_sharded_el_ack_share"] < out["baseline_el_ack_share"],
        f"sharding never reduced the el-ack critical-path share: best "
        f"sharded {out['best_sharded_el_ack_share']:.3f} vs single-server "
        f"{out['baseline_el_ack_share']:.3f}",
    ))
    problems.append(gate.growth(
        "2x3 killed-replica elapsed s", _row(out, "2x3")["elapsed"],
        (_row(base, "2x3") or {}).get("elapsed"), REGRESSION_BUDGET,
    ))
    return problems


def _row(out: dict, tag: str):
    return next((r for r in out.get("sweep", ())
                 if f"{r['el_servers']}x{r['el_replicas']}" == tag), None)


def table(out: dict) -> str:
    base_elapsed = out["sweep"][0]["elapsed"]
    rep = Report(
        f"EL scaling - CG-{out['klass']}-{out['nprocs']} shard/replica sweep"
    )
    rep.table(
        ["SxK", "quorum", "killed", "elapsed s", "vs 1x1", "el-ack share",
         "qwait p95 us", "failovers", "resyncs", "audit"],
        [[f"{row['el_servers']}x{row['el_replicas']}", row["quorum"],
          row["killed_replica"] or "-", row["elapsed"],
          row["elapsed"] / base_elapsed, row["el_ack_share"],
          row["quorum_wait_p95_s"] * 1e6, row["failovers"], row["resyncs"],
          "clean" if row["audit_clean"] else "VIOLATIONS"]
         for row in out["sweep"]],
    )
    rep.add(
        f"el-ack critical-path share: {out['baseline_el_ack_share']:.3f} "
        f"single-server -> {out['best_sharded_el_ack_share']:.3f} best sharded"
    )
    return rep.render()


if __name__ == "__main__":
    gate.run("el_scale", measure, check, table)
