"""Recovery attribution under churn: MTTR stays flat as churn climbs.

The paper's Figures 10-11 argue that a crashed rank rejoins quickly; the
ROADMAP's cloud-scale-churn direction needs the stronger property that
*mean time to recovery stays flat as the churn rate climbs* — each
recovery is an independent detect / respawn / fetch / el-download /
resync / replay arc whose cost is set by the checkpoint image and the
replay tail, not by how often faults arrive.

This benchmark sweeps the churn rate (mean node lifetime) on CG-A-8 and
records, per rate, the phase-decomposed MTTR distribution from
:class:`repro.obs.timeline.RecoveryAttribution`.  Three gates:

- **reconciliation** — each completed arc's contiguous phase durations
  (detect + respawn + restore + replay) sum to ``recovery_s`` exactly
  (< ``RECONCILE_EPS``): no phase marker went missing;
- **flatness** — p95 MTTR across churn rates stays within
  ``FLAT_FACTOR`` of the best rate;
- **regression gate** — the sweep-wide median MTTR must not exceed the
  checked-in ``BENCH_recovery.json`` baseline by more than
  ``REGRESSION_BUDGET`` (the run is simulated time on a fixed seed, so
  the comparison is deterministic).

Run as ``python benchmarks/bench_recovery.py`` (not part of the tier-1
suite; CG-A-16 instead of CG-A-8 with ``REPRO_BENCH_FULL=1``);
``gate.py`` compares it with the committed ``BENCH_recovery.json``,
writes the result to ``benchmarks/out/`` and sets the exit code.
"""

from __future__ import annotations

from repro.analysis.report import Report
from repro.ft.failure import ChurnFaults
from repro.obs.timeline import RecoveryAttribution, quantile
from repro.runtime.mpirun import run_job
from repro.workloads import nas

import gate
from conftest import full_sweep

#: churn rates swept: mean node lifetime in simulated seconds (CG-A-8
#: runs ~14 s fault-free, so 8 s lifetime is heavy churn)
MEAN_LIFETIMES = (20.0, 12.0, 8.0)
MAX_FAULTS = 4
SEED = 1
RECONCILE_EPS = 1e-9  # contiguous phases tile recovery_s exactly
FLAT_FACTOR = 2.0  # p95 MTTR spread across churn rates
REGRESSION_BUDGET = 0.15  # median MTTR vs the checked-in baseline


def _run_rate(mean_lifetime: float, nprocs: int, klass: str) -> dict:
    res = run_job(
        nas.cg.program, nprocs, device="v2", params={"klass": klass},
        limit=1e8, seed=SEED, trace=True,
        checkpointing=True, ckpt_policy="random", ckpt_continuous=True,
        faults=ChurnFaults(
            mean_lifetime=mean_lifetime, shape=0.7,
            max_faults=MAX_FAULTS, seed=SEED,
        ),
    )
    att = RecoveryAttribution.from_trace(res.tracer)
    recon = [
        e for s in att.completed if (e := att.reconcile(s)) is not None
    ]
    return {
        "mean_lifetime": mean_lifetime,
        "elapsed": res.elapsed,
        "restarts": res.restarts,
        "completed": len(att.completed),
        "aborted": len(att.aborted),
        "incomplete": len(att.incomplete),
        "mttr": att.mttr(),
        "phases": {
            p: {"n": st["n"], "p50": st["p50"], "p95": st["p95"]}
            for p, st in att.phase_stats().items()
        },
        "max_reconcile_err_s": max(recon, default=0.0),
        "recoveries_s": sorted(s.recovery_s for s in att.completed),
    }


def measure(klass: str = "A") -> dict:
    """Sweep churn rates; aggregate the MTTR distribution per rate."""
    nprocs = 16 if full_sweep() else 8
    sweep = [_run_rate(ml, nprocs, klass) for ml in MEAN_LIFETIMES]
    all_recoveries = sorted(
        r for row in sweep for r in row["recoveries_s"]
    )
    p95s = [
        row["mttr"]["p95"] for row in sweep if row["mttr"]["p95"] is not None
    ]
    return {
        "kernel": "cg",
        "klass": klass,
        "nprocs": nprocs,
        "seed": SEED,
        "max_faults": MAX_FAULTS,
        "sweep": sweep,
        "median_mttr_s": quantile(all_recoveries, 0.5),
        "p95_mttr_s": quantile(all_recoveries, 0.95),
        "flatness_ratio": (max(p95s) / min(p95s)) if p95s else None,
        "flat_factor_budget": FLAT_FACTOR,
        "regression_budget": REGRESSION_BUDGET,
    }


def check(out: dict, base: dict) -> list:
    problems = []
    for row in out["sweep"]:
        life = f"lifetime {row['mean_lifetime']}s"
        problems += [
            gate.at_most(f"{life}: phase-sum error against recovery_s",
                         row["max_reconcile_err_s"], RECONCILE_EPS),
            gate.at_least(f"{life}: completed + aborted spans against "
                          f"{row['restarts']} restarts (arcs went missing)",
                          row["completed"] + row["aborted"], row["restarts"]),
        ]
    if out["flatness_ratio"] is not None:
        problems.append(gate.at_most("p95 MTTR spread across churn rates (x)",
                                     out["flatness_ratio"], FLAT_FACTOR))
    problems.append(gate.growth("median MTTR s", out["median_mttr_s"],
                                base.get("median_mttr_s"), REGRESSION_BUDGET))
    return problems


def table(out: dict) -> str:
    rows = []
    for row in out["sweep"]:
        m = row["mttr"]
        rows.append(
            [
                row["mean_lifetime"],
                row["restarts"],
                row["completed"],
                row["aborted"],
                m["p50"] if m["p50"] is not None else "-",
                m["p95"] if m["p95"] is not None else "-",
                row["phases"]["fetch"]["p95"] or 0.0,
                row["phases"]["replay"]["p95"] or 0.0,
                f"{row['max_reconcile_err_s']:.1e}",
            ]
        )
    rep = Report(
        f"Recovery attribution - CG-{out['klass']}-{out['nprocs']} churn sweep"
    )
    rep.table(
        ["lifetime s", "restarts", "done", "aborted", "MTTR p50",
         "MTTR p95", "fetch p95", "replay p95", "reconcile err"],
        rows,
    )
    rep.add(
        f"sweep-wide MTTR: median {out['median_mttr_s']:.3f}s, "
        f"p95 {out['p95_mttr_s']:.3f}s; p95 spread across churn rates "
        f"{out['flatness_ratio']:.2f}x (budget {FLAT_FACTOR:.1f}x)"
    )
    return rep.render()


if __name__ == "__main__":
    gate.run("recovery", measure, check, table)
