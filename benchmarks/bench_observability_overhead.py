"""Wall-clock overhead of the online protocol auditor.

The auditor's promise is "always-on safety checking": it subscribes to
the live trace stream and evaluates every protocol event as it happens.
That is only an acceptable default if the cost is small — the tracer's
kind-interest filter keeps the per-segment network emits (the vast
majority) on the one-branch fast path, so only genuine protocol events
(transmissions, deliveries, event-logger traffic, checkpoints) pay the
subscriber dispatch.

This benchmark runs the latency-bound CG kernel — the workload with the
highest protocol-event rate per unit of wall-clock — with auditing off
and on, and records the overhead in ``BENCH_audit_overhead.json``.

What "overhead" covers: every per-message emit site is guarded by
``tracer.hot``, which is False on a run with no retention and no
subscriber.  Only observers subscribe (no protocol or bookkeeping path
does), so the audit-off run builds no trace record at all, and
attaching the auditor turns on every guarded emit it rides on — the
delta prices the whole always-on-observability decision (emits +
checks).  Off and on runs alternate and each keeps its fastest
(``gate.interleaved_min``), so the difference is not a difference of
two noisy medians.  The acceptance bar is an absolute price, **10 µs
of wall clock per audited event** (``audit_cost_per_event_us``, ~5
measured on CG-A-4): a ratio over the audit-off run loosens every time
that run gets faster, while a change leaking protocol work onto the
per-segment fast path (the failure this bench exists to catch) raises
the price per event whatever the baseline does.  The on/off
``overhead`` ratio is still recorded, for reading only.

Run as ``python benchmarks/bench_observability_overhead.py`` (not part
of the tier-1 suite; CG-A-8 instead of CG-A-4 with ``REPRO_BENCH_FULL=1``);
``gate.py`` writes the result to ``benchmarks/out/`` and sets the exit
code.
"""

from __future__ import annotations

from repro.analysis.report import Report
from repro.runtime.mpirun import run_job
from repro.workloads import nas

import gate
from conftest import full_sweep

#: audit-on minus audit-off wall clock per audited event, microseconds.
#: The delta includes the trace-emit work an unobserved run skips
#: entirely (see module docstring); tighten only.
BUDGET_US_PER_EVENT = 10.0


def _cg(audit: bool, nprocs: int, klass: str):
    return lambda: run_job(
        nas.cg.program, nprocs, device="v2", params={"klass": klass},
        limit=1e8, audit=audit,
    )


def measure(klass: str = "A", reps: int = 5) -> dict:
    """Audit-off vs audit-on wall clock for one CG configuration."""
    nprocs = 8 if full_sweep() else 4
    best = gate.interleaved_min(
        {"off": _cg(False, nprocs, klass), "on": _cg(True, nprocs, klass)},
        reps,
    )
    off_s = best["off"][0]
    on_s, res = best["on"]
    audit = res.audit
    n_events = audit.events_seen
    return {
        "kernel": "cg",
        "klass": klass,
        "nprocs": nprocs,
        "reps": reps,
        "timing": "interleaved min-of-reps, one warmup per path",
        "audit_off_s": off_s,
        "audit_on_s": on_s,
        "overhead": (on_s - off_s) / off_s,
        "audit_cost_per_event_us": (on_s - off_s) / n_events * 1e6,
        "budget_us_per_event": BUDGET_US_PER_EVENT,
        "events_audited": n_events,
        "checks": audit.checks,
        "verdict": audit.verdict,
    }


def check(out: dict, base: dict) -> list:
    return [
        gate.holds(out["verdict"] == "clean",
                   f"audit verdict {out['verdict']!r}"),
        gate.at_most("audit cost us/event", out["audit_cost_per_event_us"],
                     BUDGET_US_PER_EVENT),
    ]


def table(out: dict) -> str:
    rep = Report(f"Audit overhead - CG-{out['klass']}-{out['nprocs']} (V2)")
    rep.table(
        ["audit off s", "audit on s", "overhead", "us/event", "budget",
         "events audited"],
        [[out["audit_off_s"], out["audit_on_s"],
          f"{out['overhead']:+.1%}", f"{out['audit_cost_per_event_us']:.2f}",
          f"{BUDGET_US_PER_EVENT:.1f}", out["events_audited"]]],
    )
    return rep.render()


if __name__ == "__main__":
    gate.run("audit_overhead", measure, check, table)
