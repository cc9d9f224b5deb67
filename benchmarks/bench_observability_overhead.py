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
and on, and records the median overhead in ``BENCH_audit_overhead.json``
at the repository root.

What "overhead" covers changed with the flat-kernel rewrite.  The old
kernel emitted trace records unconditionally, so audit-off runs paid
the emit cost invisibly and the on/off delta isolated just the
auditor's checks (~15%).  The tracer now keeps its hot emit sites on a
subscriber-gated fast path: an unsubscribed run pays nothing, and
attaching the auditor re-enables the emits it rides on — so the delta
honestly prices the whole always-on-observability decision (emits +
checks).  Off and on runs alternate and each keeps its fastest, so the
difference is not a difference of two noisy medians.  The acceptance
bar is an absolute price, **10 µs of wall clock per audited event**
(``audit_cost_per_event_us``, measured 4.5–5.6): a ratio over the
audit-off run loosens every time that run gets faster,
while a change leaking protocol work onto the per-segment fast path
(the failure this bench exists to catch) raises the price per event
whatever the baseline does.  The on/off ``overhead`` ratio is still
recorded, for reading only.

Run as a pytest benchmark (``pytest benchmarks/`` — *not* part of the
tier-1 suite) or directly: ``python benchmarks/bench_observability_overhead.py``.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.analysis.report import Report
from repro.runtime.mpirun import run_job
from repro.workloads import nas

from conftest import full_sweep, record_report

OUT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_audit_overhead.json"
#: audit-on minus audit-off wall clock per audited event, microseconds.
#: The delta includes the trace-emit work the subscriber-free fast path
#: skips entirely (see module docstring) — measured ~5.5; tighten only.
BUDGET_US_PER_EVENT = 10.0


def _time_run(audit: bool, nprocs: int, klass: str) -> tuple[float, object]:
    t0 = time.perf_counter()
    res = run_job(
        nas.cg.program, nprocs, device="v2", params={"klass": klass},
        limit=1e8, audit=audit,
    )
    return time.perf_counter() - t0, res


def measure_overhead(
    nprocs: int = 4, klass: str = "A", reps: int = 5
) -> dict:
    """Audit-off vs audit-on wall clock for one CG configuration:
    interleaved rounds (off, on), the min of each kept — noise only ever
    adds time, and interleaving lets a slow machine phase hit both."""
    # warm up both paths once so allocator/bytecode effects don't skew
    # the first timed repetition
    _time_run(False, nprocs, klass)
    _time_run(True, nprocs, klass)
    off, on_times = [], []
    last_audit = None
    for _ in range(reps):
        off.append(_time_run(False, nprocs, klass)[0])
        dt, res = _time_run(True, nprocs, klass)
        on_times.append(dt)
        last_audit = res.audit
    off_s = min(off)
    on_s = min(on_times)
    n_events = last_audit.events_seen
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
        "checks": last_audit.checks,
        "verdict": last_audit.verdict,
    }


def bench_audit_overhead():
    nprocs = 8 if full_sweep() else 4
    out = measure_overhead(nprocs=nprocs)
    OUT_PATH.write_text(json.dumps(out, indent=2) + "\n")
    rep = Report(f"Audit overhead - CG-{out['klass']}-{out['nprocs']} (V2)")
    rep.table(
        ["audit off s", "audit on s", "overhead", "us/event", "budget",
         "events audited"],
        [[out["audit_off_s"], out["audit_on_s"],
          f"{out['overhead']:+.1%}", f"{out['audit_cost_per_event_us']:.2f}",
          f"{BUDGET_US_PER_EVENT:.1f}", out["events_audited"]]],
    )
    rep.add(
        "the online auditor checks every V2 safety invariant live off the "
        "trace stream; the kind-interest filter keeps non-protocol emits "
        "on the tracer fast path, which is what keeps this overhead small"
    )
    record_report(rep)
    assert out["verdict"] == "clean", out
    assert out["audit_cost_per_event_us"] <= BUDGET_US_PER_EVENT, (
        f"audit cost {out['audit_cost_per_event_us']:.2f} us/event exceeds "
        f"the {BUDGET_US_PER_EVENT:.1f} us budget "
        f"(off={out['audit_off_s']:.3f}s on={out['audit_on_s']:.3f}s)"
    )


if __name__ == "__main__":
    import sys

    out = measure_overhead()
    OUT_PATH.write_text(json.dumps(out, indent=2) + "\n")
    print(json.dumps(out, indent=2))
    cost = out["audit_cost_per_event_us"]
    ok = cost <= BUDGET_US_PER_EVENT and out["verdict"] == "clean"
    status = "OK" if ok else "OVER BUDGET"
    print(f"{status}: {cost:.2f} us/event (budget {BUDGET_US_PER_EVENT:.1f}), "
          f"{out['overhead']:+.1%} over audit-off")
    sys.exit(0 if ok else 1)
