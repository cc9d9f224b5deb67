"""Event-kernel throughput, profiler overhead, and the class-B gate.

The flat-event kernel rewrite promises three measurable things, all
recorded in ``BENCH_kernel.json``:

- **probe cost**: a probed run stays cheap enough to leave on for any
  attribution question (counts exact, timing sampled
  1-in-``sample_every``); budget **1.9 µs of wall clock per event**
  over the unprofiled run (``profiled_cost_per_event_us``: ~0.2-0.6,
  but a difference of two ~3 s runs has read -0.7 to +1.6 on a loaded
  machine).
  The probe's tax is fixed per dispatch, so it is gated as an absolute
  price: a ratio over the unprofiled run would loosen with every
  speedup of that run.
- **throughput**: the profiler's ``events_per_s`` meter on the guard
  workload (CG-A at 8 ranks, the highest event-rate kernel), for
  trending across commits.  Absolute events/sec is machine-dependent,
  so CI gates only a coarse sanity floor; the recorded
  ``seed_events_per_s`` / ``improvement_vs_seed`` fields carry the
  honest before/after figure, measured interleaved (seed run / new run
  alternating) on one machine so drift cancels.
- **scale**: CG class B at 64 ranks — the run the rewrite exists to
  unlock — completes under a wall-clock budget with a clean protocol
  audit, and the CG-A-8 el-ack critical-path share stays below 0.30
  at 4 EL shards (~0.43 with one shard).

Timing methodology: ``gate.interleaved_min`` — one warmup run per
configuration, then ``reps`` rounds that time the unprofiled and
profiled configurations back-to-back, so slow machine phases (CI
neighbors, thermal throttling) hit both equally instead of biasing
whichever was measured last.  Per configuration the **min** across
rounds is kept: every source of variation here only ever adds time, so
the floor is the honest per-configuration cost.

Run as ``python benchmarks/bench_kernel.py`` (not part of the tier-1
suite); ``gate.py`` writes the result to ``benchmarks/out/`` and sets the
exit code.  ``REPRO_BENCH_FULL=1`` adds nothing here — the guard already
runs the full configuration; set ``REPRO_BENCH_SKIP_B64=1`` to skip the
class-B scale run (it dominates the benchmark's wall clock).
"""

from __future__ import annotations

import dataclasses
import os
import time

from repro.analysis.report import Report
from repro.runtime.config import DEFAULT_TESTBED
from repro.runtime.mpirun import run_job
from repro.workloads import nas

import gate
from bench_el_scale import el_ack_share

#: full profiler attached minus the unprofiled min, wall-clock
#: microseconds per dispatched event.  The probe's cost is a fixed
#: per-dispatch tax — measured ~0.2-0.6, with -0.7..+1.6 of jitter on a
#: two-run difference.  Tighten-only: 1.9 is the 15 % ratio it replaces
#: at the fastest recorded unprofiled run (2.575 s, 203 500 events).
BUDGET_PROFILED_US_PER_EVENT = 1.9
#: machine-independent protocol gate: el-ack share of the CG-A-8
#: critical path at 4 EL shards
BUDGET_EL_ACK_SHARE = 0.30
#: coarse CI sanity floor for the throughput meter — absolute events/sec
#: varies ~2x across runner generations, so this only catches
#: catastrophic regressions (the honest trend is improvement_vs_seed)
FLOOR_EVENTS_PER_S = 15_000.0
#: wall-clock budget for CG class B at 64 ranks (seconds); ~3x the
#: ~620 s local measurement so a slow CI runner passes but a quadratic
#: regression does not
BUDGET_B64_WALL_S = 1800.0
#: the pre-rewrite kernel's CG-A-8 throughput, measured on the same
#: machine as events_per_s below, interleaved with the rewritten
#: kernel's runs (alternating seed/new) so machine drift cancels.
#: Not a CI gate — re-measure when re-baselining on new hardware.
SEED_EVENTS_PER_S = 38_500.0


def _cg(nprocs: int, klass: str, profile: bool):
    return lambda: run_job(
        nas.cg.program, nprocs, device="v2", params={"klass": klass},
        limit=1e8, profile=profile,
    )


def measure_kernel(nprocs: int = 8, klass: str = "A", reps: int = 5) -> dict:
    """Interleaved min-of-N wall clock, unprofiled vs. profiled."""
    best = gate.interleaved_min(
        {"unprofiled": _cg(nprocs, klass, False),
         "profiled": _cg(nprocs, klass, True)}, reps,
    )
    unprofiled = best["unprofiled"][0]
    profiled_s, res = best["profiled"]
    best_profile = res.profile
    events = best_profile.events
    return {
        "kernel": "cg",
        "klass": klass,
        "nprocs": nprocs,
        "reps": reps,
        "timing": "interleaved min-of-reps, one warmup per path",
        "unprofiled_s": unprofiled,
        "profiled_s": profiled_s,
        "profiled_overhead": (profiled_s - unprofiled) / unprofiled,
        "profiled_cost_per_event_us": (profiled_s - unprofiled) / events * 1e6,
        "budget_profiled_us_per_event": BUDGET_PROFILED_US_PER_EVENT,
        "events": events,
        "events_per_s": best_profile.events_per_s,
        "seed_events_per_s": SEED_EVENTS_PER_S,
        "improvement_vs_seed": best_profile.events_per_s / SEED_EVENTS_PER_S,
        "sim_s": best_profile.sim_s,
        "sample_every": best_profile.sample_every,
    }


def _el_ack_share_once(nprocs: int, klass: str, el_servers: int) -> dict:
    cfg = dataclasses.replace(DEFAULT_TESTBED, el_servers=el_servers)
    res = run_job(
        nas.cg.program, nprocs, device="v2", cfg=cfg,
        params={"klass": klass}, limit=1e8, audit=True, audit_hb=True,
    )
    share, span_s = el_ack_share(res)
    return {"share": share, "span_s": span_s, "verdict": res.audit.verdict}


def measure_el_ack_share(nprocs: int = 8, klass: str = "A") -> dict:
    """El-ack share of the CG critical path.

    The gated figure uses **4 EL shards** — the same configuration the
    class-B-64 scale proof runs with — because at that scale the share
    is dominated by the physical ack round-trip (wire latency + EL CPU
    per event), which sharding brings under the 0.30 budget.  The full
    shard sweep is recorded alongside for transparency: with a single
    shard the share stays ~0.42 even with one cumulative ack per
    coalesced burst, because single-EL CPU contention adds ~100µs
    tails to every ack edge.
    """
    sweep = {ns: _el_ack_share_once(nprocs, klass, ns) for ns in (1, 2, 4)}
    gated = sweep[4]
    return {
        "el_ack_share": gated["share"],
        "el_ack_share_el_servers": 4,
        "budget_el_ack_share": BUDGET_EL_ACK_SHARE,
        "critical_span_s": gated["span_s"],
        "audit_verdict": gated["verdict"],
        "el_ack_share_sweep": {
            str(ns): r["share"] for ns, r in sweep.items()
        },
    }


def measure_class_b64(nprocs: int = 64, el_servers: int = 4) -> dict:
    """The scale proof: CG class B at 64 ranks, audited, 4 EL shards.

    Checkpointing is on (every 5 simulated seconds): checkpoints are
    what let the event loggers garbage-collect acknowledged logs, and
    without that a ~16M-event run holds every delivery record in logger
    memory (multi-GB).  The CI smoke step runs the same configuration
    through ``repro run cg --class B -n 64 --el-servers 4
    --ckpt-interval 5 --observe audit``.
    """
    cfg = dataclasses.replace(DEFAULT_TESTBED, el_servers=el_servers)
    t0 = time.perf_counter()
    res = run_job(
        nas.cg.program, nprocs, device="v2", cfg=cfg,
        params={"klass": "B"}, limit=1e9, profile=True, audit=True,
        checkpointing=True, ckpt_interval=5.0,
    )
    wall = time.perf_counter() - t0
    p = res.profile
    return {
        "b64_wall_s": wall,
        "b64_budget_wall_s": BUDGET_B64_WALL_S,
        "b64_nprocs": nprocs,
        "b64_el_servers": el_servers,
        "b64_ckpt_interval_s": 5.0,
        "b64_events": p.events,
        "b64_events_per_s": p.events_per_s,
        "b64_sim_s": p.sim_s,
        "b64_audit_verdict": res.audit.verdict,
    }


def measure() -> dict:
    out = measure_kernel()
    out.update(measure_el_ack_share())
    if os.environ.get("REPRO_BENCH_SKIP_B64", "") != "1":
        out.update(measure_class_b64())
    return out


def check(out: dict, base: dict) -> list:
    problems = [
        gate.at_most("profiler cost us/event",
                     out["profiled_cost_per_event_us"],
                     BUDGET_PROFILED_US_PER_EVENT),
        gate.at_least("events/s (sanity floor)", out["events_per_s"],
                      FLOOR_EVENTS_PER_S),
        gate.at_most("el-ack critical-path share at 4 EL shards",
                     out["el_ack_share"], BUDGET_EL_ACK_SHARE),
        gate.holds(out["audit_verdict"] == "clean",
                   f"CG-A-8 audit verdict {out['audit_verdict']!r}"),
    ]
    if "b64_wall_s" in out:
        problems += [
            gate.at_most("CG-B-64 wall s", out["b64_wall_s"],
                         BUDGET_B64_WALL_S),
            gate.holds(out["b64_audit_verdict"] == "clean",
                       f"CG-B-64 audit verdict {out['b64_audit_verdict']!r}"),
        ]
    return problems


def table(out: dict) -> str:
    rep = Report(f"Kernel throughput - CG-{out['klass']}-{out['nprocs']} (V2)")
    rep.table(
        ["unprofiled s", "profiled s", "probe us/event",
         "events/s", "vs seed", "el-ack"],
        [[out["unprofiled_s"], out["profiled_s"],
          f"{out['profiled_cost_per_event_us']:.3f}",
          f"{out['events_per_s']:,.0f}",
          f"{out['improvement_vs_seed']:.2f}x",
          f"{out['el_ack_share']:.3f}"]],
    )
    if "b64_wall_s" in out:
        rep.table(
            ["B-64 wall s", "budget s", "events", "events/s", "audit"],
            [[f"{out['b64_wall_s']:.1f}", f"{out['b64_budget_wall_s']:.0f}",
              f"{out['b64_events']:,}", f"{out['b64_events_per_s']:,.0f}",
              out["b64_audit_verdict"]]],
        )
    return rep.render()


if __name__ == "__main__":
    gate.run("kernel", measure, check, table)
