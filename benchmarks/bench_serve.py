"""Control-plane serving: a thousand-job admission sweep on one cluster.

The paper runs one MPI job per dedicated deployment; the serve layer
(``repro.serve``) multiplexes many jobs over a single shared cluster
with gang scheduling, fair-share admission and per-job namespaces on
the shared event-logger and checkpoint-store services.  This benchmark
drives the plane with 1000 jobs from two tenants (weights 3:1),
submitted all at once — a pure admission storm — with a v2 slice that
includes rank-kill faults recovering mid-traffic.  Five claims are
gated:

- **completion** — every job of the storm runs to completion: 1000
  completed, zero timeouts;
- **isolation** — zero audit violations across all audited jobs: the
  per-job namespaces keep co-resident EL events, checkpoint manifests
  and GC floors disjoint even while kills recover next door;
- **fairness** — over the saturation window (admissions while both
  tenants still have queued work), each tenant's rank-weighted share
  of admitted capacity is within 20% of its fair-share weight;
- **retention** — a finished job leaves only its result: the
  GC-tracked objects the drained plane and its 1000 results hold, per
  job, stay within ``RETAINED_OBJECTS_BUDGET`` (the per-job metrics
  registry, timers and audit report are most of it; counting starts
  after a one-job warm-up, so one-time imports are not), and the event
  heap holds at most ``HEAP_ENTRIES_BUDGET`` entries after the drain —
  no finished job's watchdog, no dead process's wake-up;
- **regression gate** — makespan must not exceed the checked-in
  ``BENCH_serve.json`` baseline by more than ``REGRESSION_BUDGET``
  (simulated time on a fixed seed: deterministic).

Run as ``python benchmarks/bench_serve.py`` (not part of the tier-1
suite); ``gate.py`` compares it with the committed ``BENCH_serve.json``,
writes the result to ``benchmarks/out/`` and sets the exit code.
"""

from __future__ import annotations

import gc
import random

from repro.analysis.report import Report
from repro.serve import ControlPlane, JobSpec

import gate

N_JOBS = 1000
#: v2-device job slots per 20-job window — one even (alpha) and one odd
#: (beta) index, so both tenants carry the same v2/p4 mix and fairness
#: is measured on workload-symmetric queues
V2_SLOTS = (0, 11)
FAULTY_SLOTS = (3, 6)  # of every 8 v2 jobs, one alpha and one beta kill
CAPACITY = 8
SVC_SLOTS = 2
WEIGHTS = {"alpha": 3.0, "beta": 1.0}
SEED = 1
FAIRNESS_BUDGET = 0.20  # tenant share vs weight, saturation window
REGRESSION_BUDGET = 0.20  # makespan vs the checked-in baseline
# tighten-only (ROADMAP): measured 43.7 objects/job and 10 entries
RETAINED_OBJECTS_BUDGET = 48.0  # GC-tracked objects per finished job
HEAP_ENTRIES_BUDGET = 32  # event-heap entries once the storm has drained


def _specs(rng: random.Random) -> list[JobSpec]:
    """The deterministic 1000-job storm: ~90% p4, ~10% v2, some killed."""
    specs = []
    v2_seen = 0
    for i in range(N_JOBS):
        tenant = "alpha" if i % 2 == 0 else "beta"
        nranks = rng.choice((1, 2, 2, 4))
        if i % 20 in V2_SLOTS:
            v2_seen += 1
            if v2_seen % 8 in FAULTY_SLOTS:
                # hot enough that the kill lands mid-traffic and recovery
                # replays from a checkpoint plus logged events
                specs.append(JobSpec(
                    workload="token_ring", nranks=max(2, nranks),
                    device="v2", tenant=tenant,
                    params={"rounds": 200, "nbytes": 8192},
                    checkpointing=True, ckpt_interval=0.05,
                    fault={"kind": "kill", "rank": 1,
                           "at": round(0.05 + 0.01 * (v2_seen % 5), 3)},
                ))
            else:
                specs.append(JobSpec(
                    workload="token_ring", nranks=nranks,
                    device="v2", tenant=tenant,
                    params={"rounds": rng.randint(10, 30),
                            "nbytes": rng.choice((512, 1024, 2048))},
                ))
        else:
            specs.append(JobSpec(
                workload="token_ring", nranks=nranks,
                device="p4", tenant=tenant,
                params={"rounds": rng.randint(2, 6),
                        "nbytes": rng.choice((256, 512, 1024))},
            ))
    return specs


def _saturation_shares(handles) -> dict[str, float]:
    """Rank-weighted admission share per tenant over the window where
    every tenant still has queued jobs (admission order = start time)."""
    remaining = {"alpha": 0, "beta": 0}
    for h in handles:
        remaining[h.spec.tenant] += 1
    admitted = {"alpha": 0.0, "beta": 0.0}
    for h in sorted(handles, key=lambda h: (h.start_t, h.job_id)):
        admitted[h.spec.tenant] += h.spec.nranks
        remaining[h.spec.tenant] -= 1
        if remaining[h.spec.tenant] == 0:
            break
    total = sum(admitted.values())
    return {t: admitted[t] / total for t in admitted}


def _warm_up() -> None:
    """One killed v2 job on a plane of its own, before the retention
    window opens.  The kill's reconnect jitter is a run's first random
    draw, which imports numpy: thousands of objects held once per
    process, which are not a finished job's leftovers."""
    plane = ControlPlane(
        seed=SEED, capacity=CAPACITY, svc_slots=SVC_SLOTS, tenants=WEIGHTS,
    )
    plane.submit(JobSpec(
        workload="token_ring", nranks=2, device="v2", tenant="alpha",
        params={"rounds": 200, "nbytes": 8192},
        checkpointing=True, ckpt_interval=0.05,
        fault={"kind": "kill", "rank": 1, "at": 0.05},
    ))
    plane.drain()
    summary = plane.finish()
    if summary["completed"] != 1:
        raise RuntimeError(f"warm-up job did not complete: {summary}")


def measure() -> dict:
    _warm_up()
    gc.collect()
    objects_before = len(gc.get_objects())
    rng = random.Random(SEED)
    specs = _specs(rng)
    plane = ControlPlane(
        seed=SEED, capacity=CAPACITY, svc_slots=SVC_SLOTS, tenants=WEIGHTS,
    )
    handles = [plane.submit(spec) for spec in specs]
    plane.drain()
    heap_entries = len(plane.sim._heap)
    summary = plane.finish()
    gc.collect()
    retained = (len(gc.get_objects()) - objects_before) / N_JOBS

    shares = _saturation_shares(handles)
    weight_total = sum(WEIGHTS.values())
    per_tenant: dict[str, dict] = {}
    for name, weight in WEIGHTS.items():
        hs = [h for h in handles if h.spec.tenant == name]
        waits = sorted(h.wait_s for h in hs)
        per_tenant[name] = {
            "weight": weight,
            "fair_share": weight / weight_total,
            "saturation_share": shares[name],
            "jobs": len(hs),
            "mean_wait_s": sum(waits) / len(waits),
            "p95_wait_s": waits[int(0.95 * (len(waits) - 1))],
        }
    faulty = [
        h for h in handles
        if h.spec.fault is not None or h.result.restarts
    ]
    return {
        "jobs": N_JOBS,
        "capacity": CAPACITY,
        "svc_slots": SVC_SLOTS,
        "seed": SEED,
        "completed": summary["completed"],
        "timeouts": summary["timeouts"],
        "audit_violations": summary["audit_violations"],
        "makespan_s": summary["elapsed"],
        "v2_jobs": sum(1 for h in handles if h.spec.device == "v2"),
        "faulted_jobs": len(faulty),
        "total_restarts": sum(h.result.restarts for h in handles),
        "unrecovered_faults": sum(
            1 for h in faulty if h.result.restarts < 1
        ),
        "tenants": per_tenant,
        "retained_objects_per_job": retained,
        "heap_entries_after_drain": heap_entries,
        "fairness_budget": FAIRNESS_BUDGET,
        "regression_budget": REGRESSION_BUDGET,
        "retained_objects_budget": RETAINED_OBJECTS_BUDGET,
        "heap_entries_budget": HEAP_ENTRIES_BUDGET,
    }


def check(out: dict, base: dict) -> list:
    problems = [
        gate.at_least("completed jobs", out["completed"], out["jobs"]),
        gate.at_most("timed-out jobs", out["timeouts"], 0),
        gate.at_most("cross-job audit violations (namespace isolation)",
                     out["audit_violations"], 0),
        gate.at_most("killed jobs never restarted",
                     out["unrecovered_faults"], 0),
    ]
    for name, t in out["tenants"].items():
        problems.append(gate.at_most(
            f"tenant {name}: saturation share {t['saturation_share']:.3f} "
            f"drift from fair share {t['fair_share']:.3f}",
            abs(t["saturation_share"] - t["fair_share"]),
            FAIRNESS_BUDGET * t["fair_share"],
        ))
    problems += [
        gate.at_most("GC-tracked objects retained per finished job",
                     out["retained_objects_per_job"], RETAINED_OBJECTS_BUDGET),
        gate.at_most("event-heap entries after the drain",
                     out["heap_entries_after_drain"], HEAP_ENTRIES_BUDGET),
        gate.growth("makespan s", out["makespan_s"], base.get("makespan_s"),
                    REGRESSION_BUDGET),
    ]
    return problems


def table(out: dict) -> str:
    rep = Report(
        f"Serve - {out['jobs']}-job admission storm on "
        f"{out['capacity']} CN / {out['svc_slots']} svc slots"
    )
    rep.table(
        ["tenant", "weight", "jobs", "fair share", "sat share",
         "mean wait s", "p95 wait s"],
        [[name, t["weight"], t["jobs"], t["fair_share"],
          t["saturation_share"], t["mean_wait_s"], t["p95_wait_s"]]
         for name, t in sorted(out["tenants"].items())],
    )
    rep.add(
        f"{out['completed']}/{out['jobs']} jobs in {out['makespan_s']:.2f} "
        f"simulated s ({out['v2_jobs']} on v2, {out['faulted_jobs']} "
        f"killed and recovered with {out['total_restarts']} restarts); "
        f"{out['audit_violations']} audit violations; "
        f"{out['retained_objects_per_job']:.1f} objects retained per job, "
        f"{out['heap_entries_after_drain']} heap entries after the drain"
    )
    return rep.render()


if __name__ == "__main__":
    gate.run("serve", measure, check, table)
