"""The replicated checkpoint store: incremental bytes and restart time.

Two claims of the store subsystem, measured on CG-A-8:

* **incremental checkpoints move fewer bytes** — with the deterministic
  dirty-region model, only regions written since the previous checkpoint
  (plus the per-sequence header and fresh sender-log windows) miss the
  replica's content-addressed chunk store.  The acceptance bar is a
  **40%** reduction in pushed bytes vs full checkpoints, with at least
  3 checkpoints per rank so dedup actually gets a history to hit.

* **replication does not slow the restart path down** — a restart fetch
  against 3 replicas (write quorum 2) with one replica crashed for the
  whole detect/respawn/fetch window completes by failing over, in time
  comparable to the single-server baseline.

The sweep runs on a widened-link variant of the calibrated testbed: on the
paper's Fast Ethernet, pushing CG-A's ~7.5 MB images three times per
rank takes longer than the kernel runs, so no configuration could reach
the required checkpoint count.  The quantity under test — bytes pushed,
full vs incremental — is a property of the chunker and the dirty-region
model, not of the link, so the faster wire changes how many checkpoints
fit, never the ratio.

Run as ``python benchmarks/bench_ckpt_store.py`` (not part of the tier-1
suite); ``gate.py`` writes the result to ``benchmarks/out/`` and sets the
exit code.
"""

from __future__ import annotations

from repro.analysis.report import Report
from repro.ft.failure import ExplicitFaults, ServiceFaults
from repro.obs import recovery_timeline
from repro.runtime.config import DEFAULT_TESTBED
from repro.runtime.mpirun import run_job
from repro.simnet.network import LinkConfig
from repro.workloads import nas

import gate

BUDGET = 0.40  # incremental must push at least 40% fewer bytes than full

KLASS = "A"
NPROCS = 8
CKPT_INTERVAL = 0.08

# the paper's Fast Ethernet, 25x wider (see module docstring): wide
# enough that three full-image rounds per rank fit into CG-A's runtime
FAST_WIRE = DEFAULT_TESTBED.with_(link=LinkConfig(bandwidth=285e6))


def _ckpt_run(incremental: bool) -> dict:
    # interval-driven (not continuous) ordering: both modes checkpoint on
    # the same cadence, so total pushed bytes compare like for like —
    # continuous mode would self-pace on push cost and hand the cheap
    # incremental run an order of magnitude more checkpoints
    cfg = FAST_WIRE.with_(ckpt_incremental=incremental)
    res = run_job(
        nas.cg.program, NPROCS, device="v2", cfg=cfg,
        params={"klass": KLASS}, limit=1e8,
        checkpointing=True, ckpt_policy="round_robin",
        ckpt_interval=CKPT_INTERVAL,
    )
    replica = res.extras["checkpoint_servers"][0]
    seqs = [max(per) for per in replica.manifests.values()]
    return {
        "mode": "incremental" if incremental else "full",
        "push_bytes": res.metrics.total("store.push_bytes"),
        "dedup_bytes": res.metrics.total("store.dedup_bytes"),
        "checkpoints": res.checkpoints,
        "ckpts_per_rank_min": min(seqs) if len(seqs) == NPROCS else 0,
        "elapsed_s": res.elapsed,
    }


def _restart_run(replicas: int, quorum: int, crash_cs: bool) -> dict:
    cfg = FAST_WIRE.with_(
        ckpt_servers=replicas, ckpt_replicas=quorum, ckpt_incremental=True
    )
    faults = [ExplicitFaults([(1.2, 2)])]
    if crash_cs:
        # down through the killed rank's whole detect+respawn+fetch window
        faults.append(ServiceFaults([(1.1, "cs:0", 3.0)]))
    res = run_job(
        nas.cg.program, NPROCS, device="v2", cfg=cfg,
        params={"klass": KLASS}, limit=1e8, trace=True,
        checkpointing=True, ckpt_policy="round_robin",
        ckpt_continuous=True,
        faults=faults,
    )
    spans = [s for s in recovery_timeline(res.tracer) if s.rank == 2]
    recovery = spans[0].recovery_s if spans else None
    return {
        "replicas": replicas,
        "quorum": quorum,
        "cs_crashed_mid_restart": crash_cs,
        "recovery_s": recovery,
        "failovers": int(res.metrics.total("store.failover")),
        "fetch_bytes": res.metrics.total("store.fetch_bytes"),
        "restarts": res.restarts,
        "elapsed_s": res.elapsed,
    }


def measure() -> dict:
    full = _ckpt_run(incremental=False)
    incr = _ckpt_run(incremental=True)
    reduction = 1.0 - incr["push_bytes"] / full["push_bytes"]
    restarts = [
        _restart_run(replicas=1, quorum=1, crash_cs=False),
        _restart_run(replicas=3, quorum=2, crash_cs=True),
    ]
    return {
        "kernel": "cg",
        "klass": KLASS,
        "nprocs": NPROCS,
        "ckpt_interval": CKPT_INTERVAL,
        "full": full,
        "incremental": incr,
        "reduction": reduction,
        "budget": BUDGET,
        "restart": restarts,
    }


def table(out: dict) -> str:
    rep = Report(f"Checkpoint store - CG-{KLASS}-{NPROCS} (V2)")
    rep.table(
        ["mode", "pushed MB", "deduped MB", "ckpts/rank >="],
        [[r["mode"], r["push_bytes"] / 1e6, r["dedup_bytes"] / 1e6,
          r["ckpts_per_rank_min"]]
         for r in (out["full"], out["incremental"])],
    )
    rep.add(
        f"incremental checkpoints push {out['reduction']:.1%} fewer bytes "
        f"(budget: {BUDGET:.0%}) — unchanged memory regions and already-"
        f"stored sender-log windows dedup against the replica's chunk store"
    )
    rep.table(
        ["replicas", "quorum", "cs crash", "recovery s", "failovers"],
        [[r["replicas"], r["quorum"], r["cs_crashed_mid_restart"],
          r["recovery_s"], r["failovers"]] for r in out["restart"]],
    )
    rep.add(
        "the 3-replica restart rides out a checkpoint server crashed for "
        "the whole recovery window: the fetch fails over to a surviving "
        "replica instead of stalling"
    )
    return rep.render()


def check(out: dict, base: dict) -> list:
    return [
        gate.at_least("full checkpoints per rank",
                      out["full"]["ckpts_per_rank_min"], 3),
        gate.at_least("incremental checkpoints per rank",
                      out["incremental"]["ckpts_per_rank_min"], 3),
        gate.at_least("incremental push-bytes reduction",
                      out["reduction"], BUDGET),
        *(gate.holds(r["recovery_s"] is not None,
                     f"{r['replicas']}-replica restart never recovered")
          for r in out["restart"]),
        gate.at_least("3-replica restart failovers",
                      out["restart"][1]["failovers"], 1),
    ]


if __name__ == "__main__":
    gate.run("ckpt_store", measure, check, table)
