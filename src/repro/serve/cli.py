"""``repro serve``: run a multi-job plan and report per-job/per-tenant.

The argparse wiring lives in :mod:`repro.cli`; this module is the
command body, kept here so the serving logic and its reporting stay
next to the control plane they drive.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Callable

from . import run_plan

__all__ = ["cmd_serve"]


def cmd_serve(
    args: argparse.Namespace,
    store_cfg: Callable,
    format_table: Callable,
) -> list[Any]:
    """Run the plan and print its tables; returns every job's result
    (the caller's exit rule looks at their audits)."""
    from ..runtime.config import DEFAULT_TESTBED

    cfg = store_cfg(args, DEFAULT_TESTBED)
    plane, handles = run_plan(
        args.jobs, cfg=cfg, seed=args.seed,
        capacity=args.capacity, svc_slots=args.svc_slots, limit=args.limit,
    )
    job_rows: list[list[Any]] = []
    job_docs: list[dict[str, Any]] = []
    violations = 0
    for h in handles:
        res = h.result
        verdict = res.audit.verdict if res.audit is not None else "-"
        if res.audit is not None:
            violations += len(res.audit.violations)
        job_rows.append([
            h.job_id, res.extras["tenant"], res.device, res.nprocs,
            round(h.wait_s or 0.0, 4), round(res.elapsed, 4),
            res.restarts, verdict,
        ])
        job_docs.append({
            "job": h.job_id,
            "tenant": res.extras["tenant"],
            "device": res.device,
            "nranks": res.nprocs,
            "wait_s": h.wait_s,
            "elapsed_s": res.elapsed,
            "restarts": res.restarts,
            "timed_out": bool(res.extras.get("timed_out")),
            "audit": verdict,
        })
    print(format_table(
        ["job", "tenant", "device", "ranks", "wait s", "elapsed s",
         "restarts", "audit"],
        job_rows,
    ))
    summary = plane.finish()
    tenant_rows = [
        [name, t["weight"], t["completed"], t["served_ranks"]]
        for name, t in summary["tenants"].items()
    ]
    print()
    print(format_table(
        ["tenant", "weight", "completed", "ranks served"], tenant_rows
    ))
    print(
        f"{summary['completed']}/{summary['jobs']} jobs in "
        f"{summary['elapsed']:.2f} simulated s; "
        f"{summary['timeouts']} timeouts, {violations} audit violations"
    )
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump({"summary": summary, "jobs": job_docs}, fh, indent=2)
        print(f"wrote summary to {args.json_out}")
    return [h.result for h in handles]
