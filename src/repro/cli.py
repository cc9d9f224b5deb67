"""Command-line interface: ``python -m repro <command> ...``.

Two commands:

* ``run`` — one NPB kernel on one device: the paper's evaluation is one
  cross product (kernel × device × fault schedule × what you measure)
  and ``run`` spells it as one verb.  A workload block (``KERNEL
  --class -n --device --seed``), the ``--ckpt-*``/``--el-*`` deployment
  flags, a fault plan (``--faults``/``--plan``/``--kill-at``/
  ``--partitions``/``--service-faults``; given one, the fault-free
  reference run and the Figure-11 slowdown row come with it, and v2
  checkpoints continuously) and ``--observe stats,audit,profile,mttr``,
  which attaches the named observers to the *one* simulation and prints
  their sections (``audit`` and ``profile`` together add the critical
  path over the happens-before graph);
* ``serve`` — run a whole plan of jobs concurrently over one shared
  cluster through the gang-scheduling control plane, with fair-share
  tenancy and per-job audits.

The ping-pong and burst figures (5, 6 and 9) are regenerated by
``pytest benchmarks/`` and ``python -m bench``, and the §4.6.2 policy
table by ``pytest benchmarks/bench_sched_policies.py``, not by a verb.

``run`` writes ``--trace-out`` (Chrome trace-event JSON) and
``--report-out``: one JSON
document, ``{"run": ...}`` plus one key per attached observer holding
that observer's own export.

One exit rule everywhere: 2 on a usage error, 1 when an auditor was
attached (``run --observe audit``, a ``serve`` plan's per-job audits)
and its verdict is not ``clean``, else 0.  All table output is plain
text; everything runs on simulated time.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Iterable, Optional, Sequence

from .analysis.metrics import breakdown, mops
from .analysis.report import (
    format_audit,
    format_mttr,
    format_profile,
    format_stats,
    format_table,
)
from .obs import RecoveryAttribution, write_chrome_trace
from .runtime.config import DEFAULT_TESTBED
from .runtime.mpirun import run_job
from .serve import run_plan
from .workloads import nas

__all__ = ["main"]

DEVICES = ("p4", "v1", "v2")
KLASSES = ("T", "S", "A", "B", "C")
OBSERVERS = ("stats", "audit", "profile", "mttr")


def _usage(msg: str) -> int:
    """Report a usage error argparse could not catch; the exit code."""
    print(f"repro: {msg}", file=sys.stderr)
    return 2


def _exit_code(results: Iterable[Any]) -> int:
    """The one exit rule: 1 when an attached auditor's verdict is
    ``violations`` or a served job's program failed, else 0."""
    unclean = any(
        (res.audit is not None and not res.audit.clean)
        or res.extras.get("error")
        for res in results
    )
    return 1 if unclean else 0


def _store_parent() -> argparse.ArgumentParser:
    """Parent parser: the shared EL / checkpoint-store deployment flags."""
    sp = argparse.ArgumentParser(add_help=False)
    sp.add_argument(
        "--ckpt-servers", type=int, default=None, metavar="N",
        help="deploy N checkpoint-store replicas (default 1)",
    )
    sp.add_argument(
        "--ckpt-replicas", type=int, default=None, metavar="K",
        help="write quorum: a checkpoint is durable once K replicas "
             "hold it (default 1)",
    )
    sp.add_argument(
        "--ckpt-incremental", action="store_true",
        help="push only the chunks a replica is missing "
             "(content-addressed incremental checkpoints)",
    )
    sp.add_argument(
        "--ckpt-chunk-kib", type=int, default=None, metavar="KIB",
        help="checkpoint store chunk size in KiB (default 64)",
    )
    sp.add_argument(
        "--el-servers", type=int, default=None, metavar="N",
        help="shard ranks across N event-logger groups (default 1)",
    )
    sp.add_argument(
        "--el-replicas", type=int, default=None, metavar="K",
        help="run K replicas per event-logger shard; the WAITLOGGED "
             "gate clears on a majority quorum of acks (default 1)",
    )
    return sp


def _store_cfg(args: argparse.Namespace, cfg):
    """Apply the ``--ckpt-*`` / ``--el-*`` store flags to a TestbedConfig."""
    changes: dict[str, Any] = {
        name: max(1, value)
        for name in ("ckpt_servers", "ckpt_replicas", "ckpt_chunk_kib",
                     "el_servers", "el_replicas")
        if (value := getattr(args, name)) is not None
    }
    if args.ckpt_incremental:
        changes["ckpt_incremental"] = True
    return cfg.with_(**changes) if changes else cfg


def _write_trace(path: Optional[str], res: Any) -> None:
    """Honour ``--trace-out``: Chrome trace events (a sampled run's
    time-series as counter tracks)."""
    if not path:
        return
    counters = (
        res.timeseries.counter_tracks() if res.timeseries is not None else None
    )
    write_chrome_trace(res.tracer, path, counters=counters)
    print(f"wrote trace to {path}")


def _items(spec: str) -> list[str]:
    """The non-empty comma-separated items of a fault spec."""
    return [p.strip() for p in spec.split(",") if p.strip()]


def _parse_kills(spec: str) -> list[tuple[float, int]]:
    """Parse ``AT:RANK[,...]`` into an ExplicitFaults schedule."""
    return [(float(at), int(rank))
            for at, rank in (p.split(":") for p in _items(spec))]


def _parse_partitions(spec: str) -> list[tuple[float, tuple[int, ...], float]]:
    """Parse ``AT:DUR:R0+R1[,...]`` into a PartitionFaults schedule."""
    return [(float(at), tuple(int(r) for r in ranks.split("+")), float(dur))
            for at, dur, ranks in (p.split(":") for p in _items(spec))]


def _parse_service_faults(spec: str) -> list[tuple[float, str, float]]:
    """Parse ``NAME@AT:DOWN[,...]`` into a ServiceFaults schedule (split
    on ``@`` first: service names contain colons, "el:0", "cs:0")."""
    return [(float(at), name, float(down))
            for name, rest in (p.split("@", 1) for p in _items(spec))
            for at, down in [rest.split(":")]]


def _run_kernel(args: argparse.Namespace, **job_kw: Any) -> Any:
    """One simulation of the ``run`` workload block on the deployment its
    ``--ckpt-*``/``--el-*`` flags describe."""
    return run_job(
        nas.KERNELS[args.name].program, args.nprocs, device=args.device,
        cfg=_store_cfg(args, DEFAULT_TESTBED), params={"klass": args.klass},
        seed=args.seed, limit=1e8, **job_kw,
    )


def _print_detect_latency(res: Any) -> None:
    """Print the fault→detection latency histogram split by source."""
    rows = []
    for m in res.metrics:
        if m.name != "disp.detect_latency_s" or not m.count:
            continue
        rows.append(
            [m.labels.get("source", "?"), m.count, m.mean(), m.max]
        )
    if rows:
        print("\ndetection latency by source:")
        print(format_table(["source", "n", "mean s", "max s"], sorted(rows)))


def _print_faulty(args: argparse.Namespace, label: str, base: Any, res: Any,
                  outages: bool) -> None:
    """The Figure-11 row against the fault-free reference ``base``, plus
    one line per mechanism the fault plan exercised."""
    print(
        "\n" + format_table(
            ["kernel", "faults", "reference s", "elapsed s", "slowdown",
             "restarts", "checkpoints", "replayed", "ckpt MB"],
            [[label, args.faults, base.elapsed,
              res.elapsed, res.elapsed / base.elapsed, res.restarts,
              res.checkpoints, int(res.stat("deliveries.replayed")),
              res.stat("ckpt.bytes") / 1e6]],
        )
    )
    total = res.metrics.total
    if outages:
        print(
            f"outages: retries={int(total('outage.retries'))} "
            f"reconnects={int(total('outage.reconnects'))} "
            f"backoff={total('outage.backoff_s'):.3f}s "
            f"el_down={total('outage.el_down_s'):.3f}s "
            f"ckpt_aborted={int(total('ckpt.aborted'))}"
        )
    if total("store.push_bytes"):
        print(
            f"store: pushed={total('store.push_bytes') / 1e6:.2f}MB "
            f"deduped={total('store.dedup_bytes') / 1e6:.2f}MB "
            f"fetched={total('store.fetch_bytes') / 1e6:.2f}MB "
            f"failovers={int(total('store.failover'))} "
            f"gc_reclaimed={total('store.gc_reclaimed_bytes') / 1e6:.2f}MB"
        )
    if args.device == "v1" and args.service_faults:
        print(
            f"cm: crashes={int(total('svc.crashes'))} "
            f"relaunches={int(total('svc.restarts'))} "
            f"client_reconnects={int(total('v1.cm_reconnects'))}"
        )
    cfg = _store_cfg(args, DEFAULT_TESTBED)
    if cfg.el_servers > 1 or cfg.el_replicas > 1:
        print(
            f"el: shards={cfg.el_servers} replicas={cfg.el_replicas} "
            f"quorum={cfg.el_quorum} "
            f"failovers={int(total('el.failovers'))} "
            f"resyncs={int(total('el.resyncs'))} "
            f"quorum_wait_p95="
            f"{res.metrics.quantile('el.quorum_wait_s', 0.95) * 1e6:.0f}us"
        )
    if res.restarts:
        _print_detect_latency(res)


def _cmd_run(args: argparse.Namespace) -> int:
    from .ft.failure import (
        ChurnFaults,
        ExplicitFaults,
        PartitionFaults,
        RandomFaults,
        ServiceFaults,
    )
    from .obs.profile import critical_path

    observe = args.observe
    v2 = args.device == "v2"
    try:
        kills = _parse_kills(args.kill_at or "")
        partitions = _parse_partitions(args.partitions or "")
        outages = _parse_service_faults(args.service_faults or "")
    except ValueError as exc:
        return _usage(f"bad fault spec: {exc}")
    n = args.nprocs
    if n < 1:
        return _usage("-n must be >= 1")
    if args.faults < 0:
        return _usage("--faults must be >= 0")
    if args.fault_interval is not None and args.fault_interval <= 0:
        return _usage("--fault-interval must be > 0")
    for flag, ranks in (("--kill-at", [r for _, r in kills]),
                        ("--partitions", [r for _, g, _ in partitions
                                          for r in g])):
        bad = [r for r in ranks if not 0 <= r < n]
        if bad:
            return _usage(f"{flag} rank {bad[0]} is outside [0, {n})")
    planned = bool(args.faults or kills or partitions or outages)
    if planned and args.device == "p4":
        return _usage("a fault plan requires a fault-tolerant device "
                      "(--device v2 or v1), not 'p4'")
    if partitions and not v2:
        return _usage("--partitions requires --device v2 "
                      "(V1 has no partition hook)")
    if args.ckpt_interval is not None and not v2:
        return _usage("--ckpt-interval requires --device v2")

    job_kw: dict[str, Any] = {}
    if args.ckpt_interval is not None:
        job_kw.update(checkpointing=True, ckpt_interval=args.ckpt_interval)
    base = None
    if planned:
        base = _run_kernel(args)  # the fault-free reference
        plans: list[Any] = []
        if kills:
            plans.append(ExplicitFaults(kills))
        elif args.faults and args.plan == "churn":
            plans.append(ChurnFaults(
                mean_lifetime=args.mean_lifetime, shape=args.shape,
                max_faults=args.faults, seed=args.seed,
            ))
        elif args.faults:
            interval = args.fault_interval
            if interval is None:  # spread the kills over the reference run
                interval = base.elapsed / (args.faults + 1)
            plans.append(RandomFaults(
                interval=interval, count=args.faults, seed=args.seed
            ))
        if partitions:
            plans.append(PartitionFaults(partitions))
        if outages:
            plans.append(ServiceFaults(outages))
        job_kw["faults"] = plans[0] if len(plans) == 1 else plans
        if v2:
            # V1's recovery is its own (restart-from-scratch + CM
            # replay): checkpointing belongs to v2 only
            job_kw.update(checkpointing=True, ckpt_policy="random",
                          ckpt_continuous=True)
    audited = "audit" in observe
    res = _run_kernel(
        args,
        trace=bool(args.trace_out or "mttr" in observe),
        audit=audited,
        audit_hb=audited and bool(args.report_out or "profile" in observe),
        profile="profile" in observe,
        timeseries="mttr" in observe,
        **job_kw,
    )

    label = f"{args.name}-{args.klass}".upper()
    b = breakdown(res)
    spec = nas.KERNELS[args.name].spec(args.klass)
    print(
        format_table(
            ["kernel", "device", "procs", "elapsed s", "compute s",
             "comm s", "Mop/s"],
            [[label, args.device, args.nprocs,
              b["elapsed"], b["compute"], b["comm"],
              mops(spec.total_flops, res)]],
        )
    )
    report: dict[str, Any] = {"run": {
        "kernel": args.name, "class": args.klass, "nprocs": args.nprocs,
        "device": args.device, "seed": args.seed, "elapsed": res.elapsed,
        "restarts": res.restarts, "checkpoints": res.checkpoints,
    }}
    if base is not None:
        report["run"]["reference_elapsed"] = base.elapsed
        _print_faulty(args, label, base, res, bool(partitions or outages))
    if "stats" in observe:
        print("\n" + format_stats(res.metrics, prefix=args.prefix,
                                  top=args.top))
        report["stats"] = res.metrics.export()
    if audited:
        print("\n" + format_audit(res.audit))
        report["audit"] = res.audit.to_dict()
    if "profile" in observe:
        critical = critical_path(res.audit.hb) if audited and v2 else None
        print("\n" + format_profile(res.profile, critical=critical,
                                    elapsed=res.elapsed))
        report["profile"] = res.profile.to_dict()
        if critical is not None:
            report["critical_path"] = critical
    if "mttr" in observe:
        att = RecoveryAttribution.from_trace(res.tracer)
        print("\n" + format_mttr(att))
        report["mttr"] = {**att.as_dict(),
                          "timeseries": res.timeseries.as_dict()}
    _write_trace(args.trace_out, res)
    if args.report_out:
        with open(args.report_out, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote report ({', '.join(report)}) to {args.report_out}")
    return _exit_code([res])


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        plane, handles = run_plan(
            args.jobs, cfg=_store_cfg(args, DEFAULT_TESTBED), seed=args.seed,
            capacity=args.capacity, svc_slots=args.svc_slots, limit=args.limit,
        )
    except ValueError as exc:  # a plan the plane rejects
        return _usage(f"{args.jobs}: {exc}")
    job_docs: list[dict[str, Any]] = []
    violations = 0
    for h in handles:
        res = h.result
        verdict = res.audit.verdict if res.audit is not None else "-"
        if res.audit is not None:
            violations += len(res.audit.violations)
        job_docs.append({
            "job": h.job_id,
            "tenant": res.extras["tenant"],
            "device": res.device,
            "nranks": res.nprocs,
            "wait_s": h.wait_s,
            "elapsed_s": res.elapsed,
            "restarts": res.restarts,
            "timed_out": bool(res.extras.get("timed_out")),
            "error": res.extras["error"],
            "audit": verdict,
        })
    print(format_table(
        ["job", "tenant", "device", "ranks", "wait s", "elapsed s",
         "restarts", "audit"],
        [[d["job"], d["tenant"], d["device"], d["nranks"],
          round(d["wait_s"] or 0.0, 4), round(d["elapsed_s"], 4),
          d["restarts"], d["audit"]] for d in job_docs],
    ))
    for h in handles:
        if h.result.extras["error"]:
            print(f"job {h.job_id} failed: {h.result.extras['error']}")
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
        f"{summary['failed']} failed, {summary['timeouts']} timeouts, "
        f"{violations} audit violations"
    )
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump({"summary": summary, "jobs": job_docs}, fh, indent=2)
        print(f"wrote summary to {args.json_out}")
    return _exit_code(h.result for h in handles)


def _observers(spec: str) -> frozenset[str]:
    """argparse type for ``--observe``: a comma list of OBSERVERS."""
    names = frozenset(s.strip() for s in spec.split(",") if s.strip())
    unknown = sorted(names - set(OBSERVERS))
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown observer(s): {', '.join(unknown)}; "
            f"choose from {', '.join(OBSERVERS)}"
        )
    return names


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="MPICH-V2 reproduction: run the paper's experiments",
    )
    sub = p.add_subparsers(dest="command", required=True)
    store = _store_parent()

    sp = sub.add_parser(
        "run", parents=[store],
        help="one NPB kernel x device x fault plan x observers "
             "(Figures 7-11, Table 1)",
    )
    sp.add_argument("name", metavar="KERNEL", choices=sorted(nas.KERNELS))
    sp.add_argument("--class", dest="klass", default="A", choices=KLASSES)
    sp.add_argument("-n", "--nprocs", type=int, default=4)
    sp.add_argument("--device", default="v2", choices=DEVICES)
    sp.add_argument("--seed", type=int, default=0,
                    help="seeds the simulation and the fault plan")
    sp.add_argument("--ckpt-interval", type=float, default=None,
                    metavar="SECS",
                    help="checkpoint, with the scheduler ticking every SECS "
                         "simulated seconds (v2 only); checkpoints let the "
                         "event loggers garbage-collect acknowledged logs, "
                         "which bounds logger memory on long runs")
    sp.add_argument("--faults", type=int, default=0,
                    help="rank kills to inject (churn: at most this many)")
    sp.add_argument("--plan", default="random", choices=["random", "churn"],
                    help="rank-kill schedule: evenly-spaced random kills, "
                         "or Weibull desktop-grid churn")
    sp.add_argument("--fault-interval", type=float, default=None,
                    metavar="SECS",
                    help="random: seconds between kills (default: the "
                         "reference run's length / (faults + 1))")
    sp.add_argument("--mean-lifetime", type=float, default=10.0,
                    help="churn: mean node lifetime in simulated seconds")
    sp.add_argument("--shape", type=float, default=0.7,
                    help="churn: Weibull shape (<1 is heavy-tailed)")
    sp.add_argument("--kill-at", default=None, metavar="AT:RANK[,..]",
                    help="explicit kill schedule instead of --faults")
    sp.add_argument("--partitions", default=None, metavar="AT:DUR:R0+R1[,..]",
                    help="cut the listed ranks off the network at time AT "
                         "for DUR seconds (repeatable, comma separated)")
    sp.add_argument("--service-faults", default=None,
                    metavar="NAME@AT:DOWN[,..]",
                    help="crash service NAME (el:0, cs:0) at time AT for "
                         "DOWN seconds; durable state survives")
    sp.add_argument("--observe", type=_observers, default=frozenset(),
                    metavar="OBS[,..]",
                    help=f"observers to attach: {', '.join(OBSERVERS)} "
                         "(audit + profile adds the critical path)")
    sp.add_argument("--prefix", default=None, metavar="NS",
                    help="stats: only metrics under this namespace prefix "
                         "(e.g. el. / session. / store.)")
    sp.add_argument("--top", type=int, default=None, metavar="N",
                    help="stats: only the N largest totals (default: all)")
    sp.add_argument("--trace-out", default=None, metavar="PATH",
                    help="write the run's trace (Chrome trace-event JSON)")
    sp.add_argument("--report-out", default=None, metavar="PATH",
                    help="write one JSON report: the run plus each "
                         "attached observer's own document")
    sp.set_defaults(fn=_cmd_run)

    sp = sub.add_parser(
        "serve", parents=[store],
        help="run a multi-job plan over one shared cluster (gang scheduling)",
    )
    sp.add_argument("--jobs", required=True, metavar="PLAN.json",
                    help="plan file: tenants (with weights) and jobs")
    sp.add_argument("--capacity", type=int, default=16, metavar="N",
                    help="computing-node slots in the shared pool")
    sp.add_argument("--svc-slots", type=int, default=4, metavar="N",
                    help="service hosts (one per running v2 job)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--limit", type=float, default=None, metavar="S",
                    help="total simulated-seconds budget")
    sp.add_argument("--json-out", default=None, metavar="PATH",
                    help="write the per-job and per-tenant summary as JSON")
    sp.set_defaults(fn=_cmd_serve)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"repro: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
