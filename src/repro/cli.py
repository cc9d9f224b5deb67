"""Command-line interface: ``python -m repro <command> ...``.

Five commands:

* ``pingpong`` — latency/bandwidth across devices (Figures 5/6);
* ``burst`` — the Figure 9 nonblocking burst pattern;
* ``run`` — one NPB kernel on one device: the paper's evaluation is one
  cross product (kernel × device × fault schedule × what you measure)
  and ``run`` spells it as one verb.  A workload block (``KERNEL
  --class -n --device --seed``), the ``--ckpt-*``/``--el-*`` deployment
  flags, a fault plan (``--faults``/``--plan``/``--kill-at``/
  ``--partitions``/``--service-faults``; given one, the fault-free
  reference run and the Figure-11 slowdown row come with it, and v2
  checkpoints continuously) and ``--observe stats,audit,profile,mttr,
  timeline``, which attaches the named observers to the *one*
  simulation and prints their sections (``audit`` and ``profile``
  together add the critical path over the happens-before graph);
* ``sched`` — the §4.6.2 checkpoint-scheduling policy comparison;
* ``serve`` — run a whole plan of jobs concurrently over one shared
  cluster through the gang-scheduling control plane, with fair-share
  tenancy and per-job audits.

``run`` writes ``--trace-out`` (Chrome trace-event JSON, or JSON lines
when the path ends in ``.jsonl``; ``pingpong`` and ``burst`` take it
too) and ``--report-out``: one JSON document, ``{"run": ...}`` plus one
key per attached observer holding that observer's own export.

One exit rule everywhere: 2 on a usage error, 1 when an auditor was
attached (``run --observe audit``, ``pingpong``/``burst`` ``--audit``,
a ``serve`` plan's per-job audits) and its verdict is not ``clean``,
else 0.  All table output is plain text; everything runs on simulated
time.
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
    format_timeline,
)
from .obs import (
    RecoveryAttribution,
    chrome_trace,
    merge_chrome_traces,
    recovery_timeline,
    trace_records,
)
from .runtime.config import DEFAULT_TESTBED
from .runtime.mpirun import run_job
from .workloads import nas
from .workloads.pingpong import measure as pingpong_measure
from .workloads.synthetic import measure as burst_measure

__all__ = ["main"]

DEVICES = ("p4", "v1", "v2")
KLASSES = ("T", "S", "A", "B", "C")
OBSERVERS = ("stats", "audit", "profile", "mttr", "timeline")


def _usage(msg: str) -> int:
    """Report a usage error argparse could not catch; the exit code."""
    print(f"repro: {msg}", file=sys.stderr)
    return 2


def _exit_code(results: Iterable[Any]) -> int:
    """The one exit rule: 1 when an attached auditor's verdict is not
    ``clean``, else 0."""
    unclean = any(
        res.audit is not None and not res.audit.clean for res in results
    )
    return 1 if unclean else 0


def _parse_devices(spec: str) -> Optional[list[str]]:
    """Split a ``--devices`` list once and validate every entry."""
    devices = [d.strip() for d in spec.split(",") if d.strip()]
    unknown = [d for d in devices if d not in DEVICES]
    if not devices or unknown:
        what = ", ".join(unknown) if unknown else "(empty list)"
        _usage(f"unknown device(s): {what}; choose from {', '.join(DEVICES)}")
        return None
    return devices


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


def _obs_parent() -> argparse.ArgumentParser:
    """Parent parser: ``pingpong``/``burst`` trace export and audit."""
    sp = argparse.ArgumentParser(add_help=False)
    sp.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the run's trace (Chrome trace-event JSON; "
             "*.jsonl writes JSON lines)",
    )
    sp.add_argument(
        "--audit", action="store_true",
        help="attach the online protocol auditor and print its verdict",
    )
    return sp


def _write_trace(path: Optional[str], runs: list[tuple[str, Any]]) -> None:
    """Honour ``--trace-out`` for one or more labelled runs."""
    if not path:
        return
    with open(path, "w") as fh:
        if path.endswith(".jsonl"):
            for label, res in runs:
                for rec in trace_records(res.tracer):
                    if len(runs) > 1:
                        rec = {"run": label, **rec}
                    fh.write(json.dumps(rec) + "\n")
        elif len(runs) == 1:
            res = runs[0][1]
            # a sampled run renders its time-series as counter tracks
            counters = (
                res.timeseries.counter_tracks()
                if res.timeseries is not None else None
            )
            json.dump(chrome_trace(res.tracer, counters=counters), fh)
        else:
            json.dump(
                merge_chrome_traces(
                    [(label, res.tracer) for label, res in runs]
                ),
                fh,
            )
    print(f"wrote trace to {path}")


def _finish_runs(args: argparse.Namespace, runs: list[tuple[str, Any]]) -> int:
    """``pingpong``/``burst`` epilogue: per-run ``--audit`` verdicts,
    ``--trace-out``, the exit code."""
    if args.audit:
        for label, res in runs:
            print(f"\n[{label}]")
            print(format_audit(res.audit))
    _write_trace(args.trace_out, runs)
    return _exit_code(res for _, res in runs)


def _cmd_pingpong(args: argparse.Namespace) -> int:
    devices = _parse_devices(args.devices)
    if devices is None:
        return 2
    sizes = [int(s) for s in args.sizes.split(",")]
    job_kw = {"trace": bool(args.trace_out), "audit": args.audit}
    runs: list[tuple[str, Any]] = []
    rows = []
    for nbytes in sizes:
        cells: list[Any] = [nbytes]
        for dev in devices:
            m = pingpong_measure(dev, nbytes, reps=args.reps, **job_kw)
            runs.append((f"{dev}/{nbytes}B", m["result"]))
            cells.append(m["latency_us"])
            cells.append(m["bandwidth_MBps"])
        rows.append(cells)
    headers = ["bytes"]
    for dev in devices:
        headers += [f"{dev} us", f"{dev} MB/s"]
    print(format_table(headers, rows))
    return _finish_runs(args, runs)


def _cmd_burst(args: argparse.Namespace) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    job_kw = {"trace": bool(args.trace_out), "audit": args.audit}
    runs: list[tuple[str, Any]] = []
    rows = []
    for nbytes in sizes:
        mp4 = burst_measure("p4", nbytes, reps=args.reps, **job_kw)
        mv2 = burst_measure("v2", nbytes, reps=args.reps, **job_kw)
        runs.append((f"p4/{nbytes}B", mp4["result"]))
        runs.append((f"v2/{nbytes}B", mv2["result"]))
        p4 = mp4["bandwidth_MBps"]
        v2 = mv2["bandwidth_MBps"]
        rows.append([nbytes, p4, v2, v2 / p4])
    print(format_table(["bytes", "P4 MB/s", "V2 MB/s", "V2/P4"], rows))
    return _finish_runs(args, runs)


def _parse_kills(spec: str) -> list[tuple[float, int]]:
    """Parse ``AT:RANK[,...]`` into an ExplicitFaults schedule."""
    out = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        at_s, rank_s = part.split(":")
        out.append((float(at_s), int(rank_s)))
    return out


def _parse_partitions(spec: str) -> list[tuple[float, tuple[int, ...], float]]:
    """Parse ``AT:DUR:R0+R1[,...]`` into a PartitionFaults schedule."""
    out = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        at_s, dur_s, ranks_s = part.split(":")
        ranks = tuple(int(r) for r in ranks_s.split("+"))
        out.append((float(at_s), ranks, float(dur_s)))
    return out


def _parse_service_faults(spec: str) -> list[tuple[float, str, float]]:
    """Parse ``NAME@AT:DOWN[,...]`` into a ServiceFaults schedule.

    Split on ``@`` first: service names themselves contain colons
    ("el:0", "cs:0").
    """
    out = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, rest = part.split("@", 1)
        at_s, down_s = rest.split(":")
        out.append((float(at_s), name, float(down_s)))
    return out


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
    if args.faults < 0:
        return _usage("--faults must be >= 0")
    planned =bool(args.faults or kills or partitions or outages)
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
        trace=bool(args.trace_out or {"mttr", "timeline"} & observe),
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
    if "timeline" in observe:
        print("\n" + format_timeline(recovery_timeline(res.tracer)))
    _write_trace(args.trace_out, [(label, res)])
    if args.report_out:
        with open(args.report_out, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote report ({', '.join(report)}) to {args.report_out}")
    return _exit_code([res])


def _cmd_sched(args: argparse.Namespace) -> int:
    from .sched import SCHEMES, scheme, simulate

    rows = []
    for name in sorted(SCHEMES):
        sc = scheme(name, args.nodes, rate=2e6)
        rr = simulate(sc, "round_robin", footprint=4e6)
        ad = simulate(sc, "adaptive", footprint=4e6)
        rows.append(
            [name, rr.ckpt_bandwidth / 1e6, ad.ckpt_bandwidth / 1e6,
             rr.ckpt_bandwidth / ad.ckpt_bandwidth]
        )
    print(format_table(["scheme", "RR MB/s", "adaptive MB/s", "RR/AD"], rows))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve.cli import cmd_serve
    return _exit_code(cmd_serve(args, _store_cfg, format_table))


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
    obs = _obs_parent()
    store = _store_parent()

    sp = sub.add_parser("pingpong", parents=[obs],
                        help="latency/bandwidth (Figures 5/6)")
    sp.add_argument("--sizes", default="0,1024,65536,1048576")
    sp.add_argument("--devices", default="p4,v1,v2")
    sp.add_argument("--reps", type=int, default=8)
    sp.set_defaults(fn=_cmd_pingpong)

    sp = sub.add_parser("burst", parents=[obs],
                        help="nonblocking burst bandwidth (Figure 9)")
    sp.add_argument("--sizes", default="1024,16384,65536")
    sp.add_argument("--reps", type=int, default=4)
    sp.set_defaults(fn=_cmd_burst)

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
                    help="write the run's trace (Chrome trace-event JSON; "
                         "*.jsonl writes JSON lines)")
    sp.add_argument("--report-out", default=None, metavar="PATH",
                    help="write one JSON report: the run plus each "
                         "attached observer's own document")
    sp.set_defaults(fn=_cmd_run)

    sp = sub.add_parser("sched", help="checkpoint-scheduling policies (§4.6.2)")
    sp.add_argument("--nodes", type=int, default=16)
    sp.set_defaults(fn=_cmd_sched)

    sp = sub.add_parser(
        "serve", parents=[store],
        help="run a multi-job plan over one shared cluster (gang scheduling)",
    )
    sp.add_argument("--jobs", required=True, metavar="PLAN.json",
                    help="plan file: tenants (with weights) and jobs")
    sp.add_argument("--capacity", type=int, default=None, metavar="N",
                    help="computing-node slots in the shared pool")
    sp.add_argument("--svc-slots", type=int, default=None, metavar="N",
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
