"""Command-line interface: ``python -m repro <command> ...``.

Commands mirror the workflows of the paper's evaluation:

* ``pingpong`` — latency/bandwidth across devices (Figures 5/6);
* ``burst`` — the Figure 9 nonblocking burst pattern;
* ``kernel`` — run one NPB proxy on one device;
* ``faulty`` — run a kernel under random faults with checkpointing
  (the Figure 11 setup);
* ``sched`` — the §4.6.2 checkpoint-scheduling policy comparison;
* ``stats`` — run one kernel and print the mechanism-level metrics
  (``--prefix``/``--top`` filter the totals table);
* ``trace`` — run one kernel with tracing and export a Chrome trace;
* ``audit`` — run one kernel under the online protocol auditor and
  report the V2 safety verdict (exit 1 on violations);
* ``profile`` — run one kernel under the event-kernel profiler and
  print the overhead decomposition ("where does the time go"): per-
  service CPU, hottest event kinds, and — on v2 — the critical path
  over the happens-before graph;
* ``mttr`` — run one kernel under churn faults and print the
  phase-decomposed recovery attribution ("where does recovery time
  go"): per-fault detect/respawn/fetch/el-download/resync/replay
  durations, per-phase p50/p95, detection latency by source;
* ``serve`` — run a whole plan of jobs concurrently over one shared
  cluster through the gang-scheduling control plane, with fair-share
  tenancy and per-job audits (exit 1 on any violation).

``kernel``, ``faulty``, ``pingpong``, ``burst`` and ``stats`` also take
``--trace-out`` (Chrome trace-event JSON, or JSON lines when the path
ends in ``.jsonl``) and ``--metrics-out`` (the full metrics registry as
JSON).  All table output is plain text; everything runs on simulated
time.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional, Sequence

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


def _parse_devices(spec: str) -> Optional[list[str]]:
    """Split a ``--devices`` list once and validate every entry."""
    devices = [d.strip() for d in spec.split(",") if d.strip()]
    unknown = [d for d in devices if d not in DEVICES]
    if not devices or unknown:
        what = ", ".join(unknown) if unknown else "(empty list)"
        print(
            f"repro: unknown device(s): {what}; "
            f"choose from {', '.join(DEVICES)}",
            file=sys.stderr,
        )
        return None
    return devices


KLASSES = ("T", "S", "A", "B", "C")


def _workload_parent(
    klass: str = "A", nprocs: int = 4, device: Optional[str] = "v2"
) -> argparse.ArgumentParser:
    """Parent parser: the shared kernel/--class/-n/--device block
    (``device=None`` omits ``--device`` for commands pinned to v2)."""
    sp = argparse.ArgumentParser(add_help=False)
    sp.add_argument("name", choices=sorted(nas.KERNELS))
    sp.add_argument("--class", dest="klass", default=klass, choices=KLASSES)
    sp.add_argument("-n", "--nprocs", type=int, default=nprocs)
    if device is not None:
        sp.add_argument("--device", default=device, choices=DEVICES)
    return sp


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
    changes: dict[str, Any] = {}
    if getattr(args, "ckpt_servers", None) is not None:
        changes["ckpt_servers"] = max(1, args.ckpt_servers)
    if getattr(args, "ckpt_replicas", None) is not None:
        changes["ckpt_replicas"] = max(1, args.ckpt_replicas)
    if getattr(args, "ckpt_incremental", False):
        changes["ckpt_incremental"] = True
    if getattr(args, "ckpt_chunk_kib", None) is not None:
        changes["ckpt_chunk_kib"] = max(1, args.ckpt_chunk_kib)
    if getattr(args, "el_servers", None) is not None:
        changes["el_servers"] = max(1, args.el_servers)
    if getattr(args, "el_replicas", None) is not None:
        changes["el_replicas"] = max(1, args.el_replicas)
    return cfg.with_(**changes) if changes else cfg


def _obs_parent() -> argparse.ArgumentParser:
    """Parent parser: the trace/metrics export and audit flags."""
    sp = argparse.ArgumentParser(add_help=False)
    sp.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the run's trace (Chrome trace-event JSON; "
             "*.jsonl writes JSON lines)",
    )
    sp.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the full metrics registry as JSON",
    )
    sp.add_argument(
        "--audit", action="store_true",
        help="attach the online protocol auditor and print its verdict",
    )
    return sp


def _write_obs(args: argparse.Namespace, runs: list[tuple[str, Any]]) -> None:
    """Honour ``--trace-out`` / ``--metrics-out`` for one or more runs."""
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if trace_out:
        if trace_out.endswith(".jsonl"):
            with open(trace_out, "w") as fh:
                for label, res in runs:
                    for rec in trace_records(res.tracer):
                        if len(runs) > 1:
                            rec = {"run": label, **rec}
                        fh.write(json.dumps(rec) + "\n")
        else:
            if len(runs) == 1:
                res = runs[0][1]
                # a sampled run renders its time-series as counter tracks
                counters = (
                    res.timeseries.counter_tracks()
                    if getattr(res, "timeseries", None) is not None
                    else None
                )
                doc = chrome_trace(res.tracer, counters=counters)
            else:
                doc = merge_chrome_traces(
                    [(label, res.tracer) for label, res in runs]
                )
            with open(trace_out, "w") as fh:
                json.dump(doc, fh)
    if metrics_out:
        payload: Any = {
            label: res.metrics.export() if res.metrics is not None else []
            for label, res in runs
        }
        if len(runs) == 1:
            payload = next(iter(payload.values()))
        with open(metrics_out, "w") as fh:
            json.dump(payload, fh, indent=2)


def _print_detect_latency(res: Any) -> None:
    """Print the fault→detection latency histogram split by source."""
    if res.metrics is None:
        return
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


def _print_audits(args: argparse.Namespace, runs: list[tuple[str, Any]]) -> None:
    """Honour ``--audit`` by printing each run's verdict."""
    if not getattr(args, "audit", False):
        return
    for label, res in runs:
        if len(runs) > 1:
            print(f"\n[{label}]")
        print(format_audit(res.audit))


def _cmd_pingpong(args: argparse.Namespace) -> int:
    devices = _parse_devices(args.devices)
    if devices is None:
        return 2
    sizes = [int(s) for s in args.sizes.split(",")]
    job_kw: dict[str, Any] = {"trace": True} if args.trace_out else {}
    if args.audit:
        job_kw["audit"] = True
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
    _print_audits(args, runs)
    _write_obs(args, runs)
    return 0


def _cmd_burst(args: argparse.Namespace) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    job_kw: dict[str, Any] = {"trace": True} if args.trace_out else {}
    if args.audit:
        job_kw["audit"] = True
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
    _print_audits(args, runs)
    _write_obs(args, runs)
    return 0


def _kill_plan(
    args: argparse.Namespace, churn: bool = False,
    interval: Optional[float] = None,
):
    """The rank-kill plan a verb's flags describe (None: no kills):
    ``--kill-at`` is explicit; otherwise ``--faults`` kills, drawn from
    Weibull ``churn`` or evenly ``interval`` (default
    ``--fault-interval``) apart."""
    from .ft.failure import ChurnFaults, ExplicitFaults, RandomFaults

    if getattr(args, "kill_at", None):
        return ExplicitFaults(
            [(float(t), int(r)) for t, r in
             (part.split(":") for part in args.kill_at.split(","))]
        )
    if not args.faults:
        return None
    if churn:
        return ChurnFaults(
            mean_lifetime=args.mean_lifetime, shape=args.shape,
            max_faults=args.faults, seed=args.seed,
        )
    return RandomFaults(
        interval=args.fault_interval if interval is None else interval,
        count=args.faults, seed=args.seed,
    )


def _run_kernel(
    args: argparse.Namespace, faults: Any = None, churn_ckpt: bool = False,
    **job_kw: Any,
) -> tuple[str, Any]:
    """The one way a verb runs its kernel: the verb's device, the cfg its
    ``--ckpt-*``/``--el-*`` flags describe, its fault plan, and — with
    ``churn_ckpt`` — the continuous random checkpoints every faulty v2
    run uses.  Returns ``(label, JobResult)``; the verb prints its table.
    """
    if churn_ckpt:
        job_kw = dict(checkpointing=True, ckpt_policy="random",
                      ckpt_continuous=True, **job_kw)
    job_kw.setdefault("trace", bool(getattr(args, "trace_out", None)))
    job_kw.setdefault("audit", getattr(args, "audit", False))
    res = run_job(
        nas.KERNELS[args.name].program, args.nprocs,
        device=getattr(args, "device", "v2"),
        cfg=_store_cfg(args, DEFAULT_TESTBED),
        params={"klass": args.klass}, limit=1e8, faults=faults, **job_kw,
    )
    return f"{args.name}-{args.klass}", res


def _finish(args: argparse.Namespace, label: str, res: Any) -> int:
    """Print ``--audit`` verdicts, write ``--trace-out``/``--metrics-out``;
    the exit code of a verb that fails on violations."""
    _print_audits(args, [(label, res)])
    _write_obs(args, [(label, res)])
    unclean = args.audit and res.audit is not None and not res.audit.clean
    return 1 if unclean else 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    ckpt_kw = {}
    if args.ckpt_interval is not None:
        if args.device != "v2":
            print("--ckpt-interval requires --device v2", file=sys.stderr)
            return 2
        ckpt_kw = dict(checkpointing=True, ckpt_interval=args.ckpt_interval)
    label, res = _run_kernel(args, **ckpt_kw)
    b = breakdown(res)
    spec = nas.KERNELS[args.name].spec(args.klass)
    print(
        format_table(
            ["kernel", "device", "procs", "elapsed s", "compute s",
             "comm s", "Mop/s"],
            [[label.upper(), args.device, args.nprocs,
              b["elapsed"], b["compute"], b["comm"],
              mops(spec.total_flops, res)]],
        )
    )
    _finish(args, label, res)
    return 0


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


def _cmd_faulty(args: argparse.Namespace) -> int:
    from .ft.failure import PartitionFaults, ServiceFaults

    if args.device not in ("v1", "v2"):
        print(
            f"repro: faulty requires a fault-tolerant device "
            f"(--device v2 or v1), not {args.device!r}",
            file=sys.stderr,
        )
        return 2
    if args.device == "v1" and args.partitions:
        print(
            "repro: --partitions requires --device v2 "
            "(V1 has no partition hook)",
            file=sys.stderr,
        )
        return 2
    try:
        partition_sched = (
            _parse_partitions(args.partitions) if args.partitions else []
        )
        service_sched = (
            _parse_service_faults(args.service_faults)
            if args.service_faults
            else []
        )
    except ValueError as exc:
        print(f"repro: bad fault spec: {exc}", file=sys.stderr)
        return 2
    _, base = _run_kernel(args, trace=False, audit=False)
    kills = _kill_plan(
        args, churn=args.plan == "churn",
        interval=base.elapsed / max(1, args.faults + 1),
    )
    plans: list[Any] = [kills] if kills is not None else []
    if partition_sched:
        plans.append(PartitionFaults(partition_sched))
    if service_sched:
        plans.append(ServiceFaults(service_sched))
    # V1's recovery is its own (restart-from-scratch + CM replay):
    # checkpointing belongs to v2 only
    label, res = _run_kernel(
        args, faults=plans or None, churn_ckpt=args.device == "v2"
    )
    print(
        format_table(
            ["kernel", "faults", "reference s", "elapsed s", "slowdown",
             "restarts", "checkpoints", "replayed", "ckpt MB"],
            [[label.upper(), args.faults, base.elapsed,
              res.elapsed, res.elapsed / base.elapsed, res.restarts,
              res.checkpoints, int(res.stat("deliveries.replayed")),
              res.stat("ckpt.bytes") / 1e6]],
        )
    )
    total = res.metrics.total
    if partition_sched or service_sched:
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
    if args.device == "v1" and service_sched:
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
    return _finish(args, f"{label}-faulty", res)


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


def _cmd_stats(args: argparse.Namespace) -> int:
    label, res = _run_kernel(args)
    print(format_stats(res.metrics, prefix=args.prefix, top=args.top))
    if args.prefix in (None, "disp."):
        _print_detect_latency(res)
    _finish(args, label, res)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs.profile import critical_path

    use_hb = args.device == "v2" and not args.no_critical
    _, res = _run_kernel(
        args, seed=args.seed, profile=True, audit=use_hb, audit_hb=use_hb
    )
    critical = critical_path(res.audit.hb) if use_hb else None
    print(
        format_profile(
            res.profile, critical=critical, elapsed=res.elapsed, top=args.top
        )
    )
    if args.json_out:
        doc = res.profile.to_dict()
        if critical is not None:
            doc["critical_path"] = critical
        with open(args.json_out, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote profile to {args.json_out}")
    return 0


def _cmd_mttr(args: argparse.Namespace) -> int:
    label, res = _run_kernel(
        args, faults=_kill_plan(args, churn=True), churn_ckpt=True,
        ckpt_interval=args.ckpt_interval, seed=args.seed, trace=True,
        timeseries=args.sample_interval,
    )
    att = RecoveryAttribution.from_trace(res.tracer)
    print(
        f"{args.name.upper()}-{args.klass} x{args.nprocs} under churn: "
        f"elapsed {res.elapsed:.2f}s, {res.restarts} restarts, "
        f"{res.checkpoints} checkpoints"
    )
    print(format_mttr(att))
    if args.json_out:
        doc = {
            "kernel": label,
            "nprocs": args.nprocs,
            "seed": args.seed,
            "elapsed": res.elapsed,
            "restarts": res.restarts,
            "attribution": att.as_dict(),
        }
        with open(args.json_out, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote attribution to {args.json_out}")
    if args.timeseries_out:
        n = res.timeseries.write_jsonl(args.timeseries_out)
        print(f"wrote {n} time-series samples to {args.timeseries_out}")
    return _finish(args, f"{label}-mttr", res)


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.faults and args.device != "v2":
        print("repro: fault injection requires --device v2", file=sys.stderr)
        return 2
    args.trace_out = args.out  # reuse the shared writer
    label, res = _run_kernel(
        args, faults=_kill_plan(args), churn_ckpt=bool(args.faults)
    )
    _write_obs(args, [(label, res)])
    print(f"wrote {len(res.tracer)} trace records to {args.out}")
    if args.timeline:
        print(format_timeline(recovery_timeline(res.tracer)))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    _, res = _run_kernel(
        args, faults=_kill_plan(args), churn_ckpt=bool(args.faults),
        seed=args.seed, audit=True, audit_hb=bool(args.hb_out),
    )
    print(format_audit(res.audit))
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(res.audit.to_dict(), fh, indent=2)
    if args.hb_out:
        with open(args.hb_out, "w") as fh:
            json.dump(res.audit.hb, fh)
        print(
            f"wrote happens-before graph "
            f"({len(res.audit.hb['nodes'])} nodes, "
            f"{len(res.audit.hb['edges'])} edges) to {args.hb_out}"
        )
    return 1 if res.audit.violations else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve.cli import cmd_serve
    return cmd_serve(args, _store_cfg, format_table)


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

    sp = sub.add_parser("kernel", parents=[_workload_parent(), store, obs],
                        help="run one NPB proxy")
    sp.add_argument("--ckpt-interval", type=float, default=None,
                    metavar="SECS",
                    help="checkpoint every SECS simulated seconds (v2 "
                         "only); checkpoints let the event loggers "
                         "garbage-collect acknowledged logs, which bounds "
                         "logger memory on long runs")
    sp.set_defaults(fn=_cmd_kernel)

    sp = sub.add_parser("faulty", parents=[_workload_parent(), store, obs],
                        help="kernel under faults (Figure 11 setup)")
    sp.add_argument("--faults", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--plan", default="random", choices=["random", "churn"],
                    help="rank-kill schedule: evenly-spaced random kills, "
                         "or Weibull desktop-grid churn")
    sp.add_argument("--mean-lifetime", type=float, default=10.0,
                    help="churn: mean node lifetime in simulated seconds")
    sp.add_argument("--shape", type=float, default=0.7,
                    help="churn: Weibull shape (<1 is heavy-tailed)")
    sp.add_argument("--partitions", default=None, metavar="AT:DUR:R0+R1[,..]",
                    help="cut the listed ranks off the network at time AT "
                         "for DUR seconds (repeatable, comma separated)")
    sp.add_argument("--service-faults", default=None,
                    metavar="NAME@AT:DOWN[,..]",
                    help="crash service NAME (el:0, cs:0) at time AT for "
                         "DOWN seconds; durable state survives")
    sp.set_defaults(fn=_cmd_faulty)

    sp = sub.add_parser("sched", help="checkpoint-scheduling policies (§4.6.2)")
    sp.add_argument("--nodes", type=int, default=16)
    sp.set_defaults(fn=_cmd_sched)

    sp = sub.add_parser("stats", parents=[_workload_parent(), obs],
                        help="mechanism-level metrics for one run")
    sp.add_argument("--prefix", default=None, metavar="NS",
                    help="only metrics under this namespace prefix "
                         "(e.g. el. / session. / store.)")
    sp.add_argument("--top", type=int, default=None, metavar="N",
                    help="only the N largest totals (default: all)")
    sp.set_defaults(fn=_cmd_stats)

    sp = sub.add_parser(
        "profile", parents=[_workload_parent()],
        help="kernel-profiler overhead decomposition (where the time goes)",
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--top", type=int, default=10,
                    help="event kinds shown in the hot-kind table")
    sp.add_argument("--no-critical", action="store_true",
                    help="skip the happens-before critical path "
                         "(v2 only; avoids the audit overhead)")
    sp.add_argument("--json-out", default=None, metavar="PATH",
                    help="write the profile (and critical path) as JSON")
    sp.set_defaults(fn=_cmd_profile)

    sp = sub.add_parser(
        "mttr", parents=[_workload_parent(nprocs=8, device=None), store, obs],
        help="recovery attribution under churn (where recovery time goes)",
    )
    sp.add_argument("--faults", type=int, default=4,
                    help="churn: maximum number of rank kills")
    sp.add_argument("--mean-lifetime", type=float, default=10.0,
                    help="churn: mean node lifetime in simulated seconds")
    sp.add_argument("--shape", type=float, default=0.7,
                    help="churn: Weibull shape (<1 is heavy-tailed)")
    sp.add_argument("--kill-at", default=None, metavar="AT:RANK[,..]",
                    help="explicit kill schedule instead of churn")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--ckpt-interval", type=float, default=5.0,
                    help="checkpoint scheduler interval (simulated s)")
    sp.add_argument("--sample-interval", type=float, default=0.5,
                    help="time-series sampling cadence (simulated s)")
    sp.add_argument("--json-out", default=None, metavar="PATH",
                    help="write the full attribution as JSON")
    sp.add_argument("--timeseries-out", default=None, metavar="PATH",
                    help="write the sampled time-series as JSON lines")
    sp.set_defaults(fn=_cmd_mttr)

    sp = sub.add_parser(
        "trace", parents=[_workload_parent()],
        help="run one kernel with tracing; export Chrome trace",
    )
    sp.add_argument("--out", default="trace.json",
                    help="output path (*.jsonl writes JSON lines)")
    sp.add_argument("--faults", type=int, default=0)
    sp.add_argument("--fault-interval", type=float, default=5.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--timeline", action="store_true",
                    help="print the recovery timeline (fault → caught-up)")
    sp.set_defaults(fn=_cmd_trace)

    sp = sub.add_parser(
        "audit", parents=[_workload_parent(klass="S", device=None)],
        help="check the V2 safety invariants live (exit 1 on violations)",
    )
    sp.add_argument("--faults", type=int, default=0,
                    help="inject this many random faults (with checkpointing)")
    sp.add_argument("--fault-interval", type=float, default=5.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json-out", default=None, metavar="PATH",
                    help="write the full audit report as JSON")
    sp.add_argument("--hb-out", default=None, metavar="PATH",
                    help="write the happens-before graph as JSON")
    sp.set_defaults(fn=_cmd_audit)

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
