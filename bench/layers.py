"""The traced run: a per-layer ledger, taken from outside.

Layers are named after the modules of ``src/repro``.  Three kinds of
repetition, none of which feeds an end-to-end number:

* an *observed* repetition (``audit``, ``audit_hb``, ``profile``,
  ``trace`` all on) gives correctness, exact event counts by kind, heap
  depth, the el-ack share of the critical path, MTTR phases and the
  registry counters;
* a *profiled* repetition under ``cProfile``, installed here, buckets
  ``tottime`` — a function's span minus its children's — by source file
  into layers, and counts calls that cross a layer boundary;
* plain repetitions give ``host_s`` by the untraced run's rule, so that
  ``<layer>.host_us_per_msg`` = the layer's share of profiled self time
  x ``host_s`` / messages, and the layers sum to ``all.host_us_per_msg``.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import sys
from fnmatch import fnmatchcase
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any

from repro.obs import critical_path

from .contract import ROOT
from .timed import attempt, settle, timed_reps
from .workloads import WEIGHTS, Rep

SRC = ROOT / "src" / "repro"

#: layer -> patterns over paths relative to ``src/repro``; ``*`` crosses
#: ``/``.  Every source file must match exactly one layer.
LAYER_MAP = {
    "simnet.kernel": ["simnet/kernel.py", "simnet/rng.py",
                      "simnet/__init__.py"],
    "simnet.streams": ["simnet/streams.py"],
    "simnet.network": ["simnet/network.py", "simnet/node.py"],
    "runtime.session": ["runtime/session.py", "runtime/fabric.py",
                        "runtime/retry.py"],
    "mpi": ["mpi/*"],
    "core.daemon": ["core/v2_device.py", "core/peers.py", "core/delivery.py",
                    "core/sender_log.py", "core/clocks.py",
                    "core/ctrl_client.py", "core/__init__.py"],
    "core.el_client": ["core/el_client.py"],
    "core.event_logger": ["core/event_logger.py"],
    "core.recovery": ["core/replay.py", "core/ckpt_client.py"],
    "store": ["store/*"],
    "ft": ["ft/*"],
    "serve": ["serve/*"],
    "devices": ["devices/*", "runtime/cluster.py", "runtime/config.py"],
    "obs": ["obs/*", "simnet/trace.py"],
    # plus everything outside src/repro: stdlib, heapq, numpy, bench/
    "other": ["workloads/*", "analysis/*", "sched/*", "runtime/mpirun.py",
              "runtime/results.py", "runtime/progfile.py",
              "runtime/__init__.py", "cli.py", "__init__.py", "__main__.py"],
}


def layers_of(relpath: str) -> list[str]:
    return [
        layer for layer, patterns in LAYER_MAP.items()
        if any(fnmatchcase(relpath, p) for p in patterns)
    ]


def check_layer_map() -> None:
    """Exit unless every ``src/repro/**/*.py`` maps to exactly one layer:
    a new file lands in a named layer by decision, never in ``other`` by
    default."""
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        found = layers_of(rel)
        if len(found) != 1:
            problems.append(f"  src/repro/{rel}: {found or 'no layer'}")
    if problems:
        sys.exit(
            "bench: bench/layers.py LAYER_MAP must give each file one "
            "layer:\n" + "\n".join(problems)
        )


def _layer_of_file(filename: str) -> str:
    try:
        rel = Path(filename).resolve().relative_to(SRC).as_posix()
    except ValueError:  # builtins ("~"), stdlib, site-packages, bench/
        return "other"
    return layers_of(rel)[0]


def profiled_rep(wl, inputs) -> dict[str, Any]:
    """One repetition under cProfile, bucketed into layers."""
    prof = cProfile.Profile()
    gc.collect()
    t0 = perf_counter()
    prof.enable()
    rep = attempt(wl, inputs)
    prof.disable()
    host_s = perf_counter() - t0
    digest = rep.digest if rep is not None else None
    del rep
    self_s = dict.fromkeys(LAYER_MAP, 0.0)
    crossings: dict[str, int] = {}
    layer_cache: dict[str, str] = {}

    def layer(func: tuple) -> str:
        name = layer_cache.get(func[0])
        if name is None:
            name = layer_cache[func[0]] = _layer_of_file(func[0])
        return name

    for func, (_cc, _nc, tottime, _ct, callers) in pstats.Stats(
        prof
    ).stats.items():
        callee = layer(func)
        self_s[callee] += tottime
        for caller_func, (_ccc, calls, _ctt, _cct) in callers.items():
            caller = layer(caller_func)
            if caller != callee:
                key = f"{caller}->{callee}"
                crossings[key] = crossings.get(key, 0) + calls
    total = sum(self_s.values())
    return {
        "host_s": host_s,
        "digest": digest,
        "self_s": self_s,
        "share": {name: s / total for name, s in self_s.items()},
        "crossings": dict(sorted(crossings.items(), key=lambda kv: -kv[1])),
    }


# -- reading the observed repetition -----------------------------------------------

def _mean(rep: Rep, name: str) -> float:
    """Mean sample of one histogram, merged across jobs and labels."""
    total = count = 0.0
    for registry in rep.registries:
        for m in registry:
            if m.name == name and m.kind == "histogram":
                total += m.sum
                count += m.count
    return total / count if count else 0.0


def _peak(rep: Rep, name: str) -> float:
    """Highest level any one gauge of this name reached."""
    return max(
        (m.peak for registry in rep.registries for m in registry
         if m.name == name and m.kind == "gauge"),
        default=0.0,
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _el_ack_share(rep: Rep) -> float:
    """el-ack's share of the critical path (single-job workloads: the
    plane does not collect a happens-before graph)."""
    if len(rep.jobs) != 1 or rep.jobs[0].audit.hb is None:
        return 0.0
    path = critical_path(rep.jobs[0].audit.hb)
    return next(
        (c["share"] for c in path["contributions"]
         if c["category"] == "el-ack"),
        0.0,
    )


def _phase_median(rep: Rep, attr: str) -> float:
    values = [
        v for s in rep.recovery.completed
        if (v := getattr(s, attr)) is not None
    ]
    return median(values) if values else 0.0


def observed_counts(rep: Rep) -> dict[str, float]:
    """Every per-layer metric that does not need a host clock."""
    r = rep.registry.get
    msgs = r("dev.msgs_sent", 0.0)
    prof = rep.profile
    sleeps = sum(k["count"] for k in prof.kinds if k["kind"] == "sleep")
    pushed, dedup = r("store.push_bytes", 0.0), r("store.dedup_bytes", 0.0)
    out = {
        "simnet.kernel.events": float(prof.events),
        "simnet.kernel.events_per_msg": _ratio(prof.events, msgs),
        "simnet.kernel.sleep_share": _ratio(sleeps, prof.events),
        "simnet.kernel.heap_depth_mean": prof.queue_depth["mean"],
        "simnet.streams.segments_per_msg": _ratio(r("net.segments", 0.0), msgs),
        "simnet.streams.stalled_write_s": r("stream.stall_s", 0.0),
        "simnet.network.bytes": r("net.bytes", 0.0),
        "simnet.network.nic_busy_s":
            r("nic.tx_busy_s", 0.0) + r("nic.rx_busy_s", 0.0),
        "runtime.session.rtt_s": _mean(rep, "session.rtt_s"),
        "runtime.session.queue_depth": _peak(rep, "session.queue_depth"),
        "mpi.msgs": msgs,
        "mpi.bytes": r("dev.bytes_sent", 0.0),
        "mpi.wait_s": sum(
            t.comm_total() for job in rep.jobs for t in job.timers.values()
        ),
        "mpi.one_way_us": rep.values.get("one_way_us", 0.0),
        "core.daemon.gate_stalls": r("gate.stalls", 0.0),
        "core.daemon.gate_stall_s": r("gate.stall_s", 0.0),
        "core.daemon.senderlog_bytes": r("senderlog.bytes", 0.0),
        "core.el_client.roundtrips_per_msg": _ratio(r("el.roundtrips", 0.0), msgs),
        "core.el_client.rtt_s": _mean(rep, "el.rtt_s"),
        "core.el_client.ack_critical_share": _el_ack_share(rep),
        "core.event_logger.events_stored": r("el.events_stored", 0.0),
        "core.event_logger.acks_per_event":
            _ratio(r("el.acks", 0.0), r("el.events_stored", 0.0)),
        "core.event_logger.cpu_s": r("el.cpu_s", 0.0),
        "core.recovery.replayed": r("deliveries.replayed", 0.0),
        "core.recovery.replay_s": r("ft.replay_s", 0.0),
        "core.recovery.mttr_s": _phase_median(rep, "recovery_s"),
        "core.recovery.mttr_detect_s": _phase_median(rep, "detect_s"),
        "core.recovery.mttr_respawn_s": _phase_median(rep, "respawn_s"),
        "core.recovery.mttr_restore_s": _phase_median(rep, "restore_s"),
        "core.recovery.mttr_replay_s": _phase_median(rep, "replay_s"),
        "store.push_bytes": pushed,
        "store.chunks": r("store.chunks_received", 0.0),
        "store.dedup_ratio": _ratio(dedup, pushed + dedup),
        "store.quorum_s": _mean(rep, "store.quorum_s"),
        "store.fetch_bytes": r("store.fetch_bytes", 0.0),
        "store.images": r("ckpt.images", 0.0),
        "ft.faults": r("ft.faults", 0.0),
        "ft.restarts": r("ft.restarts", 0.0),
        "ft.downtime_s": r("ft.downtime_s", 0.0),
        "ft.detect_latency_s": _mean(rep, "disp.detect_latency_s"),
        "serve.jobs": rep.values.get("jobs_completed", 0.0),
        "serve.makespan_s": rep.sim_s if "jobs_completed" in rep.values else 0.0,
        "serve.queue_wait_p95_s": rep.values.get("queue_wait_p95_s", 0.0),
        "serve.share_err": rep.values.get("share_err", 0.0),
        "obs.audit_checks": float(sum(
            sum(job.audit.checks.values())
            for job in rep.jobs if job.audit is not None
        )),
    }
    for tenant in WEIGHTS:
        key = f"wait_mean_s.{tenant}"
        out[f"serve.{key}"] = rep.values.get(key, 0.0)
    return out


def trace(wl, seed: int, seconds: float, quick: bool):
    """The ``--trace 1`` run: (metric values, timed samples, detail)."""
    check_layer_map()
    inputs = wl.inputs(seed)
    deadline = perf_counter() + seconds

    gc.collect()
    t0 = perf_counter()
    observed = attempt(wl, inputs, observe=True)
    observed_s = perf_counter() - t0
    if observed is None:
        sys.exit(f"bench: the observed repetition of {wl.name} failed")
    values = observed_counts(observed)
    kinds = [{"kind": k["kind"], "count": k["count"]}
             for k in observed.profile.kinds]
    digest, sim_s, observed_failed = (
        observed.digest, observed.sim_s, observed.failed
    )
    del observed

    profiled = profiled_rep(wl, inputs)
    # whatever the two slow repetitions left, but never under a third
    plain_window = max(seconds / 3.0, deadline - perf_counter())
    timed = timed_reps(wl, inputs, sim_s, plain_window, quick, probe=False)
    timed.attempted += wl.ops  # the observed repetition is checked too
    timed.failed += observed_failed
    timed.digests.add(profiled["digest"])
    identical = settle(timed, digest)
    if not timed.rep_s:
        sys.exit(f"bench: no plain repetition of {wl.name} completed")

    host_s = timed.host_s
    msgs = values["mpi.msgs"]
    values["all.host_us_per_msg"] = _ratio(host_s * 1e6, msgs)
    for name, share in profiled["share"].items():
        values[f"{name}.host_us_per_msg"] = share * values["all.host_us_per_msg"]
    values["simnet.kernel.host_us_per_event"] = _ratio(
        host_s * 1e6, values["simnet.kernel.events"]
    )
    values["serve.host_ms_per_job"] = _ratio(host_s * 1e3, values["serve.jobs"])
    values["obs.audit_overhead_x"] = observed_s / host_s
    values["obs.trace_overhead_x"] = profiled["host_s"] / host_s
    detail = {
        "reps_identical": identical,
        "digest": digest,
        "host_s": host_s,
        "rep_s_samples": timed.rep_s,
        "observed_host_s": observed_s,
        "profiled_host_s": profiled["host_s"],
        "layer_self_s": profiled["self_s"],
        "layer_share": profiled["share"],
        "layer_crossings": profiled["crossings"],
        "event_kinds": kinds,
    }
    return values, timed, detail
