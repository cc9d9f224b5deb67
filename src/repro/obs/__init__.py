"""Observability: metrics registry, trace export, recovery timelines.

The paper's claims are mechanism-level claims — event-logger round trips
gating sends, sender logs spilling to disk, checkpoint/restart arcs —
and this package measures exactly those mechanisms:

* :mod:`~repro.obs.registry` — always-on counters/gauges/histograms with
  per-rank and per-component labels (read via ``JobResult.stat(...)``);
* :mod:`~repro.obs.trace_export` — Chrome trace-event JSON (open the
  file at https://ui.perfetto.dev) and JSONL dumps of a run's tracer;
* :mod:`~repro.obs.timeline` — fault → detect → respawn → fetch /
  el-download → resync → replay → caught-up spans per restart, and the
  :class:`~repro.obs.timeline.RecoveryAttribution` phase-decomposed MTTR;
* :mod:`~repro.obs.timeseries` — sampled metric snapshots on a
  simulated-time cadence (bounded ring series, JSONL and Chrome counter
  export);
* :mod:`~repro.obs.collect` — end-of-job folding of hot-path accounting
  into the registry;
* :mod:`~repro.obs.audit` — the online protocol auditor: live checking
  of the six V2 safety rules and the happens-before graph;
* :mod:`~repro.obs.profile` — the event-kernel profiler (per-kind
  dispatch counts, per-service CPU attribution, events/sec) and the
  critical-path extraction over the auditor's happens-before graph.
"""

from .audit import RULES, AuditReport, ProtocolAuditor, Violation
from .collect import fold_cluster, fold_device_stats
from .profile import (
    KernelProfile,
    KernelProfiler,
    classify_service,
    critical_path,
)
from .registry import DEFAULT_BOUNDS, Counter, Gauge, Histogram, Metrics
from .timeline import RecoveryAttribution, RestartSpan, recovery_timeline
from .timeseries import DEFAULT_SERIES, TimeseriesSampler
from .trace_export import (
    chrome_trace,
    counter_events,
    trace_records,
    write_chrome_trace,
    write_trace_jsonl,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "DEFAULT_BOUNDS",
    "DEFAULT_SERIES",
    "RecoveryAttribution",
    "RestartSpan",
    "TimeseriesSampler",
    "recovery_timeline",
    "chrome_trace",
    "counter_events",
    "trace_records",
    "write_chrome_trace",
    "write_trace_jsonl",
    "fold_cluster",
    "fold_device_stats",
    "KernelProfile",
    "KernelProfiler",
    "classify_service",
    "critical_path",
    "AuditReport",
    "ProtocolAuditor",
    "Violation",
    "RULES",
]
