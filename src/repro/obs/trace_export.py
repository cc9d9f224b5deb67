"""Trace export: Chrome trace-event JSON (Perfetto-loadable) and JSONL.

A :class:`~repro.simnet.trace.Tracer` collects typed records during a
run; this module turns them into the Chrome trace-event format (the
``traceEvents`` array understood by ``chrome://tracing`` and
https://ui.perfetto.dev) with **one track per host/daemon**:

* records carrying a ``rank`` (``v2.tx``, ``v2.ckpt``, ``mpi.*`` ...)
  land on a ``rank N`` process;
* ``net.xfer`` lands on the *sending host's* process;
* event-logger / checkpoint-server / dispatcher records land on their
  service's process.

Simulated seconds become microsecond timestamps (the unit the format
expects); every record is an instant event whose fields ride along in
``args``.

Time-series from :class:`~repro.obs.timeseries.TimeseriesSampler` render
as Chrome *counter* tracks (``ph: "C"``): pass its ``counter_tracks()``
to :func:`chrome_trace`/:func:`write_chrome_trace` via ``counters=`` and
the viewer draws queue-depth / suspected-rank / outstanding-recovery
graphs on a ``telemetry`` process alongside the event slices.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Optional, Sequence

from ..simnet.trace import Tracer, TraceRecord

__all__ = [
    "chrome_trace",
    "counter_events",
    "trace_records",
    "write_chrome_trace",
    "write_trace_jsonl",
]

#: pid reserved for the telemetry (counter-track) pseudo-process; far
#: above anything the per-track allocator hands out
TELEMETRY_PID = 9999


def _track_of(rec: TraceRecord) -> str:
    """The process (track) a record belongs to."""
    kind = rec.fields
    if rec.kind.startswith("net."):
        return f"host:{kind.get('src', 'net')}"
    if rec.kind.startswith("el."):
        return "event-logger"
    if rec.kind.startswith("cs."):
        return "ckpt-server"
    if rec.kind.startswith("ft."):
        return "dispatcher"
    rank = kind.get("rank", kind.get("at"))
    if rank is not None:
        return f"rank{rank}"
    return "sim"


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def counter_events(
    tracks: Mapping[str, Sequence[tuple[float, float]]],
) -> list[dict[str, Any]]:
    """Chrome counter events (``ph: "C"``) from sampled time-series.

    ``tracks`` maps a series name to its ``[(t_seconds, value), ...]``
    samples (the shape of ``TimeseriesSampler.counter_tracks()``).  Each
    series becomes one counter track on a shared ``telemetry`` process.
    """
    if not tracks:
        return []
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": TELEMETRY_PID,
            "tid": 0,
            "args": {"name": "telemetry"},
        }
    ]
    for name, samples in sorted(tracks.items()):
        for t, v in samples:
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "ts": t * 1e6,
                    "pid": TELEMETRY_PID,
                    "args": {name: v},
                }
            )
    return events


def chrome_trace(
    tracer: Tracer,
    counters: Optional[Mapping[str, Sequence[tuple[float, float]]]] = None,
) -> dict[str, Any]:
    """Render a tracer as a Chrome trace-event document (a plain dict)."""
    pids: dict[str, int] = {}
    tids: dict[tuple[int, str], int] = {}
    events: list[dict[str, Any]] = []
    meta: list[dict[str, Any]] = []

    for rec in tracer:
        track = _track_of(rec)
        pid = pids.get(track)
        if pid is None:
            pid = len(pids) + 1
            pids[track] = pid
            meta.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": track},
                }
            )
        tkey = (pid, rec.kind)
        tid = tids.get(tkey)
        if tid is None:
            tid = sum(1 for p, _ in tids if p == pid) + 1
            tids[tkey] = tid
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": rec.kind},
                }
            )
        events.append(
            {
                "name": rec.kind,
                "ph": "i",
                "s": "t",
                "ts": rec.time * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {k: _json_safe(v) for k, v in rec.fields.items()},
            }
        )

    return {
        "traceEvents": meta + events + counter_events(counters or {}),
        "displayTimeUnit": "ms",
    }


def trace_records(tracer: Tracer) -> list[dict[str, Any]]:
    """Flat dict records (the JSONL schema): ``{time, kind, **fields}``."""
    return [
        {"time": rec.time, "kind": rec.kind,
         **{k: _json_safe(v) for k, v in rec.fields.items()}}
        for rec in tracer
    ]


def write_chrome_trace(
    tracer: Tracer,
    path: str,
    counters: Optional[Mapping[str, Sequence[tuple[float, float]]]] = None,
) -> int:
    """Write one run as a Chrome trace file; returns the record count.

    ``counters`` adds sampler time-series as counter tracks (see
    :func:`counter_events`)."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer, counters=counters), fh)
    return len(tracer)


def write_trace_jsonl(tracer: Tracer, path: str) -> int:
    """Write one run as JSON-lines records; returns the record count."""
    with open(path, "w") as fh:
        for rec in trace_records(tracer):
            fh.write(json.dumps(rec) + "\n")
    return len(tracer)
