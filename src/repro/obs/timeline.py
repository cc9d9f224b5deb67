"""Recovery timelines and phase attribution: where recovery time goes.

Figures 10-11 of the paper plot how long a crashed node takes to rejoin
the computation.  This module derives that timeline from trace records:
each :class:`RestartSpan` strings together, for one fault on one rank,

* ``ft.fault``         — the injector killed the host;
* ``ft.detect``        — the dispatcher's fault detector fired (the
  record carries its *source*: the socket-disconnection detector, or
  the heartbeat monitor that had already flagged the rank suspect);
* ``ft.restart``       — the dispatcher respawned the rank (possibly on
  a spare host);
* ``store.fetch_*``    — the streamed checkpoint-image fetch (bytes,
  chunks, replica failovers, retries);
* ``v2.el_download``   — the event-logger download that overlaps it;
* ``v2.restart``       — the new daemon finished phase A and entered
  replay;
* ``v2.restart2``      — a peer answered the RESTART1 handshake (the
  span's ``resync_t`` is the moment the last peer answered);
* ``v2.caught_up``     — replay drained: the rank is executing fresh
  work.

A second fault striking the same rank mid-recovery *aborts* the open
span (``aborted_t``/``aborted_by``) and chains the superseding span to
it by incarnation (``chained_from``), so at most one span per rank is
ever open and MTTR statistics never mistake an aborted arc for missing
data.  Spans whose job simply ended first keep ``None`` tails.

:class:`RecoveryAttribution` aggregates the spans into the phase
decomposition — detect / respawn / fetch / el-download / resync /
replay — with per-phase p50/p95 and the reconciliation invariant that
the contiguous phases (detect + respawn + restore + replay) sum exactly
to ``recovery_s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from ..simnet.trace import Tracer

__all__ = [
    "RestartSpan",
    "RecoveryAttribution",
    "recovery_timeline",
    "quantile",
]


def quantile(values: Sequence[float], q: float) -> Optional[float]:
    """Linear-interpolation quantile of an unsorted sequence (None when
    empty); ``q`` in [0, 1]."""
    if not values:
        return None
    vs = sorted(values)
    pos = q * (len(vs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(vs) - 1)
    frac = pos - lo
    return vs[lo] * (1.0 - frac) + vs[hi] * frac


@dataclass
class RestartSpan:
    """One fault-to-recovery arc for one rank (times in simulated s)."""

    rank: int
    fault_t: float
    detect_t: Optional[float] = None
    detect_source: Optional[str] = None  # "socket" | "heartbeat"
    respawn_t: Optional[float] = None
    replay_start_t: Optional[float] = None
    caught_up_t: Optional[float] = None
    incarnation: Optional[int] = None
    host: Optional[str] = None
    replay_events: Optional[int] = None
    # checkpoint-image fetch (overlaps the EL download inside restore)
    fetch_start_t: Optional[float] = None
    fetch_done_t: Optional[float] = None
    fetch_bytes: int = 0
    fetch_chunks: int = 0
    fetch_failovers: int = 0
    fetch_retries: int = 0
    fetch_found: Optional[bool] = None
    # event-logger download (client-side completion)
    el_download_t: Optional[float] = None
    el_events: Optional[int] = None
    el_download_s: Optional[float] = None
    el_retries: int = 0
    # replica links lost mid-download (another quorum member served it)
    el_failovers: int = 0
    # RESTART1/RESTART2 peer re-sync
    resync_t: Optional[float] = None  # when the last RESTART2 landed
    resync_peers: int = 0
    # every armed peer answered (peers we never talk to never do)
    resync_complete: bool = False
    # a second fault (or a global restart) struck mid-recovery
    aborted_t: Optional[float] = None
    aborted_by: Optional[str] = None  # "fault" | "global_restart"
    chained_from: Optional[int] = None  # aborted predecessor's incarnation

    # -- span state ----------------------------------------------------
    @property
    def aborted(self) -> bool:
        """True when a later fault cut this recovery arc short."""
        return self.aborted_t is not None

    @property
    def completed(self) -> bool:
        """True when the rank caught up (the arc ran to the end)."""
        return self.caught_up_t is not None

    # -- headline durations --------------------------------------------
    @property
    def downtime_s(self) -> Optional[float]:
        """Fault to respawn (the dispatcher's detect + spawn delays)."""
        if self.respawn_t is None:
            return None
        return self.respawn_t - self.fault_t

    @property
    def recovery_s(self) -> Optional[float]:
        """Fault to caught-up: the full rejoin latency."""
        if self.caught_up_t is None:
            return None
        return self.caught_up_t - self.fault_t

    # -- phase durations ------------------------------------------------
    @property
    def detect_s(self) -> Optional[float]:
        if self.detect_t is None:
            return None
        return self.detect_t - self.fault_t

    @property
    def respawn_s(self) -> Optional[float]:
        if self.respawn_t is None or self.detect_t is None:
            return None
        return self.respawn_t - self.detect_t

    @property
    def restore_s(self) -> Optional[float]:
        """Respawn to replay start: the phase-A window (image fetch and
        EL download run overlapped inside it)."""
        if self.replay_start_t is None or self.respawn_t is None:
            return None
        return self.replay_start_t - self.respawn_t

    @property
    def fetch_s(self) -> Optional[float]:
        if self.fetch_done_t is None or self.fetch_start_t is None:
            return None
        return self.fetch_done_t - self.fetch_start_t

    @property
    def replay_s(self) -> Optional[float]:
        if self.caught_up_t is None or self.replay_start_t is None:
            return None
        return self.caught_up_t - self.replay_start_t

    @property
    def resync_s(self) -> Optional[float]:
        """Respawn to the last RESTART2 seen (peer re-sync); peers the
        rank never talks to never answer, so this is a high-water mark
        (``resync_complete`` says whether every armed peer answered)."""
        if self.resync_t is None or self.respawn_t is None:
            return None
        return self.resync_t - self.respawn_t

    def as_dict(self) -> dict[str, Any]:
        """A JSON-friendly view of one restart arc."""
        return {
            "rank": self.rank,
            "fault_t": self.fault_t,
            "detect_t": self.detect_t,
            "detect_source": self.detect_source,
            "respawn_t": self.respawn_t,
            "replay_start_t": self.replay_start_t,
            "caught_up_t": self.caught_up_t,
            "incarnation": self.incarnation,
            "host": self.host,
            "replay_events": self.replay_events,
            "downtime_s": self.downtime_s,
            "recovery_s": self.recovery_s,
            "detect_s": self.detect_s,
            "respawn_s": self.respawn_s,
            "restore_s": self.restore_s,
            "fetch_s": self.fetch_s,
            "fetch_bytes": self.fetch_bytes,
            "fetch_chunks": self.fetch_chunks,
            "fetch_failovers": self.fetch_failovers,
            "fetch_retries": self.fetch_retries,
            "fetch_found": self.fetch_found,
            "el_download_s": self.el_download_s,
            "el_events": self.el_events,
            "el_retries": self.el_retries,
            "el_failovers": self.el_failovers,
            "resync_s": self.resync_s,
            "resync_peers": self.resync_peers,
            "resync_complete": self.resync_complete,
            "replay_s": self.replay_s,
            "aborted_t": self.aborted_t,
            "aborted_by": self.aborted_by,
            "chained_from": self.chained_from,
        }


def recovery_timeline(tracer: Tracer) -> list[RestartSpan]:
    """Pair the recovery-arc records into per-fault spans.

    Records are consumed in trace order (the tracer is append-only, so
    that is time order).  A new ``ft.fault`` for a rank *aborts* any
    span still open for it — a second fault mid-recovery supersedes the
    arc in flight — so each rank has at most one open span and every
    later marker attaches unambiguously.
    """
    spans: list[RestartSpan] = []
    open_spans: dict[int, list[RestartSpan]] = {}

    def oldest_open(rank: Any, unset: str) -> Optional[RestartSpan]:
        for span in open_spans.get(rank, ()):
            if getattr(span, unset) is None:
                return span
        return None

    def abort(rank: Any, time: float, why: str) -> Optional[RestartSpan]:
        last: Optional[RestartSpan] = None
        for span in open_spans.pop(rank, ()):
            span.aborted_t = time
            span.aborted_by = why
            last = span
        return last

    for rec in tracer:
        kind = rec.kind
        if kind == "ft.global_restart":
            for rank in list(open_spans):
                abort(rank, rec.time, "global_restart")
            continue
        rank = rec.fields.get("rank")
        if rank is None:
            continue
        if kind == "ft.fault":
            prev = abort(rank, rec.time, "fault")
            span = RestartSpan(
                rank=rank,
                fault_t=rec.time,
                chained_from=prev.incarnation if prev is not None else None,
            )
            spans.append(span)
            open_spans.setdefault(rank, []).append(span)
        elif kind == "ft.detect":
            span = oldest_open(rank, "detect_t")
            if span is not None:
                span.detect_t = rec.time
                span.detect_source = rec.fields.get("source")
        elif kind == "ft.restart":
            span = oldest_open(rank, "respawn_t")
            if span is not None:
                span.respawn_t = rec.time
                span.incarnation = rec.fields.get("incarnation")
                span.host = rec.fields.get("host")
        elif kind == "store.fetch_start":
            span = oldest_open(rank, "fetch_start_t")
            if span is not None:
                span.fetch_start_t = rec.time
        elif kind == "store.fetch_done":
            span = oldest_open(rank, "fetch_done_t")
            if span is not None:
                span.fetch_done_t = rec.time
                span.fetch_bytes = rec.fields.get("bytes", 0)
                span.fetch_chunks = rec.fields.get("chunks", 0)
                span.fetch_failovers = rec.fields.get("failovers", 0)
                span.fetch_retries = rec.fields.get("retries", 0)
                span.fetch_found = rec.fields.get("found")
        elif kind == "v2.el_download":
            span = oldest_open(rank, "el_download_t")
            if span is not None:
                span.el_download_t = rec.time
                span.el_events = rec.fields.get("n")
                span.el_download_s = rec.fields.get("wait_s")
                span.el_retries = rec.fields.get("retries", 0)
                span.el_failovers = rec.fields.get("failovers", 0)
        elif kind == "v2.restart":
            span = oldest_open(rank, "replay_start_t")
            if span is not None:
                span.replay_start_t = rec.time
                span.replay_events = rec.fields.get("replay_events")
        elif kind == "v2.restart2":
            # only meaningful during an open recovery: flap-triggered
            # resyncs outside a restart arc have no span and are skipped
            span = oldest_open(rank, "caught_up_t")
            if span is not None and span.respawn_t is not None:
                span.resync_peers += 1
                span.resync_t = rec.time
                if rec.fields.get("remaining", 1) == 0:
                    span.resync_complete = True
        elif kind == "v2.caught_up":
            span = oldest_open(rank, "caught_up_t")
            if span is not None:
                span.caught_up_t = rec.time
                open_spans[rank].remove(span)
    return spans


class RecoveryAttribution:
    """Phase-decomposed MTTR over the spans of one traced run.

    Splits the spans into ``completed`` / ``aborted`` / ``incomplete``
    (the job ended mid-arc), exposes per-span phase breakdowns, and
    aggregates per-phase p50/p95 over the completed arcs.  The
    contiguous phases — detect, respawn, restore (the phase-A window
    covering the overlapped image fetch and EL download), replay — tile
    ``[fault_t, caught_up_t]`` exactly, which :meth:`reconcile` checks.
    """

    #: the reported decomposition, in arc order (fetch, el_download and
    #: resync are sub-phases inside the restore/replay windows)
    PHASES = ("detect", "respawn", "fetch", "el_download", "resync", "replay")
    #: the contiguous tiling whose durations sum to ``recovery_s``
    CONTIGUOUS = ("detect", "respawn", "restore", "replay")

    def __init__(self, spans: Sequence[RestartSpan]) -> None:
        self.spans = list(spans)
        self.completed = [s for s in self.spans if s.completed]
        self.aborted = [s for s in self.spans if s.aborted]
        self.incomplete = [
            s for s in self.spans if not s.completed and not s.aborted
        ]

    @classmethod
    def from_trace(cls, tracer: Tracer) -> "RecoveryAttribution":
        """Build the attribution straight from a run's tracer."""
        return cls(recovery_timeline(tracer))

    # -- per-span ------------------------------------------------------
    def breakdown(self, span: RestartSpan) -> dict[str, Optional[float]]:
        """The six reported phase durations for one span."""
        return {
            "detect": span.detect_s,
            "respawn": span.respawn_s,
            "fetch": span.fetch_s,
            "el_download": span.el_download_s,
            "resync": span.resync_s,
            "replay": span.replay_s,
        }

    def reconcile(self, span: RestartSpan) -> Optional[float]:
        """|sum(contiguous phases) - recovery_s|; None while incomplete.

        The contiguous tiling is exact by construction, so anything
        beyond float rounding means a phase marker went missing.
        """
        if span.recovery_s is None:
            return None
        parts = (span.detect_s, span.respawn_s, span.restore_s, span.replay_s)
        if any(p is None for p in parts):
            return None
        return abs(sum(parts) - span.recovery_s)

    # -- aggregates ----------------------------------------------------
    def mttr(self) -> dict[str, Any]:
        """p50/p95/mean/max of ``recovery_s`` over the completed arcs."""
        return self._dist([s.recovery_s for s in self.completed])

    def phase_stats(self) -> dict[str, dict[str, Any]]:
        """Per-phase p50/p95/mean/max over the completed arcs."""
        out: dict[str, dict[str, Any]] = {}
        for phase in self.PHASES:
            values = [
                v
                for s in self.completed
                if (v := self.breakdown(s)[phase]) is not None
            ]
            out[phase] = self._dist(values)
        return out

    def totals(self) -> dict[str, Any]:
        """Byte/retry/failover totals across every span (even aborted)."""
        return {
            "fetch_bytes": sum(s.fetch_bytes for s in self.spans),
            "fetch_chunks": sum(s.fetch_chunks for s in self.spans),
            "fetch_failovers": sum(s.fetch_failovers for s in self.spans),
            "fetch_retries": sum(s.fetch_retries for s in self.spans),
            "el_events": sum(s.el_events or 0 for s in self.spans),
            "el_retries": sum(s.el_retries for s in self.spans),
            "el_failovers": sum(s.el_failovers for s in self.spans),
            "resync_peers": sum(s.resync_peers for s in self.spans),
        }

    def detect_by_source(self) -> dict[str, dict[str, Any]]:
        """Detection-latency distribution split by detector source."""
        groups: dict[str, list[float]] = {}
        for s in self.spans:
            if s.detect_s is None:
                continue
            groups.setdefault(s.detect_source or "socket", []).append(
                s.detect_s
            )
        return {src: self._dist(vs) for src, vs in sorted(groups.items())}

    @staticmethod
    def _dist(values: Sequence[float]) -> dict[str, Any]:
        vs = [v for v in values if v is not None]
        if not vs:
            return {"n": 0, "p50": None, "p95": None, "mean": None,
                    "max": None}
        return {
            "n": len(vs),
            "p50": quantile(vs, 0.50),
            "p95": quantile(vs, 0.95),
            "mean": sum(vs) / len(vs),
            "max": max(vs),
        }

    def as_dict(self) -> dict[str, Any]:
        """A JSON-friendly dump (``mttr`` in ``repro run --report-out``)."""
        return {
            "spans": [s.as_dict() for s in self.spans],
            "completed": len(self.completed),
            "aborted": len(self.aborted),
            "incomplete": len(self.incomplete),
            "mttr": self.mttr(),
            "phases": self.phase_stats(),
            "totals": self.totals(),
            "detect_by_source": self.detect_by_source(),
            "max_reconcile_err_s": max(
                (e for s in self.completed
                 if (e := self.reconcile(s)) is not None),
                default=0.0,
            ),
        }
