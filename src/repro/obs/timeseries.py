"""Time-series telemetry: sampled metric snapshots on a simulated-time cadence.

The registry (:mod:`repro.obs.registry`) answers "how much, in total" —
final counter values, time-weighted gauge means.  A churn run also needs
the *shape*: did queue depth spike while rank 3 replayed, how many
recoveries were outstanding when the third fault hit, is ``el.cpu_s``
climbing linearly or saturating.  :class:`TimeseriesSampler` snapshots a
selected subset of the registry every ``interval`` simulated seconds
into bounded ring series (one per metric name, summed across label
sets), cheap enough to leave on for a whole sweep.

The series export two ways:

* :meth:`as_dict` — the whole sample set as one JSON-friendly document
  (the ``timeseries`` entry of ``repro run --observe mttr
  --report-out``);
* :meth:`counter_tracks` — the input for
  :func:`repro.obs.trace_export.counter_events`, which renders each
  series as a Chrome-trace counter track so ``repro run --trace-out``
  shows a live dashboard (queue depth, suspected ranks, outstanding
  recoveries) alongside the event slices.

The sampler's clock is *simulated* time: :meth:`install` spawns a
periodic process on the simulator, and the launchers take one final
sample after the run so the last interval is never lost.  The process is
an infinite generator — the kernel's ``run_until`` exits as soon as the
job future resolves, so the sampler never holds a run open.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional, Sequence

from .registry import Metrics

__all__ = ["TimeseriesSampler", "DEFAULT_SERIES"]

#: metric names (exact, or prefixes when ending in ".") sampled by default
DEFAULT_SERIES: tuple[str, ...] = (
    "session.queue_depth",
    "session.stalled_writes",
    "el.cpu_s",
    "disp.suspected",
    "disp.suspect",
    "disp.recovering",
    "ft.faults",
    "ft.restarts",
    "sched.",
)


class TimeseriesSampler:
    """Bounded ring series of selected registry metrics over simulated time.

    ``include`` entries match a metric name exactly, or — when they end
    in ``"."`` — as a prefix (``"sched."`` collects every scheduler
    metric).  Matching metrics are summed across their label sets, so
    ``session.queue_depth`` is one cluster-wide series, not one per
    rank.  Each series is a ``deque(maxlen=max_samples)``: a run longer
    than the ring keeps the newest samples and counts the shed ones in
    :attr:`dropped`.
    """

    def __init__(
        self,
        metrics: Metrics,
        interval: float = 0.5,
        max_samples: int = 4096,
        include: Sequence[str] = DEFAULT_SERIES,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"sampling interval must be > 0 (got {interval})")
        self.metrics = metrics
        self.interval = float(interval)
        self.max_samples = int(max_samples)
        self.include = tuple(include)
        self._exact = frozenset(n for n in self.include if not n.endswith("."))
        self._prefixes = tuple(n for n in self.include if n.endswith("."))
        self.series: dict[str, deque] = {}
        self.dropped = 0
        self._last_t: Optional[float] = None

    def _selected(self, name: str) -> bool:
        if name in self._exact:
            return True
        return any(name.startswith(p) for p in self._prefixes)

    # -- sampling ------------------------------------------------------
    def sample(self, now: float) -> None:
        """Take one snapshot at simulated time ``now`` (idempotent per t)."""
        if self._last_t is not None and now <= self._last_t:
            return
        self._last_t = now
        totals: dict[str, float] = {}
        for m in self.metrics:
            if not self._selected(m.name):
                continue
            # gauges sample their current level; counters/histograms
            # their running scalar (monotone, so the series shows rate)
            totals[m.name] = totals.get(m.name, 0.0) + m.scalar()
        for name, value in totals.items():
            ring = self.series.get(name)
            if ring is None:
                ring = self.series[name] = deque(maxlen=self.max_samples)
            if len(ring) == ring.maxlen:
                self.dropped += 1
            ring.append((now, value))

    def install(self, sim: Any) -> None:
        """Spawn the periodic sampling process on the simulator."""
        def _loop():
            while True:
                self.sample(sim.now)
                yield sim.pause(self.interval)

        sim.spawn(_loop(), name="obs.timeseries")

    # -- export --------------------------------------------------------
    def counter_tracks(self) -> dict[str, list[tuple[float, float]]]:
        """``{name: [(t, value), ...]}`` for Chrome counter export."""
        return {name: list(ring) for name, ring in sorted(self.series.items())}

    def as_dict(self) -> dict[str, Any]:
        """A JSON-friendly dump of every series."""
        return {
            "interval": self.interval,
            "dropped": self.dropped,
            "series": {
                name: [[t, v] for t, v in ring]
                for name, ring in sorted(self.series.items())
            },
        }
