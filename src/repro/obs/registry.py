"""The metrics registry: counters, gauges and histograms with labels.

Every mechanism the paper argues from — event-logger round trips gating
sends (Table 1), sender-log occupancy spilling to disk (the LU effect),
checkpoint/restart traffic (Figures 10-11) — is accounted here, per rank
and per component, so benchmarks can assert on mechanism-level numbers
instead of inferring them from wall clock.

Design constraints:

* **always on, negligible cost** — a metric handle is bound once at
  component construction and every hot-path update is one attribute
  lookup plus a float add (no allocation, no string formatting);
* **incarnation-stable** — handles are get-or-create by
  ``(name, labels)``, so a restarted daemon's counters continue where
  its previous incarnation stopped;
* **simulated time** — time-weighted gauges integrate over *simulated*
  seconds passed in by the caller, never wall clock.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from typing import Any, Iterator, Optional

__all__ = ["Counter", "Gauge", "Histogram", "Metrics", "DEFAULT_BOUNDS"]

#: decade buckets wide enough for both seconds (~1e-6 ..) and bytes (.. ~1e9)
DEFAULT_BOUNDS: tuple[float, ...] = tuple(10.0 ** e for e in range(-7, 10))


class Counter:
    """A monotonically increasing float accumulator."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` (the hot-path operation); ``n`` must not be negative."""
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({n})")
        self.value += n

    def scalar(self) -> float:
        """The headline number for merged snapshots."""
        return self.value

    def export(self) -> dict[str, Any]:
        """Full state, JSON-friendly (one entry of :meth:`Metrics.export`)."""
        return {"value": self.value}


class Gauge:
    """A sampled level, optionally time-weighted over simulated seconds.

    ``set(value, now)`` integrates the previous level over the elapsed
    simulated time, so ``time_avg(now)`` is the true time-weighted mean
    (e.g. mean sender-log occupancy), and ``peak`` the high-water mark.
    """

    __slots__ = ("name", "labels", "value", "peak", "_integral", "_last_t")

    kind = "gauge"

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.peak = 0.0
        self._integral = 0.0
        self._last_t = 0.0

    def set(self, value: float, now: Optional[float] = None) -> None:
        """Record the new level; pass ``now`` for time-weighted stats."""
        if value == self.value:
            # level unchanged: the integral accumulates identically
            # whether it is folded now or at the next level change
            return
        if now is not None:
            self._integral += self.value * (now - self._last_t)
            self._last_t = now
        self.value = value
        if value > self.peak:
            self.peak = value

    def time_avg(self, now: float) -> float:
        """Time-weighted mean level over [0, now]."""
        if now <= 0:
            return self.value
        return (self._integral + self.value * (now - self._last_t)) / now

    def scalar(self) -> float:
        return self.value

    def export(self) -> dict[str, Any]:
        return {"value": self.value, "peak": self.peak}


class Histogram:
    """Value distribution over fixed bucket bounds (plus min/max/sum)."""

    __slots__ = ("name", "labels", "bounds", "buckets", "count", "sum",
                 "min", "max")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: dict[str, Any],
        bounds: tuple[float, ...] = DEFAULT_BOUNDS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def mean(self) -> float:
        """Mean of the observed samples (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (0 when empty).

        Returns the upper bound of the bucket holding the q-th sample,
        clamped to the observed max (so the overflow bucket and the
        extremes stay honest).
        """
        if not self.count:
            return 0.0
        target = q * self.count
        acc = 0
        for bound, n in zip(self.bounds, self.buckets):
            acc += n
            if acc >= target:
                return min(bound, self.max)
        return self.max

    def scalar(self) -> float:
        return self.sum

    def export(self) -> dict[str, Any]:
        out: dict[str, Any] = {"count": self.count, "sum": self.sum}
        if self.count:
            out["min"] = self.min
            out["max"] = self.max
            out["mean"] = self.mean()
        out["buckets"] = {
            f"le_{b:g}": n
            for b, n in zip(self.bounds, self.buckets)
            if n
        }
        if self.buckets[-1]:
            out["buckets"]["overflow"] = self.buckets[-1]
        return out


Metric = Any  # Counter | Gauge | Histogram


class Metrics:
    """Get-or-create registry of metrics keyed by ``(name, labels)``.

    Equal label sets share one labels mapping (the first binding's) and
    one flat items tuple ``(k1, v1, k2, v2, ...)``, sorted by label, and
    names are interned.  Flat items hold atoms only, so the GC untracks
    them and the keys holding them at its first pass (nested pairs can
    keep them tracked); ``_label_sets`` maps items to their first key.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple, Metric] = {}
        self._label_sets: dict[tuple, tuple] = {}

    # -- binding -----------------------------------------------------------
    def _get(self, cls: type, name: str, labels: dict[str, Any], **kw) -> Metric:
        items = tuple(x for kv in sorted(labels.items()) for x in kv)
        first = self._label_sets.get(items)
        if first is not None:
            items = first[1]
            labels = self._metrics[first].labels
        key = (sys.intern(name), items)
        m = self._metrics.get(key)
        if m is None:
            m = self._metrics[key] = cls(key[0], labels, **kw)
            if first is None:
                self._label_sets[items] = key
        elif not isinstance(m, cls):
            raise TypeError(
                f"metric {name!r}{labels!r} already registered as {m.kind}"
            )
        return m

    def counter(self, name: str, **labels: Any) -> Counter:
        """Bind (or look up) a counter."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Bind (or look up) a gauge."""
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        bounds: tuple[float, ...] = DEFAULT_BOUNDS,
        **labels: Any,
    ) -> Histogram:
        """Bind (or look up) a histogram."""
        return self._get(Histogram, name, labels, bounds=bounds)

    # -- reading -----------------------------------------------------------
    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def total(
        self, name: str, rank: Optional[int] = None, default: float = 0.0
    ) -> float:
        """Sum of one metric's scalar across label sets (``rank`` filters)."""
        found = False
        acc = 0.0
        for m in self._metrics.values():
            if m.name != name:
                continue
            if rank is not None and m.labels.get("rank") != rank:
                continue
            acc += m.scalar()
            found = True
        return acc if found else default

    def quantile(self, name: str, q: float) -> float:
        """Bucket-quantile of one histogram merged across its label sets
        (0 when it holds no sample).

        The per-label histograms share bucket bounds (they are bound with
        the same call site), so their buckets sum into one distribution.
        """
        merged: Optional[Histogram] = None
        for m in self._metrics.values():
            if m.name != name or m.kind != "histogram":
                continue
            if merged is None:
                merged = Histogram(name, {}, m.bounds)
            merged.buckets = [a + b for a, b in zip(merged.buckets, m.buckets)]
            merged.count += m.count
            merged.max = max(merged.max, m.max)
        return merged.quantile(q) if merged is not None else 0.0

    def snapshot(self) -> dict[str, float]:
        """Merged view: metric name -> scalar summed across all labels."""
        out: dict[str, float] = {}
        for m in self._metrics.values():
            out[m.name] = out.get(m.name, 0.0) + m.scalar()
        return out

    def by_label(self, key: str = "rank") -> dict[Any, dict[str, float]]:
        """Scalars grouped by one label's value: ``{label: {name: total}}``."""
        out: dict[Any, dict[str, float]] = {}
        for m in self._metrics.values():
            if key not in m.labels:
                continue
            group = out.setdefault(m.labels[key], {})
            group[m.name] = group.get(m.name, 0.0) + m.scalar()
        return out

    def export(self) -> list[dict[str, Any]]:
        """Full per-label-set dump (``stats`` in ``repro run --report-out``)."""
        return [
            {"name": m.name, "kind": m.kind, "labels": m.labels, **m.export()}
            for m in self._metrics.values()
        ]
