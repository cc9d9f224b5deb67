"""Execution tracing.

A :class:`Tracer` collects typed trace records during a simulation.  The
protocol invariants (e.g. the pessimistic-logging property of
Definition 3 in the paper) are checked by a live subscriber, the
auditor of :mod:`repro.obs.audit`, so the protocol code itself stays
free of assertion scaffolding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["TraceRecord", "Tracer"]


@dataclass(frozen=True)
class TraceRecord:
    """One trace event.

    ``kind`` is a short dotted tag (``"v2.deliver"``, ``"net.xfer"``,
    ``"ft.restart"``, ...); ``time`` is simulated seconds; ``fields``
    carries kind-specific data.
    """

    time: float
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]


class Tracer:
    """Append-only trace sink with live subscribers.

    Tracing is cheap when disabled (a single branch per call); benchmarks
    run with tracing off, tests with tracing on.  An enabled tracer keeps
    every record it is given.

    **Subscribers** see every event as it is emitted, even when record
    *retention* is off — this is what lets the online protocol auditor
    watch a run live without the memory cost of a full trace.  A
    subscriber is called as ``callback(time, kind, fields)`` (no
    :class:`TraceRecord` is built unless retention needs one) for the
    exact ``kinds`` it declares; emits outside the union of all
    subscriptions stay on the one-branch fast path.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._subs: list[tuple[Callable[[float, str, dict], None],
                               frozenset]] = []
        self._interest: frozenset = frozenset()  # union of the subs' kinds
        #: False only when *no* emit can have an effect (retention off,
        #: no subscribers) — which is every unobserved job's whole life:
        #: only observers subscribe, never protocol or bookkeeping code.
        #: Hot paths guard ``if tracer.hot:`` before building an emit's
        #: keyword dict — the dict construction, not the emit call, is
        #: what shows up at CG event rates.
        self.hot = enabled
        self.records: list[TraceRecord] = []

    # -- subscribers -------------------------------------------------------
    def subscribe(
        self,
        callback: Callable[[float, str, dict], None],
        kinds: frozenset,
    ) -> None:
        """Stream every emitted event of ``kinds`` to ``callback``."""
        self._subs.append((callback, frozenset(kinds)))
        self._recompute_interest()

    def unsubscribe(self, callback: Callable[[float, str, dict], None]) -> None:
        """Detach a subscriber added with :meth:`subscribe`."""
        # ``!=``: each ``obj.method`` is a new, equal, bound-method object
        self._subs = [(cb, k) for cb, k in self._subs if cb != callback]
        self._recompute_interest()

    def _recompute_interest(self) -> None:
        self._interest = frozenset().union(*(k for _, k in self._subs))
        self.hot = self.enabled or bool(self._subs)

    def emit(self, time: float, kind: str, **fields: Any) -> None:
        """Record one event (no-op when disabled and nobody subscribed)."""
        if kind in self._interest:
            for cb, kinds in self._subs:
                if kind in kinds:
                    cb(time, kind, fields)
        if self.enabled:
            self.records.append(TraceRecord(time, kind, fields))

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)
