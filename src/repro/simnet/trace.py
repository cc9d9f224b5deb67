"""Execution tracing.

A :class:`Tracer` collects typed trace records during a simulation.  The
protocol-invariant tests (e.g. the pessimistic-logging property of
Definition 3 in the paper) are implemented as *post-hoc* checks over these
traces, so the protocol code itself stays free of assertion scaffolding.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

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
    """Append-only trace sink with prefix filtering and live subscribers.

    Tracing is cheap when disabled (a single branch per call); benchmarks
    run with tracing off, tests with tracing on.  ``max_records`` bounds
    memory for soak runs: the sink becomes a ring buffer that drops the
    *oldest* record on overflow and counts the drops in ``dropped`` (and
    in a bound drop counter, when one is attached) — a truncated stream
    can no longer prove anything, so post-hoc checks must not call it
    clean.

    **Subscribers** see every event as it is emitted, even when record
    *retention* is off — this is what lets the online protocol auditor
    watch a run live without the memory cost of a full trace.  A
    subscriber is called as ``callback(time, kind, fields)`` (no
    :class:`TraceRecord` is built unless retention needs one) and may
    declare the exact ``kinds`` it wants; emits outside the union of all
    subscriptions stay on the one-branch fast path.
    """

    def __init__(
        self, enabled: bool = False, max_records: Optional[int] = None
    ) -> None:
        self.enabled = enabled
        self.max_records = max_records
        self.dropped = 0
        self.drop_counter: Optional[Any] = None  # obs.Counter, bound late
        self._subs: list[tuple[Callable[[float, str, dict], None],
                               Optional[frozenset]]] = []
        self._interest: Optional[frozenset] = frozenset()  # union; None=all
        #: False only when *no* emit can have an effect (retention off,
        #: no subscribers) — which is every unobserved job's whole life:
        #: only observers subscribe, never protocol or bookkeeping code.
        #: Hot paths guard ``if tracer.hot:`` before building an emit's
        #: keyword dict — the dict construction, not the emit call, is
        #: what shows up at CG event rates.
        self.hot = enabled
        if max_records is not None:
            self.records: Any = deque(maxlen=max_records)
        else:
            self.records = []

    # -- subscribers -------------------------------------------------------
    def subscribe(
        self,
        callback: Callable[[float, str, dict], None],
        kinds: Optional[frozenset] = None,
    ) -> None:
        """Stream every emitted event (of ``kinds``, or all) to ``callback``."""
        self._subs.append((callback, frozenset(kinds) if kinds else None))
        self._recompute_interest()

    def unsubscribe(self, callback: Callable[[float, str, dict], None]) -> None:
        """Detach a subscriber added with :meth:`subscribe`."""
        # ``!=``: each ``obj.method`` is a new, equal, bound-method object
        self._subs = [(cb, k) for cb, k in self._subs if cb != callback]
        self._recompute_interest()

    def _recompute_interest(self) -> None:
        if any(k is None for _, k in self._subs):
            self._interest = None  # at least one wants everything
        else:
            acc: set = set()
            for _, k in self._subs:
                acc |= k
            self._interest = frozenset(acc)
        self.hot = self.enabled or bool(self._subs)

    def emit(self, time: float, kind: str, **fields: Any) -> None:
        """Record one event (no-op when disabled and nobody subscribed)."""
        interest = self._interest
        if interest is not None and kind not in interest:
            # no subscriber wants this kind: retention-only path
            if not self.enabled:
                return
        else:
            for cb, kinds in self._subs:
                if kinds is None or kind in kinds:
                    cb(time, kind, fields)
            if not self.enabled:
                return
        if (
            self.max_records is not None
            and len(self.records) == self.max_records
        ):
            self.dropped += 1  # deque(maxlen) evicts the oldest
            if self.drop_counter is not None:
                self.drop_counter.inc()
        self.records.append(TraceRecord(time, kind, fields))

    def select(self, prefix: str) -> list[TraceRecord]:
        """All records whose kind equals or starts with ``prefix``."""
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return [
            r for r in self.records if r.kind == prefix or r.kind.startswith(dotted)
        ]

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def clear(self) -> None:
        """Drop all recorded events (and reset the overflow count)."""
        self.records.clear()
        self.dropped = 0
