"""Job results: what a completed (possibly faulty) MPI run reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..mpi.timing import CallTimer
from ..simnet.trace import Tracer

__all__ = ["JobResult"]


@dataclass
class JobResult:
    """Outcome of one simulated mpirun."""

    nprocs: int
    device: str
    elapsed: float  # simulated seconds, start to last rank's finalize
    results: list[Any]  # per-rank return values of the program
    timers: dict[int, CallTimer]  # per-rank call-time attribution
    tracer: Optional[Tracer] = None
    restarts: int = 0  # how many process restarts occurred
    checkpoints: int = 0  # how many checkpoints completed
    metrics: Optional[Any] = None  # the job's obs.Metrics registry
    audit: Optional[Any] = None  # obs.AuditReport when run with audit=True
    profile: Optional[Any] = None  # obs.KernelProfile when run with profile=True
    timeseries: Optional[Any] = None  # obs.TimeseriesSampler when sampled
    extras: dict[str, Any] = field(default_factory=dict)

    def stat(self, name: str, rank: Optional[int] = None,
             default: float = 0.0) -> float:
        """One registry metric's total (optionally for a single rank).

        Metrics a device never touches (e.g. ``el.roundtrips`` on a P4
        run) fall back to ``default``, so cross-device comparisons need
        no key juggling.
        """
        if self.metrics is None:
            return default
        return self.metrics.total(name, rank=rank, default=default)
