"""Derived metrics over :class:`~repro.runtime.results.JobResult`."""

from __future__ import annotations

from ..runtime.results import JobResult

__all__ = ["mops", "breakdown"]


def mops(total_flops: float, result: JobResult) -> float:
    """NPB-style aggregate Mop/s for a completed kernel run."""
    return total_flops / result.elapsed / 1e6


def breakdown(result: JobResult) -> dict[str, float]:
    """Execution-time breakdown (Figure 8 of the paper): the mean per-rank
    computation time and communication time (everything else)."""
    timers, n = result.timers.values(), len(result.timers)
    return {
        "elapsed": result.elapsed,
        "compute": sum(t.get("compute") for t in timers) / n,
        "comm": sum(t.comm_total() for t in timers) / n,
    }
