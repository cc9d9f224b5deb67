"""Shared infrastructure for the NAS Parallel Benchmark 2.3 proxies.

The paper evaluates MPICH-V2 on NPB 2.3 (CG, MG, FT, LU, BT, SP; classes
A and B, up to 32 processes).  We reproduce each kernel as a *proxy*:

* the **communication pattern** (who exchanges what, when, how big) is
  implemented for real over the MPI API, with per-class message sizes
  and counts derived from the published problem dimensions;
* the **computation** advances simulated time through a per-class FLOP
  model (published NPB operation counts divided by the sustained rate of
  the simulated Athlon node);
* class ``T`` ("tiny") runs the same code path with real numpy payloads
  and a numerical result, so tests can assert cross-device and
  fault/replay correctness of every kernel.

Class parameters follow NPB 2.3 (Bailey et al., NAS-95-020).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["KernelSpec", "grid_2d", "nearest_pow2_factors", "NasResult"]


@dataclass(frozen=True)
class KernelSpec:
    """Per-class constants of one NPB kernel."""

    name: str
    klass: str
    total_flops: float  # published op count for the full benchmark
    iters: int
    footprint_total: int  # aggregate application memory in bytes

    def footprint_per_proc(self, p: int) -> int:
        """Per-process application memory at ``p`` ranks."""
        return int(self.footprint_total / p) + (1 << 20)


@dataclass
class NasResult:
    """What a kernel program returns on rank 0."""

    kernel: str
    klass: str
    nprocs: int
    checksum: Optional[float] = None  # set in verification (T) mode


def nearest_pow2_factors(p: int) -> tuple[int, int]:
    """Split p into the most square (rows, cols) power-of-two-ish factors."""
    best = (1, p)
    for rows in range(1, math.isqrt(p) + 1):
        if p % rows == 0:
            best = (rows, p // rows)
    return best


def grid_2d(rank: int, p: int) -> tuple[int, int, int, int]:
    """(row, col, nrows, ncols) of ``rank`` in the 2-D process grid."""
    nrows, ncols = nearest_pow2_factors(p)
    return rank // ncols, rank % ncols, nrows, ncols
