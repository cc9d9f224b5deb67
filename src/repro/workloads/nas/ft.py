"""NPB FT proxy: 3-D FFT, all-to-all transposes of large messages.

Pattern (NPB 2.3): each iteration evolves the spectrum and runs a 3-D
FFT whose distributed transpose is an all-to-all of the whole dataset —
``ntotal * 16 / p^2`` bytes per process pair.  Messages are large, so FT
is bandwidth-bound: MPICH-V2 matches MPICH-P4 on it (Figure 7).

The paper could not run FT class B: the sender-based payload log
outgrows the 2 GB (RAM+swap) budget — "checkpointing is recommended in
such a case not only for fault tolerance but also for removing logged
messages on the computing nodes".  The same overflow is raised here (a
:class:`~repro.core.sender_log.LogOverflow`) when class B runs on few
processes with checkpointing disabled.

Class T moves real complex segments and returns an FFT checksum.
"""

from __future__ import annotations

from typing import Any, Generator

from .common import KernelSpec, NasResult

__all__ = ["SPECS", "program", "spec"]

SPECS = {
    "T": KernelSpec("ft", "T", 1.0e6, 2, 1 << 20),
    "S": KernelSpec("ft", "S", 2.0e8, 6, 60 << 20),
    "A": KernelSpec("ft", "A", 7.16e9, 6, 420 << 20),
    "B": KernelSpec("ft", "B", 9.236e10, 20, 1700 << 20),
    "C": KernelSpec("ft", "C", 3.902e11, 20, 6800 << 20),
}

_NTOTAL = {
    "T": 16 * 16 * 8,
    "S": 64 * 64 * 64,
    "A": 256 * 256 * 128,
    "B": 512 * 256 * 256,
    "C": 512 * 512 * 512,
}

#: transposes per iteration: forward + inverse FFT across the evolve step
_TRANSPOSES_PER_ITER = 2


def spec(klass: str) -> KernelSpec:
    """The per-class constants of this kernel."""
    return SPECS[klass]


def program(mpi, klass: str = "A") -> Generator[Any, Any, NasResult]:
    """The FT proxy program."""
    sp = SPECS[klass]
    ntotal = _NTOTAL[klass]
    p = mpi.size
    mpi.set_footprint(sp.footprint_per_proc(p))
    verify = klass == "T"

    pair_bytes = max(256, ntotal * 16 // (p * p))
    flops_per_phase = sp.total_flops / sp.iters / _TRANSPOSES_PER_ITER / p

    if verify:
        import numpy as np

        rng = np.random.default_rng(77 + mpi.rank)
        local = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    checksum = 0.0

    for it in range(sp.iters):
        for phase in range(_TRANSPOSES_PER_ITER):
            # local 1-D FFTs before the transpose
            yield from mpi.compute(flops=flops_per_phase)
            if verify:
                local = np.fft.fft(local)
                local /= np.max(np.abs(local)) + 1e-12
                blocks = [local / p for _ in range(p)]
            else:
                blocks = [None] * p
            got = yield from mpi.alltoall(blocks, nbytes_each=pair_bytes)
            if verify:
                local = np.sum(
                    [g for g in got if g is not None], axis=0
                )
        # per-iteration checksum reduction
        local_sum = float(np.abs(local).sum()) if verify else 1.0
        total = yield from mpi.allreduce(value=local_sum, nbytes=16)
        if verify:
            checksum += total
    return NasResult(
        kernel="ft", klass=klass, nprocs=p,
        checksum=round(checksum, 6) if verify else None,
    )
