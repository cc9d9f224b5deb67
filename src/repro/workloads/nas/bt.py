"""NPB BT proxy: block-tridiagonal ADI solver, the V2-friendly extreme.

Pattern (NPB 2.3): BT runs on square process counts with the
multi-partition decomposition; each iteration sweeps the three
dimensions, each sweep pipelining sqrt(p) stages of nonblocking
isend/irecv/waitall exchanges of medium-large faces, with substantial
computation in between.  Large messages + nonblocking overlap is exactly
where the paper shows MPICH-V2 matching or *beating* MPICH-P4
(Figures 7-9, Table 1): the V2 daemon transmits in the background and
keeps both link directions busy, while P4 pays for payload pushes inside
MPI_Isend and serializes bidirectional traffic.

Class T carries real face vectors and returns a checksum.
"""

from __future__ import annotations

import math
from typing import Any, Generator

from .common import KernelSpec, NasResult

__all__ = ["SPECS", "program", "spec", "square_side"]

SPECS = {
    "T": KernelSpec("bt", "T", 1.0e6, 3, 1 << 20),
    "S": KernelSpec("bt", "S", 3.0e9, 60, 40 << 20),
    "A": KernelSpec("bt", "A", 1.683e11, 200, 300 << 20),
    "B": KernelSpec("bt", "B", 7.215e11, 200, 1200 << 20),
    "C": KernelSpec("bt", "C", 2.8765e12, 200, 4800 << 20),
}

_DIM = {"T": 12, "S": 36, "A": 64, "B": 102, "C": 162}


def spec(klass: str) -> KernelSpec:
    """The per-class constants of this kernel."""
    return SPECS[klass]


def square_side(p: int) -> int:
    """BT/SP require square process counts (1, 4, 9, 16, 25, ...)."""
    side = math.isqrt(p)
    if side * side != p:
        raise ValueError(f"BT/SP need a square process count, got {p}")
    return side


def program(mpi, klass: str = "A") -> Generator[Any, Any, NasResult]:
    """The BT proxy program (square process counts)."""
    result = yield from adi_program(
        mpi, SPECS[klass], _DIM[klass], face_scale=5.0
    )
    return result


def adi_program(
    mpi, sp: KernelSpec, dim: int, face_scale: float
) -> Generator[Any, Any, NasResult]:
    """The shared multi-partition ADI driver (BT and SP)."""
    p = mpi.size
    side = square_side(p)
    mpi.set_footprint(sp.footprint_per_proc(p))
    verify = sp.klass == "T"

    iters = sp.iters
    face_bytes = max(256, int(5 * 8 * (dim / side) ** 2 * face_scale))
    stages = side
    flops_per_iter = sp.total_flops / sp.iters / p

    value = float(mpi.rank + 1)
    checksum = 0.0

    for it in range(iters):
        for direction in range(3):
            stride = 1 if direction == 0 else (side if direction == 1 else side + 1)
            fwd = (mpi.rank + stride) % p
            bwd = (mpi.rank - stride) % p
            for stage in range(stages):
                yield from mpi.compute(flops=flops_per_iter / (3 * stages))
                if fwd == mpi.rank:
                    continue
                tag = direction * 100 + stage
                payload = value if verify else None
                s1 = yield from mpi.isend(fwd, nbytes=face_bytes, tag=tag, data=payload)
                s2 = yield from mpi.isend(bwd, nbytes=face_bytes, tag=tag + 50, data=payload)
                r1 = yield from mpi.irecv(source=bwd, tag=tag)
                r2 = yield from mpi.irecv(source=fwd, tag=tag + 50)
                yield from mpi.waitall([s1, s2, r1, r2])
                if verify:
                    value = 0.5 * value + 0.25 * (r1.message.data + r2.message.data)
        if verify:
            total = yield from mpi.allreduce(value=value, nbytes=8)
            checksum += total
    return NasResult(
        kernel=sp.name, klass=sp.klass, nprocs=p,
        checksum=round(checksum, 6) if verify else None,
    )
