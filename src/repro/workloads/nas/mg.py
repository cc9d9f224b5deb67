"""NPB MG proxy: multigrid V-cycles, shrinking neighbour exchanges.

Pattern (NPB 2.3): a 3-D process grid; every V-cycle walks the level
hierarchy (256^3 down to 2^3 for classes A/B), and at each level the
``comm3`` halo exchange sends one face per direction per axis.  Fine
levels move moderate messages; coarse levels move tiny ones, so MG —
like CG — is latency-sensitive, which is why MPICH-V2 trails MPICH-P4
on it (Figure 7).

Class T carries real face data and returns a checksum.
"""

from __future__ import annotations

from typing import Any, Generator

from .common import KernelSpec, NasResult

__all__ = ["SPECS", "program", "spec"]

SPECS = {
    "T": KernelSpec("mg", "T", 1.0e6, 2, 1 << 20),
    "S": KernelSpec("mg", "S", 8.0e7, 4, 30 << 20),
    "A": KernelSpec("mg", "A", 3.625e9, 4, 450 << 20),
    "B": KernelSpec("mg", "B", 1.816e10, 20, 450 << 20),
    "C": KernelSpec("mg", "C", 1.455e11, 20, 3600 << 20),
}

_DIM = {"T": 16, "S": 64, "A": 256, "B": 256, "C": 512}


def spec(klass: str) -> KernelSpec:
    """The per-class constants of this kernel."""
    return SPECS[klass]


def _factor3(p: int) -> tuple[int, int, int]:
    """Split p into three near-equal factors (the NPB processor grid)."""
    best = (1, 1, p)
    for a in range(1, p + 1):
        if p % a:
            continue
        for b in range(a, p + 1):
            if (p // a) % b:
                continue
            c = p // a // b
            if c >= b:
                cand = (a, b, c)
                if max(cand) - min(cand) < max(best) - min(best):
                    best = cand
    return best


def program(mpi, klass: str = "A") -> Generator[Any, Any, NasResult]:
    """The MG proxy program."""
    sp = SPECS[klass]
    dim = _DIM[klass]
    p = mpi.size
    px, py, pz = _factor3(p)
    mpi.set_footprint(sp.footprint_per_proc(p))
    verify = klass == "T"
    if verify:
        import numpy as np

    levels = max(2, dim.bit_length() - 2)  # floor(log2(dim)) - 1
    # comm3 halo exchanges per level per V-cycle: NPB calls comm3 after
    # every smoother/residual/restriction application
    comm3_per_level = 3
    flops_per_cycle = sp.total_flops / sp.iters / p

    value = float(mpi.rank + 1)
    checksum = 0.0
    nbr = [(mpi.rank + d) % p for d in (1, -1, px, -px, px * py, -px * py)]

    for cycle in range(sp.iters):
        # descend and ascend the V-cycle
        for half, level_iter in (("down", range(levels, 0, -1)), ("up", range(1, levels + 1))):
            for level in level_iter:
                ld = max(2, dim >> (levels - level))
                # face sizes per axis in bytes (8 B doubles)
                faces = [
                    max(32, (ld // py) * (ld // pz) * 8),
                    max(32, (ld // px) * (ld // pz) * 8),
                    max(32, (ld // px) * (ld // py) * 8),
                ]
                for _ in range(comm3_per_level):
                    # NPB's comm3 walks the axes *sequentially*: each axis
                    # exchange completes (the corners must be current)
                    # before the next axis starts — a latency-bound chain
                    got = []
                    for axis in range(3):
                        reqs = []
                        for side in range(2):
                            peer = nbr[axis * 2 + side]
                            if peer == mpi.rank:
                                continue
                            tag = level * 10 + axis
                            payload = value if verify else None
                            r = yield from mpi.isend(
                                peer, nbytes=faces[axis], tag=tag, data=payload
                            )
                            reqs.append(r)
                            r = yield from mpi.irecv(source=peer, tag=tag)
                            reqs.append(r)
                        yield from mpi.waitall(reqs)
                        if verify:
                            got += [
                                r.message.data
                                for r in reqs
                                if getattr(r, "message", None) is not None
                            ]
                    if verify and got:
                        value = 0.5 * value + 0.5 * float(np.mean(got))
                # smoothing work at this level (coarse levels are cheap)
                yield from mpi.compute(
                    flops=flops_per_cycle / (2 * levels) * (ld / dim) ** 0.5
                )
        norm = yield from mpi.allreduce(value=value if verify else 1.0, nbytes=8)
        if verify:
            checksum += norm
    return NasResult(
        kernel="mg", klass=klass, nprocs=p,
        checksum=round(checksum, 6) if verify else None,
    )
