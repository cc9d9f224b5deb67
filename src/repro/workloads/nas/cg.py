"""NPB CG proxy: conjugate gradient, irregular memory access, small messages.

Pattern (NPB 2.3): processes form a 2-D grid; every CG inner iteration
performs a sparse matrix-vector product whose row sums are combined by
log2(ncols) pairwise exchanges of vector segments along the grid row,
plus a transpose send, plus two 8-byte dot-product all-reduces.  With
thousands of small messages per second, CG is the latency-bound extreme
of the suite — the kernel on which the paper measures MPICH-V2 at about
3x the communication time of MPICH-P4 (Table 1, Figure 8).

Class T carries real numpy segments and returns a checksum.
"""

from __future__ import annotations

from typing import Any, Generator

from .common import KernelSpec, NasResult, grid_2d

__all__ = ["SPECS", "program", "spec"]

SPECS = {
    # name, class, total flops, outer iterations, aggregate memory
    "T": KernelSpec("cg", "T", 1.0e6, 3, 1 << 20),
    "S": KernelSpec("cg", "S", 6.4e7, 15, 20 << 20),
    "A": KernelSpec("cg", "A", 1.508e9, 15, 60 << 20),
    "B": KernelSpec("cg", "B", 5.489e10, 75, 320 << 20),
    "C": KernelSpec("cg", "C", 1.433e11, 75, 1100 << 20),
}

_N = {"T": 64, "S": 1400, "A": 14000, "B": 75000, "C": 150000}
_INNER = 25  # CG iterations inside every outer iteration (NPB conj_grad)


def spec(klass: str) -> KernelSpec:
    """The per-class constants of this kernel."""
    return SPECS[klass]


def program(
    mpi, klass: str = "A"
) -> Generator[Any, Any, NasResult]:
    """The CG proxy program (run one instance per rank)."""
    sp = SPECS[klass]
    n = _N[klass]
    p = mpi.size
    row, col, nrows, ncols = grid_2d(mpi.rank, p)
    mpi.set_footprint(sp.footprint_per_proc(p))

    seg_bytes = max(64, 8 * n // max(1, p))
    verify = klass == "T"
    x = local_m = None
    if verify:
        import numpy as np

        # deterministic local operator (same on every rank for clean math)
        local_m = np.fromfunction(
            lambda i, j: 1.0 / (1.0 + i + 2 * j), (8, 8)
        )
        x = np.ones(8)

    matvecs_per_outer = _INNER + 1
    total_matvecs = sp.iters * matvecs_per_outer
    flops_per_matvec = sp.total_flops / total_matvecs / p
    checksum = 0.0

    for outer in range(sp.iters):
        for inner in range(matvecs_per_outer):
            # local sparse matvec
            if verify:
                x = local_m @ x
                x /= np.max(np.abs(x)) + 1e-12
            yield from mpi.compute(flops=flops_per_matvec)
            # row-wise reduction of partial sums: log2(ncols) exchanges
            # (isend/irecv/waitall, the calls Table 1 decomposes)
            step = 1
            while step < ncols:
                peer_col = col ^ step
                if peer_col < ncols:
                    peer = row * ncols + peer_col
                    payload = x if verify else None
                    tag = outer * 100 + inner
                    sreq = yield from mpi.isend(
                        peer, nbytes=seg_bytes, tag=tag, data=payload
                    )
                    rreq = yield from mpi.irecv(source=peer, tag=tag)
                    yield from mpi.waitall([sreq, rreq])
                    if verify:
                        x = 0.5 * (x + rreq.message.data)
                step <<= 1
            # transpose exchange (send the reduced segment to the
            # symmetric process in the grid)
            transpose = col * nrows + row if nrows == ncols else mpi.rank
            if transpose != mpi.rank and transpose < p:
                payload = x if verify else None
                sreq = yield from mpi.isend(
                    transpose, nbytes=seg_bytes, tag=9_000 + inner, data=payload
                )
                rreq = yield from mpi.irecv(source=transpose, tag=9_000 + inner)
                yield from mpi.waitall([sreq, rreq])
                if verify:
                    x = 0.5 * (x + rreq.message.data)
            # two dot-product all-reduces per CG iteration
            local_dot = float(np.dot(x, x)) if verify else 1.0
            rho = yield from mpi.allreduce(value=local_dot, nbytes=8)
            _alpha = yield from mpi.allreduce(value=local_dot * 0.5, nbytes=8)
            if verify:
                checksum += rho
    return NasResult(
        kernel="cg", klass=klass, nprocs=p,
        checksum=round(checksum, 6) if verify else None,
    )
