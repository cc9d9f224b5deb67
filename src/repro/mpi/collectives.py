"""Collective operations, built on point-to-point like MPICH's MPIR layer.

Algorithms match MPICH 1.2.5's defaults for small/medium clusters:
binomial-tree broadcast and reduce, recursive-doubling allreduce and
barrier (dissemination), ring allgather, pairwise-exchange alltoall.
All collectives run in the communicator's collective matching context
(``_context=CTX_COLL``) with a deterministic per-operation tag, so
internal traffic can never match application receives — and replays
regenerate identical tags.  ``mpi`` is any :class:`~repro.mpi.api.Comm`.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Sequence

from ..simnet.kernel import Future
from .datatypes import CTX_COLL, payload_nbytes

__all__ = [
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "gather",
    "allgather",
    "scatter",
    "alltoall",
    "scan",
]


def _default_op(a: Any, b: Any) -> Any:
    return a + b


def _send(mpi, dest, nbytes, tag, data):
    req = yield from mpi.isend(dest, nbytes, tag, data, _context=CTX_COLL, _cat="coll")
    yield from mpi.adi.wait(req)


def _recv(mpi, source, tag):
    req = yield from mpi.irecv(source, tag, _context=CTX_COLL, _cat="coll")
    msg = yield from mpi.adi.wait(req)
    return msg


def barrier(mpi) -> Generator[Future, Any, None]:
    """Dissemination barrier: ceil(log2 p) rounds of pairwise signals."""
    p, me = mpi.size, mpi.rank
    if p == 1:
        yield mpi.sim.timeout(0.0)
        return
    tag = mpi.coll_tag()
    step = 1
    while step < p:
        dst = (me + step) % p
        src = (me - step) % p
        sreq = yield from mpi.isend(dst, 4, tag, None, _context=CTX_COLL, _cat="coll")
        rreq = yield from mpi.irecv(src, tag, _context=CTX_COLL, _cat="coll")
        yield from mpi.adi.wait_all([sreq, rreq])
        step <<= 1


def bcast(
    mpi, root: int, nbytes: Optional[int] = None, data: Any = None
) -> Generator[Future, Any, Any]:
    """Binomial-tree broadcast; returns the payload on every rank."""
    p, me = mpi.size, mpi.rank
    tag = mpi.coll_tag()
    if p == 1:
        yield mpi.sim.timeout(0.0)
        return data
    vrank = (me - root) % p  # root is virtual rank 0
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = vrank - mask
            msg = yield from _recv(mpi, (parent + root) % p, tag)
            data, nbytes = msg.data, msg.nbytes
            break
        mask <<= 1
    if nbytes is None:
        nbytes = payload_nbytes(data)
    mask >>= 1
    while mask > 0:
        child = vrank + mask
        if child < p:
            yield from _send(mpi, (child + root) % p, nbytes, tag, data)
        mask >>= 1
    return data


def reduce(
    mpi,
    root: int,
    value: Any,
    op: Optional[Callable[[Any, Any], Any]] = None,
    nbytes: Optional[int] = None,
) -> Generator[Future, Any, Any]:
    """Binomial-tree reduce; returns the reduction on root, None elsewhere."""
    op = op or _default_op
    p, me = mpi.size, mpi.rank
    tag = mpi.coll_tag()
    if nbytes is None:
        nbytes = payload_nbytes(value)
    if p == 1:
        yield mpi.sim.timeout(0.0)
        return value
    vrank = (me - root) % p
    acc = value
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = vrank & ~mask
            yield from _send(mpi, (parent + root) % p, nbytes, tag, acc)
            return None
        child = vrank | mask
        if child < p:
            msg = yield from _recv(mpi, (child + root) % p, tag)
            acc = op(acc, msg.data)
        mask <<= 1
    return acc


def allreduce(
    mpi,
    value: Any,
    op: Optional[Callable[[Any, Any], Any]] = None,
    nbytes: Optional[int] = None,
) -> Generator[Future, Any, Any]:
    """Recursive doubling when p is a power of two; reduce+bcast otherwise."""
    op = op or _default_op
    p, me = mpi.size, mpi.rank
    if nbytes is None:
        nbytes = payload_nbytes(value)
    if p == 1:
        yield mpi.sim.timeout(0.0)
        return value
    if p & (p - 1) == 0:
        tag = mpi.coll_tag()
        acc = value
        mask = 1
        while mask < p:
            peer = me ^ mask
            sreq = yield from mpi.isend(
                peer, nbytes, tag, acc, _context=CTX_COLL, _cat="coll"
            )
            rreq = yield from mpi.irecv(peer, tag, _context=CTX_COLL, _cat="coll")
            yield from mpi.adi.wait_all([sreq, rreq])
            # commutative-order discipline: lower rank's value first
            mine, theirs = acc, rreq.message.data
            acc = op(mine, theirs) if me < peer else op(theirs, mine)
            mask <<= 1
        return acc
    acc = yield from reduce(mpi, 0, value, op, nbytes)
    out = yield from bcast(mpi, 0, nbytes, acc)
    return out


def gather(
    mpi, root: int, value: Any, nbytes: Optional[int] = None
) -> Generator[Future, Any, Optional[list[Any]]]:
    """Flat gather to root; returns the rank-ordered list on root."""
    p, me = mpi.size, mpi.rank
    tag = mpi.coll_tag()
    if nbytes is None:
        nbytes = payload_nbytes(value)
    if me != root:
        yield from _send(mpi, root, nbytes, tag, (me, value))
        return None
    out: list[Any] = [None] * p
    out[root] = value
    for _ in range(p - 1):
        msg = yield from _recv(mpi, mpi.ANY_SOURCE, tag)
        src_rank, payload = msg.data
        out[src_rank] = payload
    return out


def allgather(
    mpi, value: Any, nbytes: Optional[int] = None
) -> Generator[Future, Any, list[Any]]:
    """Ring allgather: p-1 steps, each forwarding the next block."""
    p, me = mpi.size, mpi.rank
    tag = mpi.coll_tag()
    if nbytes is None:
        nbytes = payload_nbytes(value)
    out: list[Any] = [None] * p
    out[me] = value
    if p == 1:
        yield mpi.sim.timeout(0.0)
        return out
    right = (me + 1) % p
    left = (me - 1) % p
    carry_rank, carry = me, value
    for _ in range(p - 1):
        sreq = yield from mpi.isend(
            right, nbytes + 8, tag, (carry_rank, carry), _context=CTX_COLL, _cat="coll"
        )
        rreq = yield from mpi.irecv(left, tag, _context=CTX_COLL, _cat="coll")
        yield from mpi.adi.wait_all([sreq, rreq])
        carry_rank, carry = rreq.message.data
        out[carry_rank] = carry
    return out


def scatter(
    mpi, root: int, values: Optional[Sequence[Any]] = None, nbytes: Optional[int] = None
) -> Generator[Future, Any, Any]:
    """Flat scatter from root; returns this rank's element."""
    p, me = mpi.size, mpi.rank
    tag = mpi.coll_tag()
    if me == root:
        if values is None or len(values) != p:
            raise ValueError("root must supply one value per rank")
        if nbytes is None:
            nbytes = max(payload_nbytes(v) for v in values)
        for dst in range(p):
            if dst != root:
                yield from _send(mpi, dst, nbytes, tag, values[dst])
        return values[root]
    msg = yield from _recv(mpi, root, tag)
    return msg.data


def alltoall(
    mpi, values: Sequence[Any], nbytes_each: Optional[int] = None
) -> Generator[Future, Any, list[Any]]:
    """Pairwise-exchange alltoall (the FT transpose pattern).

    ``values[i]`` goes to rank i; returns the list received from each rank.
    """
    p, me = mpi.size, mpi.rank
    if len(values) != p:
        raise ValueError("values must have one entry per rank")
    tag = mpi.coll_tag()
    if nbytes_each is None:
        nbytes_each = max(payload_nbytes(v) for v in values)
    out: list[Any] = [None] * p
    out[me] = values[me]
    if p == 1:
        yield mpi.sim.timeout(0.0)
        return out
    for step in range(1, p):
        peer = me ^ step if (p & (p - 1)) == 0 else (me + step) % p
        recv_peer = peer if (p & (p - 1)) == 0 else (me - step) % p
        sreq = yield from mpi.isend(
            peer, nbytes_each, tag, values[peer], _context=CTX_COLL, _cat="coll"
        )
        rreq = yield from mpi.irecv(recv_peer, tag, _context=CTX_COLL, _cat="coll")
        yield from mpi.adi.wait_all([sreq, rreq])
        out[recv_peer] = rreq.message.data
    return out


def scan(
    mpi, value: Any, op: Optional[Callable[[Any, Any], Any]] = None,
    nbytes: Optional[int] = None,
) -> Generator[Future, Any, Any]:
    """Inclusive prefix reduction: rank i gets op over ranks 0..i.

    The classic log-step parallel-prefix: at step 2^k every rank sends its
    accumulator to rank+2^k and folds what arrives from rank-2^k.
    """
    op = op or _default_op
    p, me = mpi.size, mpi.rank
    if nbytes is None:
        nbytes = payload_nbytes(value)
    acc = value
    if p == 1:
        yield mpi.sim.timeout(0.0)
        return acc
    tag = mpi.coll_tag()
    step = 1
    while step < p:
        reqs = []
        if me + step < p:
            r = yield from mpi.isend(
                me + step, nbytes, tag + step, acc, _context=CTX_COLL, _cat="coll"
            )
            reqs.append(r)
        rreq = None
        if me - step >= 0:
            rreq = yield from mpi.irecv(
                me - step, tag + step, _context=CTX_COLL, _cat="coll"
            )
            reqs.append(rreq)
        yield from mpi.adi.wait_all(reqs)
        if rreq is not None:
            acc = op(rreq.message.data, acc)
        step <<= 1
    return acc
