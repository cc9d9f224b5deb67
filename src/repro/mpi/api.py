"""The user-level MPI API.

One :class:`MPI` object per rank — the world communicator — handed to
the application program (a generator function).  All potentially
blocking operations are generator functions invoked with ``yield from``;
nonblocking operations return request objects completed later by
``wait``/``waitall``.

Every communicator is a :class:`Comm`: a group (its members as world
ranks; ``None`` for the world, whose numbering needs no table) and a
pair of matching contexts, one point-to-point and one collective, so a
communicator's traffic can never match another's receives.  ``split``
derives the contexts deterministically from the parent's context, the
split sequence number and the agreed color list, so every member
computes the same ids and a re-execution after a crash regenerates them
(the same argument as for collective tags).  Group ranks are translated
to world ranks here and back on the receive request; nothing below the
API sees anything but world ranks.

Per-call simulated time is attributed to a category by :class:`CallTimer`
(reproducing Table 1 of the paper); every call boundary also runs the
device's checkpoint-safe-point hook.

Data semantics: ``nbytes`` drives the timing model; ``data`` is an
optional payload object, which must be treated as immutable once sent
(the sender-based log of MPICH-V2 retains a reference, exactly like the
real implementation retains the bytes).
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence

from ..devices.base import ChannelDevice
from ..simnet.kernel import Future, Simulator
from ..simnet.trace import Tracer
from . import collectives
from .adi import Adi
from .datatypes import ANY_SOURCE, ANY_TAG, CTX_PT2PT, Envelope, Message, payload_nbytes
from .requests import RecvRequest, Request, SendRequest
from .timing import CallTimer

__all__ = ["Comm", "MPI", "payload_nbytes"]

_API_CALL_CPU = 1.5e-6  # library entry/exit cost per MPI call
_FIRST_USER_CTX = 16  # first context id a split may use (0/1 are the world's)


class Comm:
    """A communicator: a group of ranks and its two matching contexts.

    ``ranks`` maps group rank -> world rank (``None``: the world itself).
    A split communicator shares the world's progress engine, call timer
    and channel device, so time spent in it is attributed like any other.
    """

    ANY_SOURCE = ANY_SOURCE
    ANY_TAG = ANY_TAG

    def __init__(
        self, adi: Adi, timer: CallTimer, ranks: Optional[list[int]], p2p_context: int
    ) -> None:
        self.sim = adi.sim
        self.device = adi.device
        self.adi = adi
        self.timer = timer
        self.ranks = ranks
        self.rank = adi.rank if ranks is None else ranks.index(adi.rank)
        self.size = adi.size if ranks is None else len(ranks)
        self.p2p_context = p2p_context
        self.coll_context = p2p_context + 1
        self._coll_seq = 0
        self._split_seq = 0

    def set_footprint(self, nbytes: int) -> None:
        """Declare application memory (sizes the checkpoint image)."""
        daemon = getattr(self.device, "daemon", None)
        if daemon is not None:
            daemon.set_app_footprint(nbytes)

    # -- point to point -------------------------------------------------------
    def isend(
        self,
        dest: int,
        nbytes: Optional[int] = None,
        tag: int = 0,
        data: Any = None,
        _context: int = CTX_PT2PT,
        _cat: str = "isend",
    ) -> Generator[Future, Any, SendRequest]:
        """Nonblocking send; returns a :class:`SendRequest`.

        ``_context`` selects which of this communicator's two contexts
        carries the message (``CTX_COLL`` from the collective algorithms).
        """
        self.timer.enter(_cat, self.sim.now)
        yield from self.device.ckpt_poll()
        if nbytes is None:
            nbytes = payload_nbytes(data)
        if self.ranks is not None:
            dest = self.ranks[dest]
        context = self.p2p_context if _context == CTX_PT2PT else self.coll_context
        env = Envelope(
            src=self.adi.rank, dst=dest, tag=tag, context=context, nbytes=nbytes, data=data
        )
        if not self.device.fast_forward():
            yield self.sim.pause(_API_CALL_CPU)
        req = yield from self.adi.isend(env)
        self.timer.exit(self.sim.now)
        return req

    def irecv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        _context: int = CTX_PT2PT,
        _cat: str = "irecv",
    ) -> Generator[Future, Any, RecvRequest]:
        """Nonblocking receive; returns a :class:`RecvRequest`."""
        self.timer.enter(_cat, self.sim.now)
        yield from self.device.ckpt_poll()
        if not self.device.fast_forward():
            yield self.sim.pause(_API_CALL_CPU)
        if self.ranks is not None and source != ANY_SOURCE:
            source = self.ranks[source]
        context = self.p2p_context if _context == CTX_PT2PT else self.coll_context
        req = self.adi.irecv(source, tag, context, self.ranks)
        self.timer.exit(self.sim.now)
        return req

    def send(
        self, dest: int, nbytes: Optional[int] = None, tag: int = 0, data: Any = None
    ) -> Generator[Future, Any, None]:
        """Blocking send."""
        self.timer.enter("send", self.sim.now)
        req = yield from self.isend(dest, nbytes, tag, data)
        yield from self.adi.wait(req)
        self.timer.exit(self.sim.now)

    def recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator[Future, Any, Message]:
        """Blocking receive; returns the delivered :class:`Message`."""
        self.timer.enter("recv", self.sim.now)
        req = yield from self.irecv(source, tag)
        msg = yield from self.adi.wait(req)
        self.timer.exit(self.sim.now)
        return msg

    def sendrecv(
        self,
        dest: int,
        nbytes: Optional[int] = None,
        tag: int = 0,
        data: Any = None,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
    ) -> Generator[Future, Any, Message]:
        """Combined send+receive (deadlock-free exchange)."""
        self.timer.enter("sendrecv", self.sim.now)
        rreq = yield from self.irecv(source, recvtag)
        sreq = yield from self.isend(dest, nbytes, tag, data)
        yield from self.adi.wait_all([sreq, rreq])
        self.timer.exit(self.sim.now)
        return rreq.message

    # -- completion -------------------------------------------------------------
    def wait(self, req: Request) -> Generator[Future, Any, Any]:
        """Block until ``req`` completes; returns its value."""
        self.timer.enter("wait", self.sim.now)
        yield from self.device.ckpt_poll()
        value = yield from self.adi.wait(req)
        self.timer.exit(self.sim.now)
        return value

    def waitall(self, reqs: Sequence[Request]) -> Generator[Future, Any, list[Any]]:
        """Block until every request completes; returns their values."""
        self.timer.enter("wait", self.sim.now)
        yield from self.device.ckpt_poll()
        yield from self.adi.wait_all(reqs)
        self.timer.exit(self.sim.now)
        return [r.done.value for r in reqs]

    def waitany(self, reqs: Sequence[Request]) -> Generator[Future, Any, int]:
        """Block until one request completes; returns its index."""
        self.timer.enter("wait", self.sim.now)
        yield from self.device.ckpt_poll()
        idx = yield from self.adi.wait_any(reqs)
        self.timer.exit(self.sim.now)
        return idx

    def waitsome(
        self, reqs: Sequence[Request]
    ) -> Generator[Future, Any, list[int]]:
        """Block until at least one completes; returns all completed indices."""
        self.timer.enter("wait", self.sim.now)
        yield from self.device.ckpt_poll()
        yield from self.adi.wait_any(reqs)
        done = [i for i, r in enumerate(reqs) if r.complete]
        self.timer.exit(self.sim.now)
        return done

    def test(self, req: Request) -> Generator[Future, Any, bool]:
        """Nonblocking completion check (advances progress)."""
        self.timer.enter("test", self.sim.now)
        if not self.device.fast_forward():
            yield self.sim.pause(_API_CALL_CPU)
        self.adi._progress_nonblocking()
        self.timer.exit(self.sim.now)
        return req.complete

    # -- probing ------------------------------------------------------------------
    def iprobe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator[Future, Any, bool]:
        """Nonblocking probe for a matching unexpected message."""
        self.timer.enter("probe", self.sim.now)
        if not self.device.fast_forward():
            yield self.sim.pause(_API_CALL_CPU)
        if self.ranks is not None and source != ANY_SOURCE:
            source = self.ranks[source]
        env = self.adi.iprobe(source, tag, self.p2p_context)
        self.timer.exit(self.sim.now)
        return env is not None

    def probe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator[Future, Any, tuple[int, int, int]]:
        """Blocking probe; returns (source, tag, nbytes) of the match."""
        self.timer.enter("probe", self.sim.now)
        if self.ranks is not None and source != ANY_SOURCE:
            source = self.ranks[source]
        env = yield from self.adi.probe_blocking(source, tag, self.p2p_context)
        self.timer.exit(self.sim.now)
        src = env.src if self.ranks is None else self.ranks.index(env.src)
        return src, env.tag, env.nbytes

    # -- compute ----------------------------------------------------------------
    def compute(
        self, seconds: Optional[float] = None, flops: Optional[float] = None
    ) -> Generator[Future, Any, None]:
        """Advance simulated time for a computation segment.

        Exactly one of ``seconds``/``flops`` must be given; ``flops`` is
        converted through the host's sustained compute rate.  The device
        may add CPU tax (daemon competition) or skip the time entirely
        (checkpoint fast-forward during re-execution).
        """
        if (seconds is None) == (flops is None):
            raise ValueError("give exactly one of seconds= or flops=")
        if seconds is None:
            seconds = self.device.host.compute_seconds(flops)
        self.timer.enter("compute", self.sim.now)
        yield from self.device.ckpt_poll()
        yield from self.device.app_compute(seconds)
        self.timer.exit(self.sim.now)

    # -- collectives (the algorithms live in collectives.py) ---------------------
    def barrier(self) -> Generator[Future, Any, None]:
        """Block until every rank has entered the barrier."""
        self.timer.enter("barrier", self.sim.now)
        yield from collectives.barrier(self)
        self.timer.exit(self.sim.now)

    def bcast(self, root: int, nbytes: Optional[int] = None, data: Any = None):
        """Broadcast from ``root``; returns the payload on every rank."""
        self.timer.enter("coll", self.sim.now)
        out = yield from collectives.bcast(self, root, nbytes, data)
        self.timer.exit(self.sim.now)
        return out

    def reduce(self, root: int, value: Any, op=None, nbytes: Optional[int] = None):
        """Reduce to ``root`` (default op: +); None on non-roots."""
        self.timer.enter("coll", self.sim.now)
        out = yield from collectives.reduce(self, root, value, op, nbytes)
        self.timer.exit(self.sim.now)
        return out

    def allreduce(self, value: Any, op=None, nbytes: Optional[int] = None):
        """Reduce-to-all (default op: +)."""
        self.timer.enter("coll", self.sim.now)
        out = yield from collectives.allreduce(self, value, op, nbytes)
        self.timer.exit(self.sim.now)
        return out

    def gather(self, root: int, value: Any, nbytes: Optional[int] = None):
        """Gather to ``root``; rank-ordered list there, None elsewhere."""
        self.timer.enter("coll", self.sim.now)
        out = yield from collectives.gather(self, root, value, nbytes)
        self.timer.exit(self.sim.now)
        return out

    def allgather(self, value: Any, nbytes: Optional[int] = None):
        """Gather-to-all; every rank gets the rank-ordered list."""
        self.timer.enter("coll", self.sim.now)
        out = yield from collectives.allgather(self, value, nbytes)
        self.timer.exit(self.sim.now)
        return out

    def scatter(self, root: int, values: Optional[Sequence[Any]] = None, nbytes: Optional[int] = None):
        """Scatter ``values`` from ``root``; returns this rank's element."""
        self.timer.enter("coll", self.sim.now)
        out = yield from collectives.scatter(self, root, values, nbytes)
        self.timer.exit(self.sim.now)
        return out

    def scan(self, value: Any, op=None, nbytes: Optional[int] = None):
        """Inclusive prefix reduction over ranks 0..self.rank."""
        self.timer.enter("coll", self.sim.now)
        out = yield from collectives.scan(self, value, op, nbytes)
        self.timer.exit(self.sim.now)
        return out

    def alltoall(self, values: Sequence[Any], nbytes_each: Optional[int] = None):
        """Personalized all-to-all: values[i] goes to rank i."""
        self.timer.enter("coll", self.sim.now)
        out = yield from collectives.alltoall(self, values, nbytes_each)
        self.timer.exit(self.sim.now)
        return out

    def coll_tag(self) -> int:
        """A fresh internal tag for one collective operation.

        Deterministic per rank call-order, so all ranks agree on the tag of
        the i-th collective — and re-execution regenerates the same tags.
        """
        self._coll_seq += 1
        return self._coll_seq

    def split(self, color: Any, key: Optional[int] = None):
        """MPI_Comm_split: partition this communicator by ``color``.

        Collective over the group; returns the :class:`Comm` of this
        rank's color, or ``None`` for ``color is None`` (MPI_UNDEFINED).
        ``key`` orders ranks inside the new group (ties broken by rank
        here).  Splits nest.
        """
        key = self.rank if key is None else key
        entries = yield from self.allgather(value=(color, key, self.rank), nbytes=24)
        self._split_seq += 1
        if color is None:
            return None
        colors = sorted({c for c, _, _ in entries if c is not None}, key=repr)
        members = [r for _, r in sorted((k, r) for c, k, r in entries if c == color)]
        if self.ranks is not None:
            members = [self.ranks[r] for r in members]
        # a tree encoding keeps context ids unique across nested/sibling splits
        slot = self._split_seq * max(8, len(colors)) + colors.index(color)
        ctx_base = _FIRST_USER_CTX + 2 * ((self.p2p_context + 1) * 1024 + slot)
        return Comm(self.adi, self.timer, members, ctx_base)


class MPI(Comm):
    """The world communicator: the per-rank context handed to programs."""

    def __init__(
        self,
        sim: Simulator,
        rank: int,
        size: int,
        device: ChannelDevice,
        tracer: Tracer,
    ) -> None:
        adi = Adi(sim, device, rank, size, tracer)
        device.bind_adi(adi)
        super().__init__(adi, CallTimer(), None, CTX_PT2PT)

    def init(self) -> Generator[Future, Any, None]:
        """MPI_Init: bring the channel device up."""
        yield from self.device.piinit()

    def finalize(self) -> Generator[Future, Any, None]:
        """Complete outstanding protocol state and close the channel."""
        yield from self.barrier()
        yield from self.device.pifinish()
