"""The Checkpoint Scheduler (Section 4.6.2).

"The role of the checkpoint scheduler is to evaluate the cost and the
benefit of a checkpoint, at any specific time, and to order the
checkpoints accordingly."  Checkpoints need no coordination — scheduling
exists purely to bound the memory held by the sender-based logs and the
bandwidth consumed by image transfers.

The three ordering policies, :class:`RoundRobin`, :class:`Adaptive` and
:class:`Random`, exist once, here: the live :class:`CheckpointScheduler`
and the §4.6.2 traffic model (:func:`repro.sched.simulate`) both drive
them.  The scheduler runs in two modes: *periodic* (order one checkpoint
every ``interval``) and *continuous*, with ``interval=None`` ("the
checkpoint of a node immediately follows the one of another node", the
Figure 11 setup).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from ..runtime.fabric import ConnectionRefused
from ..runtime.retry import RetryPolicy
from ..runtime.session import ServiceBase, Session
from ..simnet.kernel import Future, Queue, any_of
from ..simnet.node import HostDown
from ..simnet.streams import Disconnected, StreamEnd

__all__ = [
    "Adaptive", "CheckpointScheduler", "POLICIES", "Random", "RoundRobin",
    "make_policy",
]

POLICIES = ("round_robin", "adaptive", "random")


class RoundRobin:
    """The paper's baseline: cycle through the live nodes.

    "The main advantage of the round-robin algorithm is its lack of
    communication between the scheduler and the nodes. Its main problem
    comes from the asymmetry of some communication schemes."
    """

    wants_status = False

    def __init__(self, n: int) -> None:
        self.n = n
        self._next = 0

    def pick(self, live, sent=None, recv=None) -> Optional[int]:
        """The next live node in the cycle (None if none is live)."""
        for _ in range(self.n):
            node = self._next
            self._next = (node + 1) % self.n
            if node in live:
                return node
        return None


class Adaptive:
    """The paper's adaptive policy: "considering the ratio 'amount of
    received messages' over 'amount of sent messages' for each computing
    node. It computes a scheduling following a decreasing order of this
    ratio across the nodes."

    At the start of each cycle it ranks the live nodes by decreasing
    received/sent ratio (a stable sort, so equal ratios keep node order:
    round-robin on a symmetric scheme) and orders them in that sequence.
    The schedule "does not have to be fair": a node that receives
    nothing is never checkpointed (unless no node receives), e.g. the
    leaves of a flat reduce or the root of a flat broadcast.  Its log is
    freed by its receivers' checkpoints, and its image, which carries
    that log, would be the most expensive to move.
    """

    def __init__(self) -> None:
        self._cycle: deque[int] = deque()

    @property
    def wants_status(self) -> bool:
        """Does the next pick start a cycle, ranked on fresh counters?"""
        return not self._cycle

    def pick(self, live, sent=None, recv=None) -> Optional[int]:
        """The next live node of the cycle; a new cycle ranks ``live`` on
        the ``sent``/``recv`` byte counters (indexed by node)."""
        if not self._cycle:
            ratio = {r: recv[r] / max(sent[r], 1.0) for r in live}
            order = sorted(ratio, key=lambda r: -ratio[r])
            self._cycle.extend([r for r in order if ratio[r] > 0] or order)
        while self._cycle:
            node = self._cycle.popleft()
            if node in live:
                return node
        return None


class Random:
    """Figure 11's policy: "randomly selecting the node to checkpoint"."""

    wants_status = False

    def __init__(self, rng: Any) -> None:
        self.rng = rng

    def pick(self, live, sent=None, recv=None) -> Optional[int]:
        """A live node drawn from the policy's own random stream."""
        return int(self.rng.choice(live))


def make_policy(name: str, n: int, rng: Any = None):
    """The policy ``name`` over ``n`` nodes (``random`` draws from ``rng``)."""
    if name == "round_robin":
        return RoundRobin(n)
    if name == "adaptive":
        return Adaptive()
    if name == "random":
        return Random(rng)
    raise ValueError(f"unknown policy {name!r}; pick from {POLICIES}")


class CheckpointScheduler(ServiceBase):
    """The checkpoint-ordering service."""

    metric_ns = "sched"

    def __init__(
        self,
        dep: Any,
        nprocs: int,
        *,
        policy: str,
        interval: Optional[float],
    ) -> None:
        if interval is not None and interval <= 0:
            raise ValueError(f"checkpoint interval must be > 0, not {interval}")
        cluster = dep.cluster
        self.policy = make_policy(
            policy, nprocs, cluster.rng.stream(f"{dep.ns}ckpt-sched")
        )
        host = dep.sched_host or dep.service
        super().__init__(
            cluster.sim, host, dep.fabric, "sched:0",
            tracer=dep.tracer, metrics=dep.metrics,
        )
        self.cfg = cfg = cluster.cfg
        #: seconds between orders; ``None``: continuous (the next order
        #: follows the last checkpoint's end)
        self.interval = interval
        self.links: dict[int, StreamEnd] = {}
        #: rank -> its reply to the latest STATUS poll (adaptive only)
        self.status: dict[int, dict[str, Any]] = {}
        #: ranks polled that have neither answered nor lost their link,
        #: and the future the last of them resolves
        self._polled: set[int] = set()
        self._poll_done: Optional[Future] = None
        #: continuous mode: the ordered rank and the future its
        #: CKPT_DONE, its CKPT_FAIL or its link breaking resolves
        self._awaiting: Optional[tuple[int, Future]] = None
        # ranks whose checkpoint push failed (checkpoint-server outage);
        # they are re-ordered ahead of the policy's regular pick
        self._retry_q: deque[int] = deque()
        # manifest-aware GC: the scheduler is the only component that
        # knows which checkpoint sequence of each rank is quorum-complete
        # (CKPT_DONE only arrives once the write quorum committed), so it
        # owns the GC epochs broadcast to the store replicas
        #: rank -> store key translation for the GC broadcast.  Daemons
        #: report CKPT_DONE with their bare rank (the scheduler is per
        #: job), but on a *shared* store the floors must name the
        #: job-qualified keys the manifests were committed under.
        self._key_of = dep.job_key
        self.quorum_seq: dict[int, int] = {}
        self._gc_q: Queue = Queue(self.sim, name="sched.gcq")
        # persistent session per store replica (framed records, epochs,
        # backpressure metrics) instead of ad-hoc fabric.connect streams
        policy = RetryPolicy.from_config(cfg, max_tries=cfg.peer_retry_tries)
        self._gc_sessions: dict[str, Session] = {
            srv.name: Session(
                self.sim, dep.fabric, host, srv.name, scope="sched.gc",
                policy=policy, tracer=dep.tracer, metrics=dep.metrics,
                labels={"server": srv.name},
            )
            for srv in dep.servers
        }

    def on_accept(self, end: StreamEnd, hello: object) -> None:
        _, rank, inc = hello
        self.links[rank] = end
        self._spawn(self._reader(rank, end), f"sched.rx{rank}", supervised=True)

    def on_start(self) -> None:
        """Run the scheduling loop (and the store-GC broadcaster)."""
        self._spawn(self._drive(), "sched.drive")
        self._spawn(self._gc_drive(), "sched.gc")

    def on_stop(self, cause: object) -> None:
        self.links.clear()
        # a scheduler crash severs its outgoing GC links too
        for sess in self._gc_sessions.values():
            end = sess.end
            if end is not None and not end.stream.dead:
                end.stream.break_both(cause)
            sess.drop()

    def _reader(self, rank: int, end: StreamEnd):
        while True:
            try:
                msg = yield from self._read_record(end)
            except Disconnected:
                if self.links.get(rank) is end:
                    del self.links[rank]
                # a rank killed mid-push sends neither DONE nor FAIL
                self._settle(rank)
                self._answered(rank)
                return
            if msg[0] == "STATUS":
                self.status[msg[1]] = msg[2]
                self._answered(msg[1])
            elif msg[0] == "CKPT_DONE":
                if len(msg) > 3:
                    self._note_quorum(msg[1], msg[3])
                self._settle(msg[1])
            elif msg[0] == "CKPT_FAIL":
                # the push aborted (checkpoint-server outage); queue a retry
                # and unblock the continuous-mode wait
                failed = msg[1]
                self._retry_q.append(failed)
                self.tracer.emit(self.sim.now, "sched.ckpt_retry", rank=failed)
                self._settle(failed)

    def _settle(self, rank: int) -> None:
        """End the continuous-mode wait if it is on ``rank``'s checkpoint."""
        awaiting = self._awaiting
        if awaiting is not None and awaiting[0] == rank:
            self._awaiting = None
            awaiting[1].resolve()

    def _answered(self, rank: int) -> None:
        """``rank`` answered the STATUS poll or lost its link."""
        polled = self._polled
        polled.discard(rank)
        if not polled and self._poll_done is not None:
            self._poll_done.resolve_if_pending()

    # -- store garbage collection ---------------------------------------------
    def _note_quorum(self, rank: int, seq: int) -> None:
        """A quorum-complete checkpoint advanced a rank's GC floor."""
        if seq is None or seq <= self.quorum_seq.get(rank, 0):
            return
        self.quorum_seq[rank] = seq
        self.tracer.emit(
            self.sim.now, "sched.gc_epoch", rank=rank, seq=seq,
            floors=dict(self.quorum_seq),
        )
        self._gc_q.put(True)

    def reset_store_state(self) -> None:
        """A global restart wiped the store: forget every GC floor."""
        self.quorum_seq.clear()

    def _gc_drive(self):
        """Broadcast GC epochs to every replica, coalescing bursts.

        A replica that is down simply misses an epoch; the floors are
        cumulative (the whole dict is re-sent each time), so the next
        broadcast after it returns covers everything it missed.
        """
        while True:
            yield self._gc_q.get()
            while True:
                ok, _ = self._gc_q.try_get()
                if not ok:
                    break
            epoch = {self._key_of(r): s for r, s in self.quorum_seq.items()}
            if not epoch:
                continue
            for cs, sess in self._gc_sessions.items():
                if not sess.up():
                    sess.drop()
                    try:
                        # single non-blocking dial: a replica that is down
                        # just misses this epoch, the cumulative floors in
                        # the next broadcast cover it
                        sess.connect_now()
                    except ConnectionRefused:
                        continue
                try:
                    yield from sess.write(16 + 16 * len(epoch), ("GC", epoch))
                except (Disconnected, HostDown):
                    sess.drop()

    # -- the scheduling loop -------------------------------------------------
    def _drive(self):
        # give daemons a moment to connect
        yield self.sim.pause(0.05)
        while True:
            if self.interval is not None:
                yield self.sim.pause(self.interval)
            target = yield from self._pick()
            if target is None:
                yield self.sim.pause(
                    1.0 if self.interval is None else self.interval
                )
                continue
            end = self.links.get(target)
            if end is None:
                continue
            try:
                yield from end.write(16, ("CKPT_ORDER",))
            except Disconnected:
                continue
            self.tracer.emit(self.sim.now, "sched.order", rank=target)
            if self.interval is None:
                # the next order follows this checkpoint's end
                done = Future(self.sim, name="sched.done")
                self._awaiting = (target, done)
                yield done

    def _pick(self):
        """Choose the next node to checkpoint: a failed push first, then
        the policy's pick among the live ranks."""
        while self._retry_q:
            cand = self._retry_q.popleft()
            if cand in self.links:
                # give the checkpoint server its supervised restart delay
                # before re-ordering the failed push
                yield self.sim.pause(self.cfg.svc_restart_delay)
                return cand
        live = sorted(self.links)
        if not live or not self.policy.wants_status:
            yield self.sim.pause(0.0)
            return self.policy.pick(live) if live else None
        # adaptive starts a cycle: rank only the ranks that answered
        yield from self._poll_status(live)
        st = {r: s for r, s in self.status.items() if not s["finalized"]}
        return self.policy.pick(
            sorted(st),
            {r: s["bytes_sent"] for r, s in st.items()},
            {r: s["bytes_received"] for r, s in st.items()},
        )

    def _poll_status(self, live):
        """Ask every live rank for its counters and wait for the answers.

        The wait ends once each polled rank has answered or lost its
        link, or after ``cfg.hb_timeout``; :attr:`status` then holds
        only this poll's answers, so a rank that missed it sits out the
        cycle instead of being ranked on stale counters.
        """
        self.status.clear()
        self._polled = polled = set(live)
        for r in live:
            end = self.links.get(r)
            if end is None:
                polled.discard(r)
                continue
            try:
                yield from end.write(16, ("STATUS_REQ",))
            except Disconnected:
                polled.discard(r)
        if polled:
            self._poll_done = done = Future(self.sim, name="sched.status")
            timer = self.sim.timeout(self.cfg.hb_timeout)
            yield any_of(self.sim, (done, timer))
            self.sim.cancel(timer)
            self._poll_done = None
