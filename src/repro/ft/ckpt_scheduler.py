"""The Checkpoint Scheduler (Section 4.6.2).

"The role of the checkpoint scheduler is to evaluate the cost and the
benefit of a checkpoint, at any specific time, and to order the
checkpoints accordingly."  Checkpoints need no coordination — scheduling
exists purely to bound the memory held by the sender-based logs and the
bandwidth consumed by image transfers.

Three policies are implemented:

* **round_robin** — the paper's baseline: no status traffic, fair only
  for symmetric communication schemes;
* **adaptive** — orders nodes by decreasing ratio of received-over-sent
  bytes ("considering the ratio amount of received messages over amount
  of sent messages for each computing node"); asymmetric schemes get
  their heavy loggers checkpointed (and garbage-collected) first;
* **random** — the policy used in the Figure 11 fault experiment ("We
  use a scheduling policy randomly selecting the node to checkpoint").

The scheduler runs in two modes: *periodic* (order one checkpoint every
``interval``) and *continuous* ("the checkpoint of a node immediately
follows the one of another node", the Figure 11 setup).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from ..obs.registry import Metrics
from ..runtime.config import TestbedConfig
from ..runtime.fabric import ConnectionRefused, Fabric
from ..runtime.retry import RetryPolicy
from ..runtime.session import ServiceBase, Session
from ..simnet.kernel import Future, Queue, Simulator
from ..simnet.node import Host, HostDown
from ..simnet.streams import Disconnected, StreamEnd
from ..simnet.trace import Tracer

if TYPE_CHECKING:
    import numpy as np

__all__ = ["CheckpointScheduler", "POLICIES"]

POLICIES = ("round_robin", "adaptive", "random")


class CheckpointScheduler(ServiceBase):
    """The checkpoint-ordering service."""

    metric_ns = "sched"

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        fabric: Fabric,
        cfg: TestbedConfig,
        nprocs: int,
        policy: str = "round_robin",
        interval: float = 30.0,
        continuous: bool = False,
        name: str = "sched:0",
        rng: Optional[np.random.Generator] = None,
        tracer: Optional[Tracer] = None,
        cs_names: tuple[str, ...] = (),
        metrics: Optional[Metrics] = None,
        key_of: Optional[Any] = None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; pick from {POLICIES}")
        super().__init__(sim, host, fabric, name, tracer=tracer, metrics=metrics)
        self.cfg = cfg
        self.nprocs = nprocs
        self.policy = policy
        self.interval = interval
        self.continuous = continuous
        if rng is None:
            import numpy as np

            rng = np.random.default_rng(0)
        self.rng = rng
        self.links: dict[int, StreamEnd] = {}
        self.status: dict[int, dict[str, Any]] = {}
        self._rr_next = 0
        #: continuous mode: the ordered rank and the future its
        #: CKPT_DONE, its CKPT_FAIL or its link breaking resolves
        self._awaiting: Optional[tuple[int, Future]] = None
        self.orders_issued = 0
        # ranks whose checkpoint push failed (checkpoint-server outage);
        # they are re-ordered ahead of the policy's regular pick
        self._retry_q: deque[int] = deque()
        self.ckpt_retries = 0
        # manifest-aware GC: the scheduler is the only component that
        # knows which checkpoint sequence of each rank is quorum-complete
        # (CKPT_DONE only arrives once the write quorum committed), so it
        # owns the GC epochs broadcast to the store replicas
        self.cs_names = tuple(cs_names)
        #: rank -> store key translation for the GC broadcast.  Daemons
        #: report CKPT_DONE with their bare rank (the scheduler is per
        #: job), but on a *shared* store the floors must name the
        #: job-qualified keys the manifests were committed under.
        self._key_of = key_of if key_of is not None else (lambda r: r)
        self.quorum_seq: dict[int, int] = {}
        self._gc_q: Queue = Queue(sim, name="sched.gcq")
        # persistent session per store replica (framed records, epochs,
        # backpressure metrics) instead of ad-hoc fabric.connect streams
        policy = RetryPolicy.from_config(cfg, max_tries=cfg.peer_retry_tries)
        self._gc_sessions: dict[str, Session] = {
            cs: Session(
                sim, fabric, host, cs, scope="sched.gc", policy=policy,
                tracer=tracer, metrics=self.metrics, labels={"server": cs},
            )
            for cs in self.cs_names
        }

    def on_accept(self, end: StreamEnd, hello: object) -> None:
        _, rank, inc = hello
        self.links[rank] = end
        self._spawn(self._reader(rank, end), f"sched.rx{rank}", supervised=True)

    def on_start(self) -> None:
        """Run the scheduling loop (and the store-GC broadcaster)."""
        self._spawn(self._drive(), "sched.drive")
        if self.cs_names:
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
                return
            if msg[0] == "STATUS":
                self.status[msg[1]] = msg[2]
            elif msg[0] == "CKPT_DONE":
                if len(msg) > 3:
                    self._note_quorum(msg[1], msg[3])
                self._settle(msg[1])
            elif msg[0] == "CKPT_FAIL":
                # the push aborted (checkpoint-server outage); queue a retry
                # and unblock the continuous-mode wait
                failed = msg[1]
                self.ckpt_retries += 1
                self._retry_q.append(failed)
                self.tracer.emit(self.sim.now, "sched.ckpt_retry", rank=failed)
                self._settle(failed)

    def _settle(self, rank: int) -> None:
        """End the continuous-mode wait if it is on ``rank``'s checkpoint."""
        awaiting = self._awaiting
        if awaiting is not None and awaiting[0] == rank:
            self._awaiting = None
            awaiting[1].resolve()

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
            if not self.continuous:
                yield self.sim.pause(self.interval)
            target = yield from self._pick()
            if target is None:
                yield self.sim.pause(self.interval if not self.continuous else 1.0)
                continue
            end = self.links.get(target)
            if end is None:
                continue
            try:
                yield from end.write(16, ("CKPT_ORDER",))
            except Disconnected:
                continue
            self.orders_issued += 1
            self.tracer.emit(self.sim.now, "sched.order", rank=target)
            if self.continuous:
                # the next order follows this checkpoint's end
                done = Future(self.sim, name="sched.done")
                self._awaiting = (target, done)
                yield done

    def _pick(self):
        """Choose the next node to checkpoint, per policy."""
        while self._retry_q:
            cand = self._retry_q.popleft()
            if cand in self.links:
                # give the checkpoint server its supervised restart delay
                # before re-ordering the failed push
                yield self.sim.pause(self.cfg.svc_restart_delay)
                return cand
        live = sorted(self.links)
        if not live:
            yield self.sim.pause(0.0)
            return None
        if self.policy == "round_robin":
            yield self.sim.pause(0.0)
            for _ in range(self.nprocs):
                cand = self._rr_next % self.nprocs
                self._rr_next += 1
                if cand in self.links:
                    return cand
            return None
        if self.policy == "random":
            yield self.sim.pause(0.0)
            return int(self.rng.choice(live))
        # adaptive: poll status, rank by received/sent ratio (descending)
        yield from self._poll_status(live)
        best, best_ratio = None, -1.0
        for r in live:
            st = self.status.get(r)
            if st is None or st.get("finalized"):
                continue
            ratio = st["bytes_received"] / max(1.0, st["bytes_sent"])
            if ratio > best_ratio:
                best, best_ratio = r, ratio
        return best

    def _poll_status(self, live):
        for r in live:
            end = self.links.get(r)
            if end is None:
                continue
            try:
                yield from end.write(16, ("STATUS_REQ",))
            except Disconnected:
                continue
        # replies arrive through _reader; give them a beat
        yield self.sim.pause(0.01)
