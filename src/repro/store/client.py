"""The daemon-side client of the replicated checkpoint store.

Two jobs, both running over persistent per-replica
:class:`~repro.runtime.session.Session` links (one framed, reconnecting
stream per replica, shared by every push and fetch this incarnation
makes):

* **quorum push** — stream the image's chunks to every replica
  concurrently; the push is durable (and the daemon may GC its sender
  log, prune the event logger, and report CKPT_DONE) as soon as
  ``ckpt_replicas`` replicas acknowledge a complete COMMIT.  Stragglers
  keep filling in the background; a replica that dies mid-push simply
  fails its leg — durability already came from the quorum.  In
  incremental mode the client first asks each replica which chunk
  digests it is missing (HAVE → MISSING) and streams only those, which
  is where content addressing turns into bytes saved.

* **streamed restart fetch** — probe every replica for its newest
  sequence (HEAD), fetch from the best one, and accumulate chunks as
  they arrive.  If that replica dies mid-stream, the chunks already
  received are kept and the retry (against the next-best live replica)
  asks only for the rest — a mid-restart failover moves the tail of the
  transfer, not the whole image.

Because the stream to each replica is shared, push legs serialize per
replica: overlapping pushes (periodic-mode scheduling can order a new
checkpoint while a straggler leg is still streaming) would otherwise
interleave their records and replies.  The serialization is a chained
future per replica that costs no yield when uncontended.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from ..obs.registry import Metrics
from ..runtime.config import TestbedConfig
from ..runtime.fabric import ConnectionRefused, Fabric
from ..runtime.retry import RetryPolicy
from ..runtime.session import Session
from ..simnet.kernel import Future, Simulator
from ..simnet.node import Host, HostDown
from ..simnet.streams import Disconnected
from ..simnet.trace import Tracer
from .chunks import Chunk, Manifest, assemble_image

if TYPE_CHECKING:  # lazy: core.v2_device sits between this package and core
    from ..core.replay import CheckpointImage

__all__ = ["StoreClient"]


class StoreClient:
    """One rank's interface to the replicated checkpoint store."""

    def __init__(
        self,
        sim: Simulator,
        cfg: TestbedConfig,
        fabric: Fabric,
        host: Host,
        names: tuple[str, ...],
        rank: int,
        key: Any,
        *,
        tracer: Tracer,
        metrics: Metrics,
        rng: Optional[Any] = None,
        on_retry: Optional[Callable[[int, float], None]] = None,
    ) -> None:
        self.sim = sim
        self.cfg = cfg
        self.fabric = fabric
        self.host = host
        self.names = names
        self.rank = rank
        #: the identity images are stored under on the (possibly shared)
        #: replicas: the bare rank alone, a job-qualified key under the
        #: control plane.  Manifests carry the same key in their ``rank``
        #: field, so HEAD/FETCH and GC floors select this job's images.
        self.key = key
        self.tracer = tracer
        self._rng = rng
        self._on_retry = on_retry
        #: write quorum: how many complete COMMITs make a push durable
        self.quorum = max(1, min(cfg.ckpt_replicas, len(self.names)))
        #: why the last failed push failed ("refused" | "disconnected")
        self.last_push_why = "refused"
        self._metrics = m = metrics
        self._m_push_bytes = m.counter("store.push_bytes", rank=rank)
        self._m_dedup_bytes = m.counter("store.dedup_bytes", rank=rank)
        self._m_quorum_s = m.histogram("store.quorum_s", rank=rank)
        self._m_failover = m.counter("store.failover", rank=rank)
        self._m_fetch_bytes = m.counter("store.fetch_bytes", rank=rank)
        self._sessions: dict[str, Session] = {}
        # replica name -> tail of the push-leg chain (the per-stream lock)
        self._push_tail: dict[str, Future] = {}

    def _session(self, name: str) -> Session:
        """The (lazily created) persistent session to one replica."""
        sess = self._sessions.get(name)
        if sess is None:
            sess = Session(
                self.sim, self.fabric, self.host, name,
                window=self.cfg.stream_window,
                policy=RetryPolicy.from_config(
                    self.cfg, max_tries=self.cfg.cs_fetch_tries
                ),
                rng=self._rng, on_retry=self._on_retry,
                tracer=self.tracer, metrics=self._metrics,
                scope="store", labels={"rank": self.rank},
            )
            self._sessions[name] = sess
        return sess

    def _spawn(self, gen, label: str) -> None:
        p = self.sim.spawn(gen, name=f"store.c{self.rank}.{label}", supervised=False)
        self.host.register(p)

    def _note_retry(self, attempt: int, delay: float) -> None:
        if self._on_retry is not None:
            self._on_retry(attempt, delay)

    # ------------------------------------------------------------------
    # quorum push
    # ------------------------------------------------------------------
    def push(
        self, manifest: Manifest, chunks: dict[int, Chunk], incremental: bool
    ) -> Generator[Future, Any, bool]:
        """Push one checkpoint to the replica set; True once K committed.

        Resolves as soon as the write quorum is reached (remaining
        replicas continue in the background) or once enough legs failed
        that the quorum has become unreachable.
        """
        t0 = self.sim.now
        done: Future = Future(self.sim, name=f"store.c{self.rank}.quorum")
        state = {"acks": 0, "fails": 0, "why": "refused"}
        n = len(self.names)
        need = self.quorum

        def leg_done(ok: bool, why: str) -> None:
            if ok:
                state["acks"] += 1
                if state["acks"] == need:
                    done.resolve_if_pending(True)
            else:
                state["fails"] += 1
                state["why"] = why
                if state["fails"] > n - need:
                    done.resolve_if_pending(False)

        for name in self.names:
            self._spawn(
                self._push_one(name, manifest, chunks, incremental, leg_done),
                f"push{manifest.seq}.{name}",
            )
        ok = yield done
        if ok:
            self._m_quorum_s.observe(self.sim.now - t0)
            self.tracer.emit(
                self.sim.now,
                "store.quorum",
                rank=self.rank,
                seq=manifest.seq,
                acks=state["acks"],
                quorum=need,
                replicas=n,
                wait_s=self.sim.now - t0,
            )
        else:
            self.last_push_why = state["why"]
        return ok

    def _push_one(
        self,
        name: str,
        manifest: Manifest,
        chunks: dict[int, Chunk],
        incremental: bool,
        leg_done: Callable[[bool, str], None],
    ):
        sess = self._session(name)
        # the replica stream is shared: a later push's leg must not start
        # until the previous leg on this replica is finished, or their
        # records and replies would interleave.  Chained-future lock;
        # the uncontended path does not yield.
        prev = self._push_tail.get(name)
        gate = Future(self.sim, name=f"store.c{self.rank}.leg.{name}")
        self._push_tail[name] = gate
        try:
            if prev is not None and not prev.done:
                yield prev
            try:
                if not sess.up():
                    # the connect sits inside the handler below: a leg woken
                    # by its predecessor's gate while the local host is
                    # crashing must fail cleanly, not crash the process
                    end = yield from sess.connect()
                    if end is None:
                        leg_done(False, "refused")
                        return
                send = list(manifest.digests)
                if incremental:
                    yield from sess.write(
                        16 + 8 * len(send), ("HAVE", manifest.rank, tuple(send))
                    )
                    reply = yield from sess.read_record()
                    missing = frozenset(reply[1])
                    skipped = sum(
                        ref.nbytes
                        for ref in manifest.chunks
                        if ref.digest not in missing
                    )
                    self._m_dedup_bytes.inc(skipped)
                    send = [d for d in send if d in missing]
                yield from self._send_chunks(
                    sess, (chunks[d] for d in dict.fromkeys(send))
                )
                for _ in range(2):  # COMMIT, once more if a GC raced the chunks
                    yield from sess.write(manifest.wire_bytes, ("COMMIT", manifest))
                    ack = yield from sess.read_record()
                    if ack[0] == "STORED":
                        leg_done(True, "")
                        return
                    # INCOMPLETE: re-send the holes and commit again
                    yield from self._send_chunks(sess, (chunks[d] for d in ack[1]))
                leg_done(False, "disconnected")
            except (Disconnected, HostDown):
                # a replica dying mid-push fails this leg only; durability is
                # the quorum's job, and the scheduler re-orders on total loss
                sess.drop()
                leg_done(False, "disconnected")
        finally:
            if self._push_tail.get(name) is gate:
                del self._push_tail[name]
            gate.resolve_if_pending(True)

    def _send_chunks(self, sess: Session, chunks) -> Generator[Future, Any, None]:
        for chunk in chunks:
            yield from sess.write_frame(
                max(1, chunk.nbytes), ("CHUNK", chunk), mtu=self.cfg.chunk_bytes
            )
            self._m_push_bytes.inc(chunk.nbytes)

    # ------------------------------------------------------------------
    # streamed restart fetch
    # ------------------------------------------------------------------
    def fetch(self) -> Generator[Future, Any, Optional[CheckpointImage]]:
        """Fetch this rank's newest image from any live replica.

        Accumulated chunks survive a mid-stream replica crash: the next
        attempt (on another replica) requests only what is still
        missing.  Returns ``None`` when no replica holds an image (or
        the whole retry budget drains) — restart-from-scratch, exactly
        as a lost single server always meant.

        The fetch needs no stream lock: it runs during recovery, before
        this incarnation's first push can be ordered.
        """
        policy = RetryPolicy.from_config(self.cfg, max_tries=self.cfg.cs_fetch_tries)
        have: dict[int, Chunk] = {}
        failed_over = False
        t_start = self.sim.now
        n_failovers = n_retries = 0
        self.tracer.emit(t_start, "store.fetch_start", rank=self.rank)

        def _done(found: bool) -> None:
            # one completion marker per fetch, on every exit path, so the
            # recovery timeline can attribute the restore window
            self.tracer.emit(
                self.sim.now, "store.fetch_done", rank=self.rank,
                found=found, bytes=sum(c.nbytes for c in have.values()),
                chunks=len(have), failovers=n_failovers, retries=n_retries,
                wait_s=self.sim.now - t_start,
            )

        for attempt in range(policy.max_tries):
            # probe every replica for its newest sequence; fetch the best
            best_name: Optional[str] = None
            best_sess: Optional[Session] = None
            best_seq, refused = 0, 0
            for name in self.names:
                sess = self._session(name)
                if not sess.up():
                    try:
                        sess.connect_now()
                    except ConnectionRefused:
                        refused += 1
                        continue
                try:
                    yield from sess.write(16, ("HEAD", self.key))
                    reply = yield from sess.read_record()
                except Disconnected:
                    sess.drop()
                    refused += 1
                    continue
                if reply[1] > best_seq:
                    best_name, best_sess, best_seq = name, sess, reply[1]
            if best_name is None:
                if refused < len(self.names):
                    _done(False)
                    return None  # replicas answered; none has an image
                delay = policy.delay(attempt, self._rng)
                self._note_retry(attempt, delay)
                n_retries += 1
                yield self.sim.pause(delay)
                continue
            if refused and not failed_over:
                # the preferred replica set is degraded: record that this
                # restart is being served by a failover target
                failed_over = True
                self._m_failover.inc()
                n_failovers += 1
                self.tracer.emit(
                    self.sim.now, "store.failover", rank=self.rank,
                    serving=best_name, dead=refused, mode="probe",
                )
            sess = best_sess
            desync = False
            try:
                yield from sess.write(
                    16 + 8 * len(have),
                    ("FETCH", self.key, best_seq, tuple(have)),
                )
                reply = yield from sess.read_record()
                if reply[0] == "NONE":
                    continue  # wiped between probe and fetch; re-probe
                manifest: Manifest = reply[1]
                needed = set(manifest.digests) - set(have)
                while needed:
                    msg = yield from sess.read_record()
                    if msg[0] != "CHUNK":
                        desync = True  # truncated stream; retry fills the rest
                        break
                    chunk = msg[1]
                    have[chunk.digest] = chunk
                    self._m_fetch_bytes.inc(chunk.nbytes)
                    needed.discard(chunk.digest)
                if needed:
                    continue
                _done(True)
                return assemble_image(manifest, have)
            except (Disconnected, HostDown):
                # mid-stream crash: keep what arrived, fail over
                sess.drop()
                failed_over = True
                self._m_failover.inc()
                n_failovers += 1
                self.tracer.emit(
                    self.sim.now, "store.failover", rank=self.rank,
                    serving=best_name, dead=refused, mode="midstream",
                    chunks_kept=len(have),
                )
                delay = policy.delay(attempt, self._rng)
                self._note_retry(attempt, delay)
                n_retries += 1
                yield self.sim.pause(delay)
            finally:
                if desync and sess.end is not None:
                    # the replica may still be streaming the rest of the
                    # old transfer: the stream is out of sync with the
                    # protocol and cannot be reused
                    end = sess.end
                    sess.drop()
                    if not end.stream.dead:
                        end.stream.break_both("fetch-desync")
        _done(False)
        return None
