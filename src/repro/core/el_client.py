"""The daemon's event-logger client: quorum fan-out and the WAITLOGGED gate.

One :class:`EventLogClient` per daemon incarnation owns everything the
pessimistic protocol needs from the event logger side of the node:

* the **WAITLOGGED gate** — closed the instant a reception event is
  logged, reopened only when every outstanding event has a *quorum* of
  replica acknowledgements; :meth:`EventLogClient.wait_sendable` is
  where the transmit loops park (and where the stall is measured —
  V2's small-message latency);
* the **fan-out** — each logged event is one batch, registered and
  pushed to every replica of the rank's EL shard at once: written in
  place when that replica's writer is idle with its link up and credit
  free, else queued for the writer process, which waits for the link
  or the credit.  (Batching happens on the logger's side: it stores
  what queued behind a batch under one CPU charge and one cumulative
  ack.)  Per-replica readers — push consumers
  (:class:`~repro.runtime.session.PushReader`), not processes — count
  acknowledgements into the shared quorum ledger, and a batch completes
  (``v2.el_ack``) once ``cfg.el_quorum`` distinct replicas acknowledged
  it — in batch order, because each replica acks in order and the q-th
  order statistic of monotone sequences is monotone;
* **failover survival** — batches written to a replica but not yet
  acknowledged by it sit in that replica's ``unacked`` ledger and are
  re-pushed, in order, after its reconnect (the server dedups by
  ``(rank, rclock)``, so the at-least-once re-push is idempotent); a
  single replica crash is a *failover* (``el.failovers``): the gate
  keeps clearing on the surviving quorum and no global stall occurs.
  Only when live replicas drop below quorum does the client enter the
  outage regime the single-EL deployment knows: the gate holds until a
  quorum is re-established, so no application message escapes while
  its reception event is in doubt — the pessimistic property holds by
  construction.

Each replica link is a :class:`~repro.runtime.session.Session`
(framing, epochs, integrated backoff); this module adds only the
protocol above.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Optional

from ..obs.registry import Metrics
from ..runtime.config import TestbedConfig
from ..runtime.fabric import ConnectionRefused, Fabric
from ..runtime.retry import RetryPolicy
from ..runtime.session import PushReader, Session
from ..simnet.kernel import Future, Gate, Queue, Simulator
from ..simnet.node import Host, HostDown
from ..simnet.streams import Disconnected, StreamEnd
from ..simnet.trace import Tracer
from .clocks import EventRecord

__all__ = ["EventLogClient"]


class _ReplicaLink:
    """Client-side state for one replica of the rank's EL shard."""

    def __init__(
        self, sim: Simulator, idx: int, name: str, session: Session, rank: int
    ) -> None:
        self.idx = idx
        self.name = name
        self.session = session
        # closed while this replica's link is down; its writer parks here
        self.up = Gate(sim, opened=False, name=f"d{rank}.el{idx}.up")
        # batches handed to this replica's writer, in batch order
        self.sendq: Queue = Queue(sim, name=f"d{rank}.el{idx}.q")
        # the writer is parked on an empty ``sendq``: a batch may be
        # written in its place, at the point it would have run
        self.writer_idle = False
        # (batch id, batch) written on this link but not yet acked *by
        # this replica* — re-pushed after its reconnect
        self.unacked: deque[tuple[int, list[EventRecord]]] = deque()
        # write times of batches awaiting this replica's ack (RTT)
        self.inflight: deque[float] = deque()
        self.reconnecting = False


class EventLogClient:
    """One rank's fan-out to its event-logger shard (phase-A downloads,
    quorum-acked event pushes, acknowledgement-gated sending)."""

    def __init__(
        self,
        sim: Simulator,
        cfg: TestbedConfig,
        fabric: Fabric,
        host: Host,
        rank: int,
        el_names: tuple[str, ...],
        *,
        spawn: Callable[[Any, str], Any],
        proc_name: Callable[[str], str],
        tracer: Tracer,
        metrics: Metrics,
        rng: Any,
        on_retry: Callable[[int, float], None],
        key: Any,
    ) -> None:
        self.sim = sim
        self.cfg = cfg
        self.rank = rank
        #: the identity this client stores events under on the (possibly
        #: shared) EL servers: the deployment's ``job_key(rank)`` — the
        #: bare rank for a single job, a job-qualified key under the
        #: control plane, so N jobs share one shard without cross-talk.
        #: Traces and metrics keep the bare rank (per-job registries).
        self.key = key
        self.el_names = el_names
        self.nreps = len(self.el_names)
        #: replica acks required before a batch clears the gate
        self.quorum = min(self.nreps, cfg.el_quorum)
        self._spawn = spawn
        self._proc_name = proc_name
        self.host = host
        self.tracer = tracer
        self._policy = RetryPolicy.from_config(cfg)
        self._rng = rng
        self._on_retry = on_retry
        self.replicas = [
            _ReplicaLink(
                sim, i, name,
                Session(
                    sim, fabric, host, name,
                    policy=self._policy, rng=rng, on_retry=on_retry,
                    tracer=self.tracer, metrics=metrics, scope="el",
                    labels={"rank": rank},
                ),
                rank,
            )
            for i, name in enumerate(self.el_names)
        ]

        # the pessimistic gate: closed while any reception event lacks a
        # quorum of acks; no application message leaves the node then
        self.gate = Gate(sim, opened=True, name=f"d{rank}.elgate")
        self.outstanding = 0
        # quorum ledger: batch id -> {n, t0, ids, acked (replica set),
        # done}; entries retire once every replica acked (or never, for
        # a replica that stays dead — bounded by the job's event count)
        self._pend: dict[int, dict] = {}
        self._order: deque[int] = deque()  # pending batch ids, in order
        self._next_bid = 0
        # quorum-outage state: set while live replicas < quorum (for the
        # single-replica deployment this is exactly "the EL is down")
        self._down_since: Optional[float] = None

        m = metrics
        self._m_roundtrips = m.counter("el.roundtrips", rank=rank)
        self._m_rtt = m.histogram("el.rtt_s", rank=rank)
        self._m_quorum_wait = m.histogram("el.quorum_wait_s", rank=rank)
        self._m_failovers = m.counter("el.failovers", rank=rank)
        self._m_gate_stalls = m.counter("gate.stalls", rank=rank)
        self._m_gate_stall_s = m.counter("gate.stall_s", rank=rank)
        self._m_outage_reconnects = m.counter("outage.reconnects", rank=rank)
        self._m_outage_el_down_s = m.counter("outage.el_down_s", rank=rank)
        self._m_outage_stalled = m.counter("outage.stalled_send_s", rank=rank)

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------
    def _live(self) -> int:
        """Replicas with a live stream right now."""
        return sum(1 for rep in self.replicas if rep.session.up())

    def _connect_until(self, need: int) -> Generator[Future, Any, None]:
        """Round-robin (re)connect down replicas until ``need`` are live.

        Exhausting the budget means the shard never recovered a quorum
        within ~2 minutes of simulated backoff: that violates the
        deployment contract (the supervisor restarts crashed replicas),
        so fail the simulation loudly rather than deadlock silently.
        """
        for rep in self.replicas:
            if rep.session.up():
                continue
            try:
                rep.session.connect_now()
            except ConnectionRefused:
                pass
        attempt = 0
        while self._live() < need:
            if attempt >= self._policy.max_tries:
                raise RuntimeError(
                    f"rank {self.rank}: event logger shard "
                    f"{'/'.join(self.el_names)} below quorum "
                    f"({self._live()}/{need} live) after "
                    f"{self._policy.max_tries} attempts"
                )
            d = self._policy.delay(attempt, self._rng)
            self._on_retry(attempt, d)
            yield self.sim.pause(d)
            attempt += 1
            for rep in self.replicas:
                if rep.session.up():
                    continue
                try:
                    rep.session.connect_now()
                except ConnectionRefused:
                    pass

    def connect(self) -> Generator[Future, Any, None]:
        """Connect to the shard's replicas, retrying with capped backoff
        until at least a quorum of them is live (replicas still down
        are picked up by :meth:`start_io`'s background reconnectors)."""
        yield from self._connect_until(self.quorum)

    def online(self) -> None:
        """Declare the freshly-connected links usable by the writers."""
        for rep in self.replicas:
            if rep.session.up():
                rep.up.open()

    def start_io(self) -> None:
        """Start the steady-state per-replica writers and readers;
        replicas that missed the initial connect get a background
        reconnector instead of a reader."""
        for rep in self.replicas:
            self._spawn(self._rep_writer(rep), f"el.tx{rep.idx}")
            if rep.session.up():
                self._read(rep, rep.session.end)
            elif not rep.reconnecting:
                rep.reconnecting = True
                self._spawn(self._rep_reconnect(rep), f"el.re{rep.idx}")

    def _rep_down(self, rep: _ReplicaLink, end: Optional[StreamEnd]) -> None:
        """Mark one replica link lost; start its reconnect process."""
        if end is None or not rep.session.drop(end):
            return  # a stale loop noticed an already-replaced stream
        rep.up.close()
        if self.nreps > 1:
            # one replica down, quorum (usually) alive: a failover, not
            # an outage — the gate keeps clearing on the survivors
            self._m_failovers.inc()
            self.tracer.emit(
                self.sim.now, "v2.el_failover", rank=self.rank,
                replica=rep.name, unacked=len(rep.unacked),
            )
        if self._live() < self.quorum and self._down_since is None:
            self._down_since = self.sim.now
            self.tracer.emit(
                self.sim.now, "v2.el_down", rank=self.rank,
                outstanding=self.outstanding,
                unacked=sum(
                    1 for e in self._pend.values() if not e["done"]
                ),
            )
        if not rep.reconnecting:
            rep.reconnecting = True
            self._spawn(self._rep_reconnect(rep), f"el.re{rep.idx}")

    def _rep_reconnect(self, rep: _ReplicaLink):
        """Re-establish one replica link and re-push its unacked batches.

        The quorum ledger keeps counting the lost acknowledgements
        against ``outstanding``, so the WAITLOGGED gate cannot clear a
        batch early; the server dedups re-pushed events by
        ``(rank, rclock)``, so the at-least-once re-push is idempotent
        — it still acknowledges every batch, which is what re-earns the
        lost acks.
        """
        end = yield from rep.session.connect()
        if end is None:
            rep.reconnecting = False
            if self._live() < self.quorum:
                raise RuntimeError(
                    f"rank {self.rank}: event logger {rep.name} unreachable "
                    f"after {rep.session.policy.max_tries} attempts with the "
                    f"shard below quorum"
                )
            return  # the replica never came back; the quorum carries on
        # acks of the old stream died with it: every batch unacked *by
        # this replica* is re-pushed, in order, ahead of anything its
        # writer sends next
        repush = list(rep.unacked)
        rep.inflight.clear()
        self._read(rep, end)
        for bid, batch in repush:
            t0 = self.sim.now
            try:
                yield from end.write(
                    self.cfg.event_bytes * len(batch),
                    ("EVENT", self.key, bid, batch),
                )
            except (Disconnected, HostDown):
                rep.reconnecting = False
                self._rep_down(rep, end)  # crashed again: next round re-pushes
                return
            rep.inflight.append(t0)
        rep.reconnecting = False
        if self._down_since is not None and self._live() >= self.quorum:
            outage_s = self.sim.now - self._down_since
            self._m_outage_reconnects.inc()
            self._m_outage_el_down_s.inc(outage_s)
            self._down_since = None
            self.tracer.emit(
                self.sim.now, "v2.el_reconnect", rank=self.rank,
                outage_s=outage_s, repushed=len(repush),
            )
        rep.up.open()

    # ------------------------------------------------------------------
    # the pessimistic protocol
    # ------------------------------------------------------------------
    def log_event(self, rec: EventRecord) -> None:
        """Push a reception event to the event logger; closes the gate."""
        self.outstanding += 1
        self.gate.close()
        bid = self._next_bid
        self._next_bid += 1
        self._pend[bid] = {
            "n": 1,
            "t0": self.sim.now,
            "ids": (rec.rclock,),
            "acked": set(),
            "done": False,
        }
        self._order.append(bid)
        self._fan_out(bid, [rec])
        if self.tracer.hot:
            self.tracer.emit(
                self.sim.now,
                "v2.log_event",
                rank=self.rank,
                rclock=rec.rclock,
                src=rec.src,
                sclock=rec.sclock,
            )

    def wait_sendable(self) -> Generator[Future, Any, None]:
        """Park until every logged event is quorum-acked (WAITLOGGED)."""
        if self.gate.is_open:
            yield self.gate.waitfor()  # gate open: free
        else:
            # the pessimistic gate — measure the stall
            self._m_gate_stalls.inc()
            t0 = self.sim.now
            down0 = self._down_since
            yield self.gate.waitfor()
            self._m_gate_stall_s.inc(self.sim.now - t0)
            if down0 is not None or self._down_since is not None:
                # the stall overlapped a below-quorum outage: the gate
                # held because a quorum of acks could not arrive at all
                self._m_outage_stalled.inc(self.sim.now - t0)

    def _fan_out(self, bid: int, batch: list) -> None:
        """Push a registered batch to every replica.

        Where the replica's writer is parked on an empty queue with the
        link up and window credit free, the write happens here — what
        the writer, resumed inside this call, would have done before
        parking again; otherwise the writer gets the batch, to wait for
        the link or the credit itself.
        """
        nbytes = self.cfg.event_bytes * len(batch)
        record = ("EVENT", self.key, bid, batch)
        for rep in self.replicas:
            end = rep.session.end
            if (
                rep.writer_idle
                and rep.up.is_open
                and end is not None
                and end.write_nowait(nbytes, record)
            ):
                rep.unacked.append((bid, batch))
                rep.inflight.append(self.sim.now)
            else:
                rep.sendq.put((bid, batch))

    def _rep_writer(self, rep: _ReplicaLink):
        while True:
            ok, item = rep.sendq.try_get()
            if not ok:
                rep.writer_idle = True
                item = yield rep.sendq.get()
                rep.writer_idle = False
            bid, batch = item
            # exactly-once hand-off per stream generation: a batch joins
            # the replica's ``unacked`` only once written, so the
            # reconnector (which re-pushes ``unacked``) and this writer
            # never both send it
            while True:
                if not rep.up.is_open:
                    yield rep.up.waitfor()
                end = rep.session.end
                if end is None:
                    continue  # raced with another disconnect; wait again
                t0 = self.sim.now
                try:
                    yield from end.write(
                        self.cfg.event_bytes * len(batch),
                        ("EVENT", self.key, bid, batch),
                    )
                except (Disconnected, HostDown):
                    self._rep_down(rep, end)
                    continue  # batch not in ``unacked``: resend it here
                rep.unacked.append((bid, batch))
                rep.inflight.append(t0)
                break

    def _read(self, rep: _ReplicaLink, end: StreamEnd) -> None:
        """Start ``rep``'s reader on ``end``; it lasts until the break."""

        def on_record(msg: tuple) -> None:
            if msg[0] == "ACK":
                # ("ACK", bid, n): cumulative — the server coalesces acks
                # for a burst of queued batches into one frame, and may
                # piggyback them on DOWNLOAD replies, so one ack can
                # cover several unacked entries
                self._ack_through(rep, msg[1])

        PushReader(
            rep.session, on_record, lambda: self._rep_down(rep, end),
            host=self.host, name=self._proc_name(f"el.rx{rep.idx}"), end=end,
        )

    def _ack_through(self, rep: _ReplicaLink, bid: int) -> None:
        """Retire every unacked batch of ``rep`` up to and including
        ``bid`` (cumulative acks: ``unacked`` is in batch order)."""
        unacked = rep.unacked
        while unacked and unacked[0][0] <= bid:
            b, _batch = unacked.popleft()
            if rep.inflight:
                t0 = rep.inflight.popleft()
                self._m_roundtrips.inc()
                self._m_rtt.observe(self.sim.now - t0)
            self._on_ack(rep, b)

    def _on_ack(self, rep: _ReplicaLink, bid: int) -> None:
        """Fold one replica's ack into the quorum ledger.

        Batches complete strictly in batch order: each replica acks in
        order, so the head of ``_order`` always reaches quorum no later
        than anything behind it — draining from the head keeps the
        ``v2.el_ack`` stream ordered for the auditor.
        """
        ent = self._pend.get(bid)
        if ent is None:
            return  # a fully-retired batch's late duplicate ack
        ent["acked"].add(rep.idx)
        while self._order:
            head = self._pend[self._order[0]]
            if not head["done"] and len(head["acked"]) < self.quorum:
                break
            if not head["done"]:
                self._complete(self._order[0])
            self._order.popleft()
        if ent["done"] and len(ent["acked"]) >= self.nreps:
            del self._pend[bid]  # every replica holds it: retire the entry

    def _complete(self, bid: int) -> None:
        """A batch reached quorum: release its events from the gate."""
        ent = self._pend[bid]
        ent["done"] = True
        n = ent["n"]
        self.outstanding = max(0, self.outstanding - n)
        self._m_quorum_wait.observe(self.sim.now - ent["t0"])
        if self.tracer.hot:
            self.tracer.emit(
                self.sim.now, "v2.el_ack", rank=self.rank, n=n,
                outstanding=self.outstanding, ids=ent["ids"],
                quorum=self.quorum,
            )
        if self.outstanding == 0:
            self.gate.open()

    # ------------------------------------------------------------------
    # recovery downloads / pruning
    # ------------------------------------------------------------------
    def download(
        self, from_rclock: int
    ) -> Generator[Future, Any, list[EventRecord]]:
        """Phase-A event download (inline replies; no readers running).

        Fans the request out to the live replicas and unions the
        replies by ``rclock``: any ``K - quorum + 1`` replicas together
        hold every quorum-acked event, so that is the read quorum (a
        freshly-restarted replica defers downloads until its peer
        catch-up completes, keeping the intersection argument sound).
        """
        t_start = self.sim.now
        retries = 0
        failovers = 0
        need = self.nreps - self.quorum + 1
        while True:
            merged: dict[int, EventRecord] = {}
            got = 0
            for rep in self.replicas:
                end = rep.session.end
                if end is None or end.broken is not None:
                    continue
                try:
                    yield from end.write(
                        16, ("DOWNLOAD", self.key, from_rclock)
                    )
                    reply = yield from rep.session.read_record(end)
                except (Disconnected, HostDown):
                    # this replica crashed mid-download: another quorum
                    # member serves it
                    rep.session.drop(end)
                    failovers += 1
                    continue
                records = reply[1]
                if len(reply) >= 3 and reply[2] is not None:
                    # quorum acks piggybacked on the serve traffic: the
                    # DOWNLOAD reply carries the highest batch id this
                    # replica has stored but not yet acked on a frame of
                    # its own — fold it in before processing the records
                    self._ack_through(rep, reply[2])
                for rec in records:
                    merged.setdefault(rec.rclock, rec)
                got += 1
            if got >= need:
                records = [merged[rc] for rc in sorted(merged)]
                self.tracer.emit(
                    self.sim.now, "v2.el_download", rank=self.rank,
                    n=len(records), wait_s=self.sim.now - t_start,
                    retries=retries, failovers=failovers,
                    from_rclock=from_rclock,
                )
                return records
            # below the read quorum: reconnect (the event store survives
            # service restarts — durably or via peer catch-up) and re-ask
            retries += 1
            yield from self._connect_until(need)

    def prune(self, recv_seq: int) -> Generator[Future, Any, None]:
        """Ask every live replica to drop events a checkpoint now covers
        (best-effort)."""
        for rep in self.replicas:
            end = rep.session.end
            if end is None:
                continue
            try:
                yield from end.write(16, ("PRUNE", self.key, recv_seq))
            except Disconnected:
                # PRUNE is a best-effort space optimization: un-pruned
                # events only cost the (restarted) replica memory
                self._rep_down(rep, end)
