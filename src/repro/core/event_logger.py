"""The Event Logger: quorum-replicated storage of reception events.

The paper runs "the event logger [as] a repository executed on a
reliable component of the system" (Section 4.5).  This implementation
drops that assumption: the logger is itself a fault domain.  Ranks shard
across ``cfg.el_servers`` logger groups and each group keeps
``cfg.el_replicas`` in-memory copies of its shard's event tuples
(ReStore-style peer replication).  Safety comes from the client side:
the WAITLOGGED gate clears only once a majority quorum of the shard's
replicas has acknowledged an event, so any surviving quorum can
reconstruct every dependency a sender was allowed to act on.

Each computing-node daemon holds one stream to every replica of its
shard and

* pushes reception events asynchronously to all of them, one
  ``EVENT`` record (~20 bytes on the wire) per event, named by the
  event's receiver clock ``rclock`` (unique and increasing within a
  rank, and the store's dedup key);
* receives acknowledgements — the daemon may not emit application
  messages while events lack a quorum of acks (the pessimistic gate).
  Acks are *cumulative* by rclock: a burst of queued records is stored
  under one CPU charge and answered with a single ``ACK`` frame naming
  the burst's last rclock;
* on restart, downloads every event with receiver-clock greater than
  its checkpoint clock (``DownloadEL`` of Appendix A) from the live
  replicas, unioned so any quorum member can serve it;
* after a completed checkpoint, asks the replicas to prune old events.

Replica roles:

* A **single-replica** logger (``el_replicas == 1``, the classic
  deployment) keeps its ``events`` store durable across service
  crashes — the pre-replication stop/start contract, still exercised
  by the supervisor tests.
* A **replicated** logger (peers configured) loses its in-memory copy
  when it crashes.  On supervised relaunch it re-fills by asking its
  peers for their full store (``SYNC``/``SYNCSET``); client re-pushes
  arriving concurrently are merged by the same ``(rank, rclock)``
  dedup, so catch-up and live traffic compose.

The service lifecycle (listen/accept/stop) comes from
:class:`~repro.runtime.session.ServiceBase`.
"""

from __future__ import annotations

from typing import Any

from ..obs.registry import Metrics
from ..runtime.config import TestbedConfig
from ..runtime.fabric import Fabric
from ..runtime.retry import RetryPolicy
from ..runtime.session import ServiceBase, Session
from ..simnet.kernel import Simulator
from ..simnet.node import Host, HostDown
from ..simnet.streams import Disconnected, StreamEnd
from ..simnet.trace import Tracer
from .clocks import EventRecord

__all__ = ["EventLoggerServer"]


class EventLoggerServer(ServiceBase):
    """One event-logger replica (a shard member of the replication group).

    A service-level crash (:meth:`stop`) loses only in-flight requests
    and unacknowledged pushes, which clients re-push, when the logger is
    unreplicated: its durable event store survives.  Replicated, the
    in-memory copy dies with the crash; the shard's surviving quorum
    keeps every acknowledged event and the supervised relaunch resyncs
    from it.
    """

    metric_ns = "el"

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        fabric: Fabric,
        cfg: TestbedConfig,
        name: str,
        tracer: Tracer,
        metrics: Metrics,
        shard: int,
        peer_names: tuple,
    ) -> None:
        super().__init__(sim, host, fabric, name, tracer, metrics)
        self.cfg = cfg
        self.shard = shard
        #: the other replicas of this shard (empty = unreplicated)
        self.peer_names = peer_names
        self.replicated = bool(self.peer_names)
        m = self.metrics
        self._m_stored = m.counter("el.events_stored", server=name, shard=shard)
        self._m_acks = m.counter("el.acks", server=name, shard=shard)
        self._m_cpu_s = m.counter("el.cpu_s", server=name, shard=shard)
        self._m_dups = m.counter("el.dup_events", server=name, shard=shard)
        self._m_resyncs = m.counter("el.resyncs", server=name, shard=shard)
        self._m_resynced = m.counter(
            "el.events_resynced", server=name, shard=shard
        )
        # rank -> {rclock -> EventRecord}.  Unreplicated: survives daemon
        # incarnations *and* crashes of this service (durable storage).
        # Replicated: in-memory only — a crash loses it and the relaunch
        # re-fills from the shard's live peers (the quorum holds the data).
        self.events: dict[int, dict[int, EventRecord]] = {}
        self._cpu_free = 0.0  # host-CPU serialization across connections
        self._lost_store = False  # replicated crash: relaunch must resync
        self._resyncing = False  # defer DOWNLOADs until catch-up completes

    def on_stop(self, cause: Any) -> None:
        self._cpu_free = 0.0
        if self.replicated:
            self.events.clear()
            self._lost_store = True

    def on_start(self) -> None:
        if self.replicated and self._lost_store:
            self._lost_store = False
            self._resyncing = True
            self._spawn(self._resync(), f"{self.name}.resync")

    def evict(self, ranks) -> None:
        """Forget the given rank keys' events (a finished job's reclaim).

        The control plane calls this per job at completion; co-resident
        jobs' keys are untouched, so a long-lived shared shard does not
        accumulate the history of every job it ever served.
        """
        for r in ranks:
            self.events.pop(r, None)

    # -- replica catch-up ----------------------------------------------------
    def _resync(self):
        """Re-fill a restarted replica's store from its live peers.

        Asks every peer for its full shard copy and unions the replies;
        client re-pushes racing the catch-up are merged by the same
        ``(rank, rclock)`` dedup.  A peer that is itself down is skipped
        — its own relaunch runs the symmetric catch-up later.
        """
        merged = 0
        peers_seen = 0
        for peer in self.peer_names:
            sess = Session(
                self.sim, self.fabric, self.host, peer,
                policy=RetryPolicy.from_config(self.cfg, max_tries=8),
                tracer=self.tracer, metrics=self.metrics,
                scope="el", labels={"server": self.name},
            )
            end = yield from sess.connect()
            if end is None:
                continue
            try:
                yield from sess.write(16, ("SYNC",))
                reply = yield from sess.read_record(end)
            except (Disconnected, HostDown):
                continue
            if not (isinstance(reply, tuple) and reply[0] == "SYNCSET"):
                self._protocol_error(f"resync got {reply!r}")
                continue
            merged += self._merge(reply[1])
            peers_seen += 1
            if end.broken is None:
                end.stream.break_both("el-sync-done")
        self._resyncing = False
        self._m_resyncs.inc()
        self.tracer.emit(
            self.sim.now, "el.resync", server=self.name, shard=self.shard,
            n=merged, peers=peers_seen,
        )

    def _merge(self, by_rank: dict[int, list[EventRecord]]) -> int:
        """Union peer records into the store; returns the fresh count."""
        fresh = 0
        for rank, records in by_rank.items():
            store = self.events.setdefault(rank, {})
            for rec in records:
                if rec.rclock not in store:
                    store[rec.rclock] = rec
                    fresh += 1
        self._m_resynced.inc(fresh)
        return fresh

    # -- the serve loop ------------------------------------------------------
    def _drain_queued(self, end: StreamEnd, burst: list):
        """Non-blockingly drain records already queued on ``end``.

        A daemon under load (or re-pushing after a reconnect) often has
        several EVENT records sitting in the receive queue by the time
        the logger finishes the previous one.  Acknowledging each with a
        dedicated frame puts one server→daemon round trip per event on
        the WAITLOGGED critical path; draining them here lets the serve
        loop store the burst under one CPU charge and answer it with one
        *cumulative* ack.  Queued heartbeat PINGs are answered in place
        (liveness must not wait behind the burst); the first non-EVENT
        protocol record is returned for the main loop to handle after
        the ack — returning ``None`` means the queue ran dry.
        """
        while end.readable:
            ok, _, msg = end.try_read()
            if not ok:
                break
            msg = yield from self._accept(end, msg)
            if msg is None:
                continue
            if msg[0] == "EVENT":
                burst.append(msg)
                continue
            return msg
        return None

    def _store(self, rank: Any, rec: EventRecord) -> None:
        """Dedup-store one pushed event and emit its ``el.store`` trace."""
        store = self.events.get(rank)
        if store is None:
            store = self.events[rank] = {}
        if rec.rclock in store:
            self._m_dups.inc(1)
        else:
            store[rec.rclock] = rec
            self._m_stored.inc(1)
        if self.tracer.hot:
            self.tracer.emit(
                self.sim.now, "el.store", rank=rank, n=1,
                server=self.name, shard=self.shard,
                ids=((rec.rclock, rec.src, rec.sclock),),
            )

    def _download(self, end: StreamEnd, rank: Any, after_clock: int):
        """Serve one DOWNLOAD: every stored event after ``after_clock``."""
        # a freshly-restarted replica must not answer downloads
        # from a store it has not finished re-filling: that would
        # break the read-quorum intersection argument
        while self._resyncing:
            yield self.sim.pause(0.01)
        store = self.events.get(rank, {})
        records = sorted(
            rec for rc, rec in store.items() if rc > after_clock
        )
        nbytes = self.cfg.event_bytes * max(1, len(records))
        self.tracer.emit(
            self.sim.now, "el.download", rank=rank, n=len(records),
            server=self.name,
        )
        yield from end.write(nbytes, ("EVENTS", records))

    def _serve(self, end: StreamEnd, hello: Any):
        pending: Any = None
        while True:
            if pending is not None:
                msg, pending = pending, None
            else:
                try:
                    msg = yield from self._read_record(end)
                except Disconnected:
                    return  # daemon died; its replacement will reconnect
            kind = msg[0]
            if kind == "EVENT":
                burst = [msg]
                if end.readable:
                    # coalesce the burst already queued behind this record
                    try:
                        pending = yield from self._drain_queued(end, burst)
                    except Disconnected:
                        return
                # the event logger runs on an auxiliary PIII: storing and
                # acknowledging events costs real CPU there, serialized
                # across every daemon it serves (the contention point that
                # sharding across el_servers groups dilutes)
                cost = self.cfg.el_cpu_per_event * len(burst)
                now = self.sim.now
                begin = now if now > self._cpu_free else self._cpu_free
                self._cpu_free = begin + cost
                yield self.sim.pause(self._cpu_free - self.sim.now)
                # store (and trace) every event *before* any ack leaves:
                # the auditor's quorum rule orders el.store against the
                # client's v2.el_ack
                for _, rank, rec in burst:
                    self._store(rank, rec)
                self._m_acks.inc()
                self._m_cpu_s.inc(cost)
                try:
                    yield from end.write(
                        self.cfg.event_ack_bytes, ("ACK", burst[-1][2].rclock)
                    )
                except Disconnected:
                    return  # the daemon re-pushes the burst after reconnect
            elif kind == "DOWNLOAD":
                try:
                    yield from self._download(end, msg[1], msg[2])
                except Disconnected:
                    return  # the restarting daemon retries its download
            elif kind == "SYNC":
                # a restarted peer replica catching up: the whole store
                out: dict[int, list[EventRecord]] = {}
                n = 0
                for rank, store in self.events.items():
                    recs = sorted(store.values())
                    if recs:
                        out[rank] = recs
                        n += len(recs)
                nbytes = self.cfg.event_bytes * max(1, n)
                try:
                    yield from end.write(nbytes, ("SYNCSET", out))
                except Disconnected:
                    return  # the peer retries its catch-up
            elif kind == "PRUNE":
                _, rank, upto_clock = msg
                store = self.events.get(rank, {})
                for rc in [rc for rc in store if rc <= upto_clock]:
                    del store[rc]
            else:  # pragma: no cover
                raise RuntimeError(f"event logger got {kind!r}")

    # -- test/diagnostic helpers ---------------------------------------------
    def records_for(self, rank: int) -> list[EventRecord]:
        """All stored events for ``rank``, in receive order."""
        return sorted(self.events.get(rank, {}).values())
