"""The online protocol auditor: live safety checking of the V2 protocol.

Definition 3 of the paper argues MPICH-V2 is a *pessimistic* logging
protocol: no in-transit message may depend on an unlogged reception, and
a crashed process must be re-executable from its sender's retained
payloads plus the event logger's reception order.  Those are runtime
invariants, and this module checks them **while the run executes**: a
:class:`ProtocolAuditor` subscribes to the live trace stream (see
:meth:`~repro.simnet.trace.Tracer.subscribe`) and evaluates every
protocol event as it is emitted — no post-hoc trace replay, no record
retention required.

Rules checked (names appear in reports and violation records):

* ``waitlogged`` — a daemon transmitted while a reception event logged
  at a strictly earlier time was still unacknowledged by the event
  logger (the pessimistic WAITLOGGED gate, Section 4.5);
* ``replay-order`` — a re-executed delivery deviated from the logged
  order (or a fresh delivery skipped an event the logger holds);
* ``orphan`` — one incarnation of a rank delivered the same message
  identifier twice: a duplicate the HR watermark should have discarded,
  i.e. a delivery that could orphan its receiver after a fault;
* ``gc-safety`` — a sender-log garbage collection discarded payloads
  beyond the receiver's checkpointed coverage, destroying copies an
  un-checkpointed receiver may still need re-sent;
* ``store-gc`` — the chunk-granular extension of the same invariant to
  the replicated checkpoint store: a replica reclaimed a chunk that some
  rank's latest *quorum-complete* manifest (on that replica) still
  references, i.e. storage a restart may be about to fetch;
* ``el-quorum`` — a quorum-replicated event logger deployment cleared
  the WAITLOGGED gate for an event that fewer than ``quorum`` distinct
  EL replicas had stored (``el.store``) by acknowledgement time: a
  send gated on such an ack could outrun the replication the recovery
  path depends on.

Every rule is a per-rank condition, checked from per-rank state.
Causality is recorded in one place: with ``hb_graph=True`` the auditor
accumulates the happens-before graph — per-rank program order,
send→deliver message edges, and log_event→ack "el" edges (the EL round
trip the WAITLOGGED gate waits on) — for export alongside the Chrome
trace and for :func:`repro.obs.profile.critical_path`; a violation's
causal past is the set of graph nodes that reach it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from ..simnet.trace import Tracer

__all__ = ["RULES", "Violation", "AuditReport", "ProtocolAuditor"]

#: the safety rules the auditor evaluates, in reporting order
RULES = (
    "waitlogged", "replay-order", "orphan", "gc-safety", "store-gc",
    "el-quorum",
)


@dataclass(frozen=True)
class Violation:
    """One detected safety violation."""

    time: float  # simulated seconds
    rule: str  # one of RULES
    rank: int  # the rank at which the violation was observed
    detail: str  # human-readable one-liner (ranks and clocks named)
    context: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """A JSON-friendly view of one violation."""
        return {
            "time": self.time,
            "rule": self.rule,
            "rank": self.rank,
            "detail": self.detail,
            "context": dict(self.context),
        }


@dataclass
class AuditReport:
    """Outcome of one audited run (``JobResult.audit``)."""

    violations: list[Violation]
    checks: dict[str, int]  # rule -> number of checks evaluated
    events_seen: int  # protocol events observed by the auditor
    hb: Optional[dict[str, Any]] = None  # happens-before graph, if built

    @property
    def clean(self) -> bool:
        """No violations."""
        return not self.violations

    @property
    def verdict(self) -> str:
        """``clean`` or ``violations``."""
        return "violations" if self.violations else "clean"

    def count(self, rule: str) -> int:
        """Number of violations of one rule."""
        return sum(1 for v in self.violations if v.rule == rule)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-friendly view of the whole report."""
        out: dict[str, Any] = {
            "verdict": self.verdict,
            "events_seen": self.events_seen,
            "checks": dict(self.checks),
            "violations": [v.as_dict() for v in self.violations],
        }
        if self.hb is not None:
            out["happens_before"] = self.hb
        return out


class ProtocolAuditor:
    """Streaming checker of the V2 safety invariants.

    Attach to a live run with :meth:`attach` (wired by
    ``run_job(..., audit=True)``); call :meth:`finish` once the run
    completes to obtain the :class:`AuditReport`.

    The observe path is deliberately allocation-light — per-rule
    counters are ints, and no clock is copied per event — because
    every protocol event of the run passes through it; the 10 µs/event
    wall-clock budget of ``benchmarks/bench_observability_overhead.py``
    is the regression fence.
    """

    #: the only trace kinds the auditor asks the tracer to stream — every
    #: other emit (per-segment network records, MPI call timing, ...)
    #: stays on the tracer's one-branch fast path
    INTEREST = frozenset(
        {
            "v2.tx",
            "v2.deliver",
            "v2.log_event",
            "v2.el_ack",
            "v2.gc",
            "v2.ckpt",
            "v2.restart",
            "el.store",
            "store.commit",
            "store.quorum",
            "store.gc",
            "ft.fault",
            "ft.global_restart",
        }
    )

    def __init__(self, hb_graph: bool = False) -> None:
        self.hb_graph = hb_graph
        self.violations: list[Violation] = []
        self.events_seen = 0
        self._n_waitlogged = 0  # checks evaluated, per rule
        self._n_replay = 0
        self._n_orphan = 0
        self._n_gc = 0
        # waitlogged: per-rank emit times of still-unacknowledged events
        self._pending_el: dict[int, deque[float]] = {}
        # el-quorum: which EL replicas have stored each (rank, rclock)
        # not yet acknowledged
        self._el_stores: dict[tuple[int, int], set[str]] = {}
        self._n_quorum = 0
        # logged order: EL contents and per-rank delivery history by rclock
        self._el_log: dict[int, dict[int, tuple[int, int]]] = {}
        self._hist: dict[int, dict[int, tuple[int, int]]] = {}
        # orphan detection: ids delivered by the rank's current incarnation
        self._seen_ids: dict[int, set[tuple[int, int]]] = {}
        self._incarnation: dict[int, int] = {}
        # gc safety: each rank's last *completed* checkpoint HR vector
        self._ckpt_hr: dict[int, dict[int, int]] = {}
        # store gc: per (replica, rank) the digests of each committed
        # manifest, and per rank the latest quorum-complete sequence
        self._store_commits: dict[tuple[str, int], dict[int, frozenset]] = {}
        self._store_quorum: dict[int, int] = {}
        self._n_store_gc = 0
        # happens-before graph accumulation; _hb_pending_el mirrors
        # _pending_el with node ids so an ack's "el" edges can point
        # back at the log_event nodes it acknowledges
        self._hb_nodes: list[dict[str, Any]] = []
        self._hb_edges: list[tuple[int, int, str]] = []
        self._last_node: dict[int, int] = {}
        self._tx_node: dict[tuple[int, int], int] = {}
        self._hb_pending_el: dict[int, deque[int]] = {}
        self._tracer: Optional[Tracer] = None

    # -- wiring ------------------------------------------------------------
    def attach(self, tracer: Tracer) -> "ProtocolAuditor":
        """Subscribe to a tracer's live stream; returns self."""
        tracer.subscribe(self.observe, kinds=self.INTEREST)
        self._tracer = tracer
        return self

    def detach(self) -> None:
        """Stop observing the attached tracer."""
        if self._tracer is not None:
            self._tracer.unsubscribe(self.observe)
            self._tracer = None

    # -- the event stream --------------------------------------------------
    def observe(self, time: float, kind: str, f: dict) -> None:
        """Evaluate one protocol event (the subscriber callback)."""
        self.events_seen += 1
        if kind == "v2.deliver":
            self._on_deliver(time, f)
        elif kind == "v2.tx":
            self._on_tx(time, f)
        elif kind == "v2.log_event":
            rank = f["rank"]
            pending = self._pending_el.get(rank)
            if pending is None:
                pending = self._pending_el[rank] = deque()
            pending.append(time)
            if self.hb_graph:
                node = self._hb_add(rank, "log_event", time, f)
                # the reception event exists because a message arrived:
                # give it the message edge from the sender's tx, so idle
                # wait lands on "message" flight, not local program order
                tx = self._tx_node.get((f["src"], f["sclock"]))
                if tx is not None:
                    self._hb_edges.append((tx, node, "message"))
                self._hb_pending_el.setdefault(rank, deque()).append(node)
        elif kind == "v2.el_ack":
            # one event cleared the gate: the oldest pending one (events
            # clear in log order), named by ``ids == (rclock,)``
            rank = f["rank"]
            pending = self._pending_el.get(rank)
            if pending:
                pending.popleft()
            # el-quorum: the event must already sit on at least `quorum`
            # distinct replicas; the ack is the last reader of its
            # replica set
            quorum = f["quorum"]
            (rclock,) = f["ids"]
            stored_on = self._el_stores.pop((rank, rclock), ())
            if quorum > 1:
                self._n_quorum += 1
                if len(stored_on) < quorum:
                    self._flag(
                        time,
                        "el-quorum",
                        rank,
                        f"rank {rank}'s WAITLOGGED gate cleared rclock "
                        f"{rclock} with {len(stored_on)} of the "
                        f"required {quorum} replica store(s)",
                        rclock=rclock,
                        stored=len(stored_on),
                        quorum=quorum,
                    )
            if self.hb_graph:
                node = self._hb_add(rank, "el_ack", time, f)
                hb_pending = self._hb_pending_el.get(rank)
                if hb_pending:
                    self._hb_edges.append((hb_pending.popleft(), node, "el"))
        elif kind == "el.store":
            # one event stored on one replica: ``ids == ((rclock, src,
            # sclock),)``
            rank = f["rank"]
            ((rclock, src, sclock),) = f["ids"]
            self._el_log.setdefault(rank, {}).setdefault(rclock, (src, sclock))
            self._el_stores.setdefault((rank, rclock), set()).add(f["server"])
        elif kind == "v2.gc":
            self._on_gc(time, f)
        elif kind == "v2.ckpt":
            self._ckpt_hr[f["rank"]] = dict(f.get("hr", {}))
        elif kind == "store.commit":
            per = self._store_commits.setdefault((f["server"], f["rank"]), {})
            per[f["seq"]] = frozenset(f.get("digests", ()))
        elif kind == "store.quorum":
            rank, seq = f["rank"], f["seq"]
            if seq > self._store_quorum.get(rank, 0):
                self._store_quorum[rank] = seq
                # commits below the new floor are legitimately collectable
                for (server, r), per in self._store_commits.items():
                    if r == rank:
                        for s in [s for s in per if s < seq]:
                            del per[s]
        elif kind == "store.gc":
            self._on_store_gc(time, f)
        elif kind == "v2.restart":
            rank = f["rank"]
            self._incarnation[rank] = f.get("incarnation", 0)
            self._pending_el[rank] = deque()
            self._seen_ids[rank] = set()
            self._hb_pending_el.pop(rank, None)
        elif kind == "ft.fault":
            # the daemon died with its queues: nothing is pending any more
            self._pending_el[f["rank"]] = deque()
            self._hb_pending_el.pop(f["rank"], None)
        elif kind == "ft.global_restart":
            # logs and images are wiped: the old history constrains nothing
            self._el_log.clear()
            self._el_stores.clear()
            self._hist.clear()
            self._ckpt_hr.clear()
            self._pending_el.clear()
            self._seen_ids.clear()
            self._store_commits.clear()
            self._store_quorum.clear()
            self._hb_pending_el.clear()

    # -- rules -------------------------------------------------------------
    def _on_tx(self, time: float, f: dict) -> None:
        rank = f["rank"]
        if self.hb_graph:
            node = self._hb_add(rank, "tx", time, f)
            if f["pkt_kind"] not in ("cts", "control"):
                # a payload's id (sender, sclock): its deliveries link here
                self._tx_node[(rank, f["sclock"])] = node
        self._n_waitlogged += 1
        pending = self._pending_el.get(rank)
        if pending:
            # events logged at the same instant as the transmission
            # decision are benign (the daemon checked its gate first);
            # only a strictly earlier unacknowledged reception breaks
            # Definition 3
            stale = 0
            for t in pending:
                if t < time:
                    stale += 1
            if stale:
                self._flag(
                    time,
                    "waitlogged",
                    rank,
                    f"rank {rank} transmitted (sclock={f.get('sclock')}, "
                    f"dst={f.get('dst')}) with {stale} unacknowledged "
                    f"reception event(s)",
                    dst=f.get("dst"),
                    sclock=f.get("sclock"),
                    unacked=stale,
                )

    def _on_deliver(self, time: float, f: dict) -> None:
        rank, src = f["rank"], f["src"]
        sclock, rclock = f["sclock"], f["rclock"]
        mode = f.get("mode", "fresh")
        mid = (src, sclock)
        if self.hb_graph:
            node = self._hb_add(rank, "deliver", time, f)
            tx = self._tx_node.get(mid)
            if tx is not None:
                self._hb_edges.append((tx, node, "message"))
        # orphan: within one incarnation every message id is delivered once
        self._n_orphan += 1
        seen = self._seen_ids.get(rank)
        if seen is None:
            seen = self._seen_ids[rank] = set()
        if mid in seen:
            self._flag(
                time,
                "orphan",
                rank,
                f"rank {rank} (incarnation "
                f"{self._incarnation.get(rank, 0)}) delivered message "
                f"({src},{sclock}) twice at rclock {rclock}",
                src=src,
                sclock=sclock,
                rclock=rclock,
            )
        seen.add(mid)
        # replay order: re-executed deliveries must follow the logged order
        el_store = self._el_log.get(rank)
        expected_el = el_store.get(rclock) if el_store else None
        if mode != "fresh":
            self._n_replay += 1
            expected = expected_el
            if expected is None:
                hist = self._hist.get(rank)
                expected = hist.get(rclock) if hist else None
            if expected is not None and expected != mid:
                self._flag(
                    time,
                    "replay-order",
                    rank,
                    f"rank {rank} replayed rclock {rclock} as message "
                    f"({src},{sclock}) but the logged order expects "
                    f"({expected[0]},{expected[1]})",
                    src=src,
                    sclock=sclock,
                    rclock=rclock,
                    expected_src=expected[0],
                    expected_sclock=expected[1],
                )
        elif expected_el is not None and expected_el != mid:
            self._n_replay += 1
            self._flag(
                time,
                "replay-order",
                rank,
                f"rank {rank} delivered fresh message ({src},{sclock}) at "
                f"rclock {rclock} although the event logger holds "
                f"({expected_el[0]},{expected_el[1]}) for that clock",
                src=src,
                sclock=sclock,
                rclock=rclock,
                expected_src=expected_el[0],
                expected_sclock=expected_el[1],
            )
        hist = self._hist.get(rank)
        if hist is None:
            hist = self._hist[rank] = {}
        hist[rclock] = mid

    def _on_gc(self, time: float, f: dict) -> None:
        rank, peer, upto = f["rank"], f["peer"], f["upto"]
        self._n_gc += 1
        hr = self._ckpt_hr.get(peer)
        covered = hr.get(rank, 0) if hr else 0
        if upto > covered:
            self._flag(
                time,
                "gc-safety",
                rank,
                f"rank {rank} garbage-collected payloads for rank {peer} up "
                f"to sclock {upto}, but rank {peer}'s last checkpoint only "
                f"covers sclock {covered}",
                peer=peer,
                upto=upto,
                covered=covered,
            )

    def _on_store_gc(self, time: float, f: dict) -> None:
        server = f["server"]
        freed = set(f.get("digests", ()))
        self._n_store_gc += 1
        if not freed:
            return
        for rank, qs in self._store_quorum.items():
            per = self._store_commits.get((server, rank))
            protected = per.get(qs) if per else None
            if not protected:
                continue  # this replica never committed the quorum manifest
            lost = freed & protected
            if lost:
                self._flag(
                    time,
                    "store-gc",
                    rank,
                    f"store replica {server} reclaimed {len(lost)} chunk(s) "
                    f"still referenced by rank {rank}'s latest "
                    f"quorum-complete manifest (seq {qs})",
                    server=server,
                    seq=qs,
                    chunks=len(lost),
                )

    # -- helpers -----------------------------------------------------------
    def _flag(
        self, time: float, rule: str, rank: int, detail: str, **context: Any
    ) -> None:
        self.violations.append(Violation(time, rule, rank, detail, context))

    def _hb_add(self, rank: int, op: str, time: float, f: dict) -> int:
        node = len(self._hb_nodes)
        self._hb_nodes.append(
            {
                "id": node,
                "rank": rank,
                "op": op,
                "time": time,
                **{
                    k: f[k]
                    for k in ("src", "dst", "sclock", "rclock")
                    if k in f
                },
            }
        )
        prev = self._last_node.get(rank)
        if prev is not None:
            self._hb_edges.append((prev, node, "program"))
        self._last_node[rank] = node
        return node

    # -- reporting ---------------------------------------------------------
    def finish(self) -> AuditReport:
        """Detach (if attached) and build the final report."""
        self.detach()
        hb: Optional[dict[str, Any]] = None
        if self.hb_graph:
            hb = {
                "nodes": self._hb_nodes,
                "edges": [
                    {"from": a, "to": b, "kind": k}
                    for a, b, k in self._hb_edges
                ],
            }
        return AuditReport(
            violations=list(self.violations),
            checks={
                "waitlogged": self._n_waitlogged,
                "replay-order": self._n_replay,
                "orphan": self._n_orphan,
                "gc-safety": self._n_gc,
                "store-gc": self._n_store_gc,
                "el-quorum": self._n_quorum,
            },
            events_seen=self.events_seen,
            hb=hb,
        )
