"""The online protocol auditor: clean runs pass, seeded violations fail.

Mutation-tests the auditor the only way a checker can be trusted: seed
each protocol violation deliberately (one production method patched for
the length of the test — the ``sabotage_*`` seams below, one per rule)
and assert the auditor names the offending rank.  Also covers the
happens-before graph and the auditor's per-message retention.
"""

import pytest

from repro.core.el_client import EventLogClient
from repro.core.peers import PeerManager
from repro.core.replay import ReplayState
from repro.ft.failure import ExplicitFaults
from repro.obs.audit import ProtocolAuditor
from repro.runtime.mpirun import run_job
from repro.simnet.trace import Tracer
from repro.store.replica import StoreReplica


def traffic_prog(mpi, rounds=6):
    """A chatty all-pairs workload with compute gaps (the same shape as
    the protocol-invariant tests use)."""
    acc = float(mpi.rank)
    for r in range(rounds):
        reqs = []
        for off in (1, 2):
            peer = (mpi.rank + off) % mpi.size
            src = (mpi.rank - off) % mpi.size
            sreq = yield from mpi.isend(
                peer, nbytes=700, tag=r * 4 + off, data=acc
            )
            rreq = yield from mpi.irecv(source=src, tag=r * 4 + off)
            reqs += [sreq, rreq]
        yield from mpi.waitall(reqs)
        acc += sum(
            q.message.data
            for q in reqs
            if getattr(q, "message", None) is not None
        )
        yield from mpi.compute(seconds=0.005)
    out = yield from mpi.allreduce(value=round(acc, 6), nbytes=8)
    return round(out, 6)


# -- clean runs -------------------------------------------------------------

def test_clean_fault_and_recovery_run_audits_clean():
    """The acceptance scenario: a run with faults, checkpoints, replay
    and GC reports zero violations, with every rule exercised."""
    res = run_job(
        traffic_prog, 4, device="v2", audit=True,
        checkpointing=True, ckpt_interval=0.02,
        faults=ExplicitFaults([(0.03, 2)]),
    )
    rep = res.audit
    assert res.restarts >= 1
    assert rep.verdict == "clean" and rep.clean
    assert not rep.violations
    assert rep.checks["waitlogged"] > 0
    assert rep.checks["orphan"] > 0
    assert rep.checks["replay-order"] > 0  # the restart actually replayed
    assert rep.events_seen > 100


def test_audit_available_on_non_v2_devices():
    """p4 emits no V2 protocol events: the audit attaches, sees nothing,
    and reports trivially clean (the flag is device-uniform)."""
    res = run_job(traffic_prog, 2, device="p4", audit=True)
    assert res.audit is not None
    assert res.audit.clean
    assert res.audit.events_seen == 0


def test_audit_off_by_default():
    res = run_job(traffic_prog, 2, device="v2")
    assert res.audit is None


# -- seeded violations (mutation coverage) ----------------------------------
# One seam per auditor rule (the table in DESIGN.md): each helper swaps
# one production method for a faulty one until the test ends.

def sabotage_waitlogged(monkeypatch):
    """Sends skip the pessimistic gate entirely."""
    def wait_sendable(self):
        return
        yield

    monkeypatch.setattr(EventLogClient, "wait_sendable", wait_sendable)


def sabotage_replay_order(monkeypatch):
    """Replayed packets go up in arrival order, not logged order."""
    monkeypatch.setattr(ReplayState, "offer_packet", lambda self, pkt: [pkt])


def sabotage_gc(monkeypatch):
    """GC orders reach 5 clocks past the checkpoint's coverage."""
    enqueue_ctrl = PeerManager.enqueue_ctrl

    def past_coverage(self, dst, ctrl):
        if ctrl[0] == "GC":
            ctrl = ("GC", ctrl[1] + 5)
        enqueue_ctrl(self, dst, ctrl)

    monkeypatch.setattr(PeerManager, "enqueue_ctrl", past_coverage)


def sabotage_store_gc(monkeypatch):
    """Replicas reclaim one sequence past the scheduler's quorum epoch."""
    collect = StoreReplica._collect
    monkeypatch.setattr(
        StoreReplica, "_collect",
        lambda self, keep: collect(
            self, {rank: floor + 1 for rank, floor in keep.items()}
        ),
    )


def sabotage_quorum(monkeypatch):
    """The gate clears the moment an event is queued, before any replica
    stored it."""
    fan_out = EventLogClient._fan_out

    def ack_at_queue_time(self, rec):
        for rep in self.replicas:
            rep.acked = rec.rclock
        self._release()
        fan_out(self, rec)

    monkeypatch.setattr(EventLogClient, "_fan_out", ack_at_queue_time)


def test_mutations_keyword_is_gone():
    with pytest.raises(TypeError, match="mutations"):
        run_job(traffic_prog, 2, device="v2", mutations=frozenset())


def test_mutation_bypass_waitlogged_is_flagged(monkeypatch):
    sabotage_waitlogged(monkeypatch)
    res = run_job(traffic_prog, 4, device="v2", audit=True)
    rep = res.audit
    assert rep.verdict == "violations"
    assert rep.count("waitlogged") > 0
    v = next(x for x in rep.violations if x.rule == "waitlogged")
    assert v.rank in range(4)
    assert f"rank {v.rank} transmitted" in v.detail
    assert "unacknowledged" in v.detail
    assert v.context["unacked"] >= 1


def test_mutation_reorder_replay_is_flagged(monkeypatch):
    sabotage_replay_order(monkeypatch)
    res = run_job(
        traffic_prog, 4, device="v2", audit=True,
        faults=ExplicitFaults([(0.01, 2)]),
    )
    rep = res.audit
    assert res.restarts >= 1
    assert rep.verdict == "violations"
    assert rep.count("replay-order") > 0
    v = next(x for x in rep.violations if x.rule == "replay-order")
    assert v.rank == 2  # the crashed (replaying) rank
    assert "logged order" in v.detail
    assert "expected_src" in v.context and "rclock" in v.context


def test_mutation_premature_gc_is_flagged(monkeypatch):
    sabotage_gc(monkeypatch)
    res = run_job(
        traffic_prog, 4, device="v2", params={"rounds": 40}, audit=True,
        checkpointing=True, ckpt_continuous=True,
    )
    rep = res.audit
    assert res.checkpoints > 0
    assert rep.verdict == "violations"
    assert rep.count("gc-safety") > 0
    v = next(x for x in rep.violations if x.rule == "gc-safety")
    assert "garbage-collected" in v.detail
    assert f"rank {v.context['peer']}'s last checkpoint" in v.detail
    assert v.context["upto"] > v.context["covered"]


def test_mutation_premature_store_gc_is_flagged(monkeypatch):
    """A replica that garbage-collects one sequence past the scheduler's
    quorum epoch reclaims chunks of a latest quorum-complete manifest —
    the ``store-gc`` rule must catch the reclaim on that replica."""
    from repro.runtime.config import DEFAULT_TESTBED

    sabotage_store_gc(monkeypatch)
    cfg = DEFAULT_TESTBED.with_(
        ckpt_servers=3, ckpt_replicas=2, ckpt_incremental=True
    )
    res = run_job(
        traffic_prog, 4, device="v2", cfg=cfg, params={"rounds": 40},
        audit=True,
        checkpointing=True, ckpt_continuous=True,
    )
    rep = res.audit
    assert res.checkpoints > 0
    assert rep.verdict == "violations"
    assert rep.count("store-gc") > 0
    v = next(x for x in rep.violations if x.rule == "store-gc")
    assert "reclaimed" in v.detail and "quorum-complete" in v.detail
    assert v.context["server"].startswith("cs:")
    assert v.context["chunks"] >= 1


def test_mutation_bypass_quorum_is_flagged(monkeypatch):
    """A batcher that clears the WAITLOGGED gate at queue time — before
    any replica stored the events — must trip the ``el-quorum`` rule."""
    from repro.runtime.config import DEFAULT_TESTBED

    sabotage_quorum(monkeypatch)
    cfg = DEFAULT_TESTBED.with_(el_replicas=3)
    res = run_job(traffic_prog, 4, device="v2", cfg=cfg, audit=True)
    rep = res.audit
    assert rep.verdict == "violations"
    assert rep.count("el-quorum") > 0
    v = next(x for x in rep.violations if x.rule == "el-quorum")
    assert v.rank in range(4)
    assert "WAITLOGGED gate cleared rclock" in v.detail
    assert "replica store(s)" in v.detail
    assert v.context["quorum"] == 2  # majority of 3
    assert v.context["stored"] < v.context["quorum"]


def test_unmutated_twin_of_each_mutation_run_is_clean():
    """The mutation runs above differ from clean runs only by the seeded
    sabotage: the same configurations left unpatched audit clean."""
    from repro.runtime.config import DEFAULT_TESTBED

    a = run_job(traffic_prog, 4, device="v2", audit=True)
    b = run_job(
        traffic_prog, 4, device="v2", audit=True,
        faults=ExplicitFaults([(0.01, 2)]),
    )
    c = run_job(
        traffic_prog, 4, device="v2", params={"rounds": 40}, audit=True,
        checkpointing=True, ckpt_continuous=True,
    )
    d = run_job(
        traffic_prog, 4, device="v2",
        cfg=DEFAULT_TESTBED.with_(
            ckpt_servers=3, ckpt_replicas=2, ckpt_incremental=True
        ),
        params={"rounds": 40}, audit=True,
        checkpointing=True, ckpt_continuous=True,
    )
    e = run_job(
        traffic_prog, 4, device="v2",
        cfg=DEFAULT_TESTBED.with_(el_replicas=3), audit=True,
    )
    assert e.audit.checks["el-quorum"] > 0  # the rule actually evaluated
    for res in (a, b, c, d, e):
        assert res.audit.clean, res.audit.violations
        assert res.audit.checks["store-gc"] >= 0


def test_finish_really_unsubscribes_the_auditor():
    """``detach`` passes a freshly bound ``self.observe``; an identity
    comparison in ``Tracer.unsubscribe`` never matched it, so finished
    auditors stayed subscribed (and their tracers hot) for good."""
    t = Tracer(enabled=False)
    auditor = ProtocolAuditor().attach(t)
    assert t.hot and len(t._subs) == 1
    rep = auditor.finish()
    assert not t._subs and not t.hot and t._interest == frozenset()
    t.emit(1.0, "v2.log_event", rank=0, rclock=1, src=1, sclock=1)
    assert auditor.events_seen == rep.events_seen == 0


def test_auditor_retains_little_per_message():
    """What a long run costs the auditor: a synthetic 64-rank stream of
    20 000 messages (tx, deliver, log_event, el.store, el_ack at quorum
    1) may leave at most 400 bytes per message behind.  A send-time
    vector clock per message (~1.3-3 kB at 64 ranks) or an EL replica
    set kept past its ack (~300 B) breaks the bound."""
    import gc
    import tracemalloc

    nranks, n = 64, 20_000
    sclock, rclock = [0] * nranks, [0] * nranks
    gc.collect()
    tracemalloc.start()
    try:
        auditor = ProtocolAuditor()
        base = tracemalloc.get_traced_memory()[0]
        t = 0.0
        for i in range(n):
            src = i % nranks
            dst = (src + 1 + (i // nranks) % (nranks - 1)) % nranks
            sclock[src] += 1
            rclock[dst] += 1
            s, r = sclock[src], rclock[dst]
            t += 1e-6
            auditor.observe(t, "v2.tx", {
                "rank": src, "dst": dst, "sclock": s, "pkt_kind": "eager",
            })
            auditor.observe(t, "v2.deliver", {
                "rank": dst, "src": src, "sclock": s, "rclock": r,
                "mode": "fresh",
            })
            auditor.observe(t, "v2.log_event", {
                "rank": dst, "src": src, "sclock": s, "rclock": r,
            })
            auditor.observe(t, "el.store", {
                "rank": dst, "n": 1, "server": "el0", "shard": 0,
                "ids": ((r, src, s),),
            })
            auditor.observe(t, "v2.el_ack", {
                "rank": dst, "n": 1, "outstanding": 0, "ids": (r,),
                "quorum": 1,
            })
        gc.collect()
        per_msg = (tracemalloc.get_traced_memory()[0] - base) / n
    finally:
        tracemalloc.stop()
    rep = auditor.finish()
    assert rep.clean and rep.checks["waitlogged"] == rep.checks["orphan"] == n
    assert per_msg <= 400, f"{per_msg:.0f} B retained per message"


# -- happens-before graph ---------------------------------------------------

def test_happens_before_graph_links_sends_to_deliveries():
    res = run_job(
        traffic_prog, 4, device="v2", audit=True, audit_hb=True,
    )
    hb = res.audit.hb
    assert hb is not None and hb["nodes"] and hb["edges"]
    nodes = {n["id"]: n for n in hb["nodes"]}
    msg_edges = [e for e in hb["edges"] if e["kind"] == "message"]
    assert msg_edges
    for e in msg_edges:
        tx, dv = nodes[e["from"]], nodes[e["to"]]
        # a message edge lands on the reception event: the logging of
        # the receive (v2) or the delivery itself
        assert tx["op"] == "tx" and dv["op"] in ("deliver", "log_event")
        assert tx["rank"] == dv["src"]  # the edge follows the message
        # causality: the send precedes its reception in simulated time
        # and in the order the auditor saw the events
        assert tx["time"] <= dv["time"]
        assert tx["id"] < dv["id"]
    assert any(nodes[e["to"]]["op"] == "deliver" for e in msg_edges)
    assert any(nodes[e["to"]]["op"] == "log_event" for e in msg_edges)
    # program-order edges stay within one rank
    for e in hb["edges"]:
        if e["kind"] == "program":
            assert nodes[e["from"]]["rank"] == nodes[e["to"]]["rank"]


def test_hb_graph_off_by_default():
    res = run_job(traffic_prog, 2, device="v2", audit=True)
    assert res.audit.hb is None
    with pytest.raises(KeyError):
        _ = res.audit.to_dict()["happens_before"]


# -- report plumbing --------------------------------------------------------

def test_report_to_dict_roundtrips_json(monkeypatch):
    import json

    sabotage_waitlogged(monkeypatch)
    res = run_job(traffic_prog, 4, device="v2", audit=True)
    doc = json.loads(json.dumps(res.audit.to_dict()))
    assert doc["verdict"] == "violations"
    assert doc["violations"][0]["rule"] == "waitlogged"
    assert doc["checks"]["waitlogged"] > 0


def test_format_audit_names_ranks_and_clocks(monkeypatch):
    from repro.analysis.report import format_audit

    sabotage_waitlogged(monkeypatch)
    res = run_job(traffic_prog, 4, device="v2", audit=True)
    text = format_audit(res.audit)
    assert "audit verdict: violations" in text
    assert "waitlogged" in text
    v = res.audit.violations[0]
    assert f"rank {v.rank} transmitted" in text
    header = next(ln for ln in text.splitlines() if "detail" in ln)
    assert header.split() == ["time", "s", "rule", "rank", "detail"]
    row = next(ln for ln in text.splitlines() if v.detail in ln)
    assert row.split()[1:3] == ["waitlogged", str(v.rank)]
    assert format_audit(None) == "(no audit: run with audit=True)"
