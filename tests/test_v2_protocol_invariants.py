"""Trace-level checks of the pessimistic-logging protocol invariants.

Definition 3 of the paper: a protocol is pessimistic iff no message
reception more than one process depends on is un-re-executable — which
MPICH-V2 guarantees by never *emitting* a message while any local
reception event is unacknowledged by the event logger, and by keeping a
payload copy of every emitted message on the sender.

The invariant *checkers* live in :mod:`repro.obs.audit` (the online
protocol auditor); these tests drive them live via
``run_job(audit=True)``, plus a few direct scans of event-logger
contents the auditor does not see (server-side state).
"""


from repro.ft.failure import ExplicitFaults
from repro.runtime.mpirun import run_job


def traffic_prog(mpi, rounds=6):
    """A chatty all-pairs workload with compute gaps."""
    acc = float(mpi.rank)
    for r in range(rounds):
        reqs = []
        for off in (1, 2):
            peer = (mpi.rank + off) % mpi.size
            src = (mpi.rank - off) % mpi.size
            sreq = yield from mpi.isend(peer, nbytes=700, tag=r * 4 + off, data=acc)
            rreq = yield from mpi.irecv(source=src, tag=r * 4 + off)
            reqs += [sreq, rreq]
        yield from mpi.waitall(reqs)
        acc += sum(
            q.message.data for q in reqs if getattr(q, "message", None) is not None
        )
        yield from mpi.compute(seconds=0.005)
    out = yield from mpi.allreduce(value=round(acc, 6), nbytes=8)
    return round(out, 6)


def test_no_send_before_preceding_events_logged():
    """The WAITLOGGED gate: at every daemon transmission by rank p, every
    delivery p made strictly earlier is already acknowledged by the event
    logger (Section 4.5: "this information must be sent and acknowledged
    by the event logger before the node can... perform a send action").
    Checked by the live auditor."""
    res = run_job(traffic_prog, 4, device="v2", audit=True)
    report = res.audit
    assert report.count("waitlogged") == 0, report.violations
    assert report.checks["waitlogged"] > 10  # actually exercised
    assert report.clean


def test_every_delivery_has_a_logged_event():
    """Fault-free run: every remote delivery ends up on the event logger."""
    res = run_job(traffic_prog, 4, device="v2", trace=True)
    el = res.extras["event_loggers"][0]
    deliveries = {}
    for rec in res.tracer.records:
        if rec.kind == "adi.deliver" and rec["src"] != rec["rank"]:
            deliveries[rec["rank"]] = deliveries.get(rec["rank"], 0) + 1
    for rank, n in deliveries.items():
        stored = len(el.records_for(rank))
        # the simulation stops the instant the job completes: the very
        # last delivery's event may still be in flight to the logger (it
        # gates no further send, so the protocol does not need it yet)
        assert n - 1 <= stored <= n


def test_event_records_carry_unique_message_ids():
    res = run_job(traffic_prog, 4, device="v2", trace=True)
    el = res.extras["event_loggers"][0]
    for rank in range(4):
        recs = el.records_for(rank)
        ids = [(r.src, r.sclock) for r in recs]
        assert len(set(ids)) == len(ids)
        rclocks = [r.rclock for r in recs]
        assert rclocks == sorted(rclocks)
        assert rclocks == list(range(1, len(rclocks) + 1))


def test_saved_covers_all_unacked_receptions_of_peers():
    """Lemma 1's practical face: at any point, a message whose event is
    logged can be served from its sender's SAVED set (fault-free run,
    no checkpoint GC)."""
    res = run_job(traffic_prog, 4, device="v2", trace=True)
    el = res.extras["event_loggers"][0]
    disp = res.extras["dispatcher"]
    for rank in range(4):
        for rec in el.records_for(rank):
            sender = disp.states[rec.src].daemon
            assert sender.saved.has(rank, rec.sclock), (
                f"event ({rec.src}->{rank}, sclock={rec.sclock}) logged but "
                "not retrievable from the sender"
            )


def test_replayed_execution_emits_no_duplicate_events():
    """A replay re-logs nothing: each rank's event log still holds each
    message id exactly once, and the same *set* of messages as a clean
    run (live ranks may interleave deliveries differently after the
    fault — a different but equivalent execution — so only the sets are
    comparable, not the orders)."""
    clean = run_job(traffic_prog, 4, device="v2")
    el_clean = clean.extras["event_loggers"][0]
    faulty = run_job(
        traffic_prog, 4, device="v2", faults=ExplicitFaults([(0.01, 2)])
    )
    el_faulty = faulty.extras["event_loggers"][0]
    assert faulty.restarts == 1
    for rank in range(4):
        a = {(r.src, r.sclock) for r in el_clean.records_for(rank)}
        b = {(r.src, r.sclock) for r in el_faulty.records_for(rank)}
        assert len(b) == len(el_faulty.records_for(rank))  # no duplicates
        # same messages up to the in-flight tail at job end; the crashed
        # rank's re-executed sends may renumber post-crash messages, so
        # compare counts rather than exact ids beyond the logged prefix
        assert abs(len(a) - len(b)) <= 1


def test_duplicates_are_discarded_not_delivered():
    """Phase C: re-sent old messages are dropped by the HR watermark —
    the auditor's orphan rule (no message id delivered twice within one
    incarnation), checked live across a fault and recovery."""
    res = run_job(
        traffic_prog, 4, device="v2", audit=True,
        faults=ExplicitFaults([(0.01, 1)]),
    )
    assert res.restarts == 1
    assert res.audit.count("orphan") == 0, res.audit.violations
    assert res.audit.checks["orphan"] > 0
    assert res.audit.clean


def test_results_identical_under_fault(
):
    clean = run_job(traffic_prog, 4, device="v2")
    faulty = run_job(
        traffic_prog, 4, device="v2", faults=ExplicitFaults([(0.012, 3)])
    )
    assert faulty.results == clean.results
