"""Golden trace oracle: fault runs and a random-program corpus pinned
record for record.

The benchmark digests cover the metrics registry, not the order of
events; these hashes cover the whole trace stream — every record's
simulated time, kind and fields, in emission order — of four runs
that cross crash, restart, replay, replicated event loggers,
checkpointing and churn.  A refactor of order-sensitive plumbing (the
kernel, streams, the daemon's readers and forward) must leave them
unchanged.  The three class-S runs send no frame larger than a stream
window; the bulk run does nothing else: 256 KiB rendezvous DATA frames
both ways, each one 16 wire segments behind a 64 KiB window (one
``net.xfer`` record per segment), with a kill that lands while both
directions are parked mid-frame on credit.  The class-S values were
recorded before the daemon's reader and forward processes became
direct calls, the bulk one before a blocked frame stopped resuming its
writer per segment; all were confirmed under two ``PYTHONHASHSEED``
values.

The corpus runs six generated MPI programs (``CORPUS``) on P4, on V2
and on V2 with one rank killed mid-run.  Its hashes were recorded while
the kernel still had a closure-scheduling twin of its flat event
dispatch, and were identical under both dispatch paths and under two
``PYTHONHASHSEED`` values: they pin the one kernel to the reference
that twin used to be.
"""

import hashlib
from functools import partial

import pytest

from repro.ft.failure import ChurnFaults, ExplicitFaults
from repro.runtime.config import DEFAULT_TESTBED
from repro.runtime.mpirun import run_job
from repro.workloads import nas
from repro.workloads.synthetic import burst_pingpong
from tests.test_random_programs import NPROCS, make_program


def trace_hash(res) -> tuple[str, int]:
    """First 12 hex digits of SHA-256 over every record, and the count."""
    digest = hashlib.sha256()
    n = 0
    for rec in res.tracer:
        digest.update(
            repr((rec.time, rec.kind, sorted(rec.fields.items()))).encode()
        )
        n += 1
    return digest.hexdigest()[:12], n


def _cg_s4(**kw):
    return run_job(nas.KERNELS["cg"].program, 4, device="v2",
                   params={"klass": "S"}, seed=1, trace=True, limit=1e6, **kw)


RUNS = {
    "cg-s4-two-kills": (
        lambda: _cg_s4(faults=ExplicitFaults([(0.05, 1), (0.12, 3)])),
        ("2b0b98b95e61", 78_407),
    ),
    "cg-s4-replicated-el": (
        lambda: _cg_s4(
            cfg=DEFAULT_TESTBED.with_(el_servers=2, el_replicas=3),
            faults=ExplicitFaults([(0.08, 2)]),
        ),
        ("fb08eab05336", 129_811),
    ),
    "bt-s4-ckpt-churn": (
        lambda: run_job(
            nas.KERNELS["bt"].program, 4, device="v2", params={"klass": "S"},
            seed=2, trace=True, limit=1e6,
            checkpointing=True, ckpt_interval=0.05,
            faults=ChurnFaults(seed=3, mean_lifetime=0.2, shape=0.7,
                               max_faults=3),
        ),
        ("b9462474a2a8", 29_885),
    ),
    "burst-256k-ckpt-kill-mid-frame": (
        lambda: run_job(
            burst_pingpong, 2, device="v2",
            params={"nbytes": 256 * 1024, "reps": 3, "warmup": 0},
            seed=1, trace=True, limit=1e6,
            checkpointing=True, ckpt_interval=0.1,
            faults=ExplicitFaults([(0.3, 1)]),
        ),
        ("f90a1ffdd86f", 2_375),
    ),
}

#: six programs over ``test_random_programs``'s step vocabulary, drawn
#: once from ``random.Random(25)`` (3-8 steps each) and kept literal
CORPUS = [
    [("scan", 0, 8), ("scan", 0, 8), ("scan", 0, 8), ("shift", 1, 3829),
     ("scan", 0, 8), ("allreduce", 0, 8)],
    [("bcast", 0, 886), ("scan", 0, 8), ("allreduce", 0, 8),
     ("shift", 2, 2329), ("bcast", 0, 610), ("scan", 0, 8),
     ("shift", 3, 2828), ("compute", 27, 0)],
    [("gather_any", 2, 8), ("scan", 0, 8), ("pair", 1, 1068),
     ("bcast", 0, 912)],
    [("compute", 4, 0), ("gather_any", 2, 8), ("bcast", 2, 201),
     ("compute", 6, 0), ("gather_any", 3, 8), ("shift", 1, 1668),
     ("gather_any", 0, 8), ("gather_any", 1, 8)],
    [("shift", 3, 720), ("shift", 3, 920), ("scan", 0, 8),
     ("bcast", 3, 454), ("scan", 0, 8), ("bcast", 3, 460),
     ("shift", 2, 1174), ("pair", 0, 852)],
    [("compute", 15, 0), ("shift", 2, 3856), ("pair", 1, 1281),
     ("gather_any", 2, 8), ("shift", 1, 526), ("shift", 1, 2819)],
]

#: per program: p4, v2, and v2 with rank ``i % NPROCS`` killed at half
#: the fault-free elapsed (every one of those restarts once)
CORPUS_HASHES = [
    (("64c4e9dbc02d", 96), ("7bbc534b6372", 428), ("20bf6d850255", 509)),
    (("372a0223ef17", 96), ("c34ccce06d7f", 429), ("7743a4040e96", 528)),
    (("5249a92386ce", 62), ("6d6f38f685a2", 277), ("45b234407a2c", 370)),
    (("fa5ee7854c58", 70), ("02e6dd0731e2", 313), ("0213cc9f2fbf", 382)),
    (("f6831f34c560", 96), ("ab057effc8ca", 433), ("f6853b0959ad", 515)),
    (("5c8d56bce6b5", 70), ("c890ed08daf6", 315), ("69d0c6336eeb", 382)),
]


def _corpus_run(schedule, device, victim=None):
    prog = make_program(schedule)
    res = run_job(prog, NPROCS, device=device, trace=True, limit=3600.0)
    if victim is None:
        return res
    return run_job(
        prog, NPROCS, device=device, trace=True, limit=3600.0,
        faults=ExplicitFaults([(res.elapsed / 2, victim)]),
    )


for _i, (_sched, (_p4, _v2, _kill)) in enumerate(zip(CORPUS, CORPUS_HASHES)):
    RUNS[f"corpus{_i}-p4"] = (partial(_corpus_run, _sched, "p4"), _p4)
    RUNS[f"corpus{_i}-v2"] = (partial(_corpus_run, _sched, "v2"), _v2)
    RUNS[f"corpus{_i}-v2-kill-half"] = (
        partial(_corpus_run, _sched, "v2", _i % NPROCS), _kill
    )


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trace_matches_golden_hash(name):
    run, expected = RUNS[name]
    assert trace_hash(run()) == expected


def test_untraced_bulk_kill_mid_frame_matches_golden_digest():
    """The bulk run untraced, as benchmark runs are: no trace to hash, so
    the digest covers what the benchmark's does — elapsed time, results,
    restarts and the whole metrics registry."""
    res = run_job(
        burst_pingpong, 2, device="v2",
        params={"nbytes": 256 * 1024, "reps": 3, "warmup": 0},
        seed=1, limit=1e6, checkpointing=True, ckpt_interval=0.1,
        faults=ExplicitFaults([(0.3, 1)]),
    )
    assert not res.tracer.hot
    registry = sorted(res.metrics.snapshot().items())
    digest = hashlib.blake2b(
        repr((res.elapsed, res.results, res.restarts, registry)).encode(),
        digest_size=16,
    ).hexdigest()
    assert digest == "cc1c4f50f44a6e11df9753af9ec263c6"
