"""Golden trace oracle: four V2 fault runs pinned record for record.

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
"""

import hashlib

import pytest

from repro.ft.failure import ChurnFaults, ExplicitFaults
from repro.runtime.config import DEFAULT_TESTBED
from repro.runtime.mpirun import run_job
from repro.workloads import nas
from repro.workloads.synthetic import burst_pingpong


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


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trace_matches_golden_hash(name):
    run, expected = RUNS[name]
    assert trace_hash(run()) == expected
