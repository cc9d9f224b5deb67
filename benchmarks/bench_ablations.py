"""Ablations of the design choices DESIGN.md calls out.

Not figures from the paper, but quantifications of its design arguments:

* **event-logger scaling** — "For scalability reasons, several event
  loggers may be used in a system": the EL is a shared contention point,
  so the latency-bound CG kernel speeds up with more loggers;
* **log slab size** — the slab-allocated message log is what turns LU's
  modest payload volume into a disk-spilling 1 GB (DESIGN.md note 5);
* **collective latency per device** — the per-collective cost behind the
  CG/MG penalty of Figure 7.
"""

from repro.analysis.report import Report
from repro.runtime.config import DEFAULT_TESTBED
from repro.runtime.mpirun import run_job
from repro.workloads import nas
from repro.workloads.collect import collective_bench

from conftest import record_report


def bench_event_logger_scaling():
    rows = []
    out = {}
    for n_el in (1, 2, 4):
        res = run_job(
            nas.cg.program, 16, device="v2", params={"klass": "A"},
            cfg=DEFAULT_TESTBED.with_(el_servers=n_el), limit=1e6,
        )
        rows.append([n_el, res.elapsed])
        out[n_el] = res.elapsed
    rep = Report("Ablation - event loggers for CG-A-16 (V2)")
    rep.table(["event loggers", "elapsed s"], rows)
    rep.add(
        "the paper: 'For scalability reasons, several event loggers may be "
        "used' -- the shared EL serializes event handling, so the "
        "latency-bound kernel gains from spreading ranks across loggers"
    )
    record_report(rep)
    assert out[4] < out[1]


def bench_log_slab_size():
    rows = []
    out = {}
    for slab in (1, 8 << 10, 24 << 10):
        cfg = DEFAULT_TESTBED.with_(log_slab_bytes=slab)
        res = run_job(
            nas.lu.program, 8, device="v2", params={"klass": "A"},
            cfg=cfg, limit=1e7,
        )
        disp = res.extras["dispatcher"]
        disk = max(
            disp.states[r].daemon.saved.bytes_on_disk for r in range(8)
        )
        rows.append([slab, res.elapsed, disk / 1e6])
        out[slab] = res.elapsed
    rep = Report("Ablation - message-log slab size for LU-A-8 (V2)")
    rep.table(["slab bytes", "elapsed s", "max disk MB"], rows)
    rep.add(
        "with byte-exact accounting (slab=1) LU's 40 MB payload stream "
        "never spills and runs at P4 speed; slab allocation is what pushes "
        "the log into swap and reproduces the paper's LU collapse"
    )
    record_report(rep)
    assert out[24 << 10] > 1.5 * out[1]


def bench_collective_latency():
    OPS = ("barrier", "bcast", "allreduce", "alltoall")

    rows = []
    out = {}
    barrier_cost = {}
    for dev in ("p4", "v1", "v2"):
        res = run_job(
            collective_bench, 8, device=dev,
            params={"op": "barrier", "nbytes": 64, "reps": 10}, limit=1e6,
        )
        barrier_cost[dev] = max(res.results)
    for op in OPS:
        cells = [op]
        for dev in ("p4", "v1", "v2"):
            if op == "barrier":
                t = barrier_cost[dev] * 1e6
            else:
                # fence the reps so rooted collectives measure latency,
                # then remove the fence's own cost
                res = run_job(
                    collective_bench, 8, device=dev,
                    params={"op": op, "nbytes": 64, "reps": 10,
                            "fenced": True},
                    limit=1e6,
                )
                t = (max(res.results) - barrier_cost[dev]) * 1e6
            cells.append(t)
            out[(op, dev)] = t
        rows.append(cells)
    rep = Report("Ablation - small collective latency, 8 ranks (us)")
    rep.table(["collective", "P4", "V1", "V2"], rows)
    rep.add(
        "every tree stage pays the per-message fault-tolerance cost: the "
        "V2/P4 gap per collective is the amplification factor behind the "
        "CG and MG results of Figure 7"
    )
    record_report(rep)
    for op in OPS:
        assert out[(op, "v2")] > out[(op, "p4")]


def bench_grid_event_logger_placement():
    """Grid deployments (the paper's future work): every reception event
    crosses the CN-to-EL path before the next send may leave, so a
    wide-area event logger multiplies V2's per-message cost.  Placing one
    logger per site recovers almost all of it."""
    from repro.runtime.mpirun import run_job
    from repro.runtime.progfile import parse_progfile
    from repro.workloads.token_ring import token_ring

    REMOTE_EL = """
a1 CN site=alpha
b1 CN site=beta
a2 CN site=alpha
b2 CN site=beta
fe EL site=alpha
st CS site=alpha
"""
    # ranks alternate sites; rank %% 2 maps odd ranks to the beta logger
    PER_SITE_EL = REMOTE_EL.replace(
        "fe EL site=alpha", "fe EL site=alpha\nfb EL site=beta"
    )
    LOCAL = """
a1 CN site=alpha
b1 CN site=alpha
a2 CN site=alpha
b2 CN site=alpha
fe EL site=alpha
st CS site=alpha
"""

    params = {"rounds": 150, "nbytes": 2048}
    rows = []
    out = {}
    for label, text in (("single cluster", LOCAL),
                        ("grid, remote EL", REMOTE_EL),
                        ("grid, EL per site", PER_SITE_EL)):
        res = run_job(token_ring, 4, device="v2",
                      plan=parse_progfile(text), limit=1e6)
        rows.append([label, res.elapsed])
        out[label] = res.elapsed
    rep = Report("Ablation - Grid deployment: event-logger placement")
    rep.table(["deployment", "ring time s"], rows)
    rep.add(
        "the WAITLOGGED gate makes every reception pay the CN->EL round "
        "trip before the node's next send: a wide-area logger multiplies "
        "V2's latency cost; one logger per site recovers most of it "
        "(the paper: 'several event loggers may be used in a system')"
    )
    record_report(rep)
    assert out["grid, remote EL"] > 1.5 * out["single cluster"]
    assert out["grid, EL per site"] < out["grid, remote EL"]
