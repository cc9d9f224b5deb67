"""Figure 8: execution-time breakdown of CG-A and BT-B on P4 / V1 / V2.

Paper: computation times are the same for all three implementations; the
CG communication time "increases dramatically" under both logging
protocols (V1 beats V2 there thanks to its lower small-message latency);
for BT-B the V2 communication time beats both P4 and V1.  MPICH-V1 uses
one Channel Memory per four computing nodes (9 reliable nodes at p=32
versus 1 for V2).
"""

import pytest

from repro.analysis.metrics import breakdown
from repro.analysis.report import Report
from repro.runtime.mpirun import run_job
from repro.workloads import nas

from conftest import full_sweep, record_report


def run_fig8():
    configs = [("cg", "A", 8), ("bt", "B" if full_sweep() else "A", 9)]
    out = {}
    for name, klass, p in configs:
        prog = nas.KERNELS[name].program
        for dev in ("p4", "v1", "v2"):
            res = run_job(prog, p, device=dev, params={"klass": klass}, limit=1e7)
            out[(name, klass, p, dev)] = breakdown(res)
    return configs, out


def bench_fig8_breakdown():
    configs, out = run_fig8()
    rows = []
    for name, klass, p in configs:
        for dev in ("p4", "v1", "v2"):
            b = out[(name, klass, p, dev)]
            rows.append(
                [f"{name.upper()}-{klass}-{p}", dev.upper(), b["elapsed"],
                 b["compute"], b["comm"]]
            )
    rep = Report("Figure 8 - execution time breakdown (seconds)")
    rep.table(["benchmark", "MPI", "total", "compute", "comm"], rows)
    rep.add(
        "paper: identical compute across implementations; CG comm blows up "
        "under both logging protocols (V1 < V2 there); BT comm best on V2"
    )
    record_report(rep)

    (cg_name, cg_k, cg_p) = configs[0]
    (bt_name, bt_k, bt_p) = configs[1]
    cg = {d: out[(cg_name, cg_k, cg_p, d)] for d in ("p4", "v1", "v2")}
    bt = {d: out[(bt_name, bt_k, bt_p, d)] for d in ("p4", "v1", "v2")}
    # compute identical across devices (within the daemon CPU tax)
    for b in (cg, bt):
        ref = b["p4"]["compute"]
        for d in ("v1", "v2"):
            assert b[d]["compute"] == pytest.approx(ref, rel=0.15)
    # CG: both fault-tolerant protocols pay on communication
    assert cg["v2"]["comm"] > 1.1 * cg["p4"]["comm"]
    assert cg["v1"]["comm"] > cg["p4"]["comm"]
    # BT: V2's communication beats P4's and V1's
    assert bt["v2"]["comm"] < bt["p4"]["comm"]
    assert bt["v2"]["comm"] < bt["v1"]["comm"]
