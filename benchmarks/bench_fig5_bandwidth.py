"""Figure 5: ping-pong bandwidth comparison (MPICH-P4 / V1 / V2).

Paper: P4 reaches 11.3 MB/s for large messages, MPICH-V2 10.7 MB/s
(slightly slower, "always close to MPICH-P4"), MPICH-V1 "down to two
times slower" because every payload crosses a Channel Memory.
"""

import pytest

from repro.analysis.report import Report
from repro.workloads.pingpong import measure

from conftest import full_sweep, record_report

SIZES_DEFAULT = [4096, 65536, 262144, 1048576, 4194304]
SIZES_FULL = [1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216]


def run_fig5():
    sizes = SIZES_FULL if full_sweep() else SIZES_DEFAULT
    rows = []
    peak = {}
    for nbytes in sizes:
        cells = [nbytes]
        for dev in ("p4", "v1", "v2"):
            bw = measure(dev, nbytes, reps=4)["bandwidth_MBps"]
            cells.append(bw)
            peak[dev] = max(peak.get(dev, 0.0), bw)
        rows.append(cells)
    return rows, peak


def bench_fig5_bandwidth():
    rows, peak = run_fig5()
    rep = Report("Figure 5 - ping-pong bandwidth (MB/s)")
    rep.table(["bytes", "P4", "V1", "V2"], rows)
    rep.add(
        f"peak: P4={peak['p4']:.2f}  V1={peak['v1']:.2f}  V2={peak['v2']:.2f} MB/s\n"
        "paper: P4=11.3, V2=10.7 (~95% of P4), V1 about half of P4"
    )
    record_report(rep)
    # shape assertions
    assert peak["p4"] == pytest.approx(11.3, rel=0.05)
    assert 0.88 * peak["p4"] <= peak["v2"] < peak["p4"]
    assert peak["v1"] == pytest.approx(peak["p4"] / 2, rel=0.2)
