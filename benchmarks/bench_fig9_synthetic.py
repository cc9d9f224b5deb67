"""Figure 9: the BT/SP-like synthetic nonblocking burst benchmark.

Paper: "Excepted for small messages where the higher latency of MPICH-V2
is predominant, MPICH-V2 performs better for non-blocking communications
than MPICH-P4, reaching twice the P4 bandwidth for 64 KB messages" — the
V2 daemon drains incoming chunks between transmissions (full duplex),
the P4 driver does not.
"""

from repro.analysis.report import Report
from repro.workloads.synthetic import measure

from conftest import full_sweep, record_report

SIZES_DEFAULT = [1024, 4096, 16384, 65536, 131072]
SIZES_FULL = [256, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072]


def run_fig9():
    sizes = SIZES_FULL if full_sweep() else SIZES_DEFAULT
    rows = []
    ratio = {}
    for nbytes in sizes:
        p4 = measure("p4", nbytes, reps=4)["bandwidth_MBps"]
        v2 = measure("v2", nbytes, reps=4)["bandwidth_MBps"]
        rows.append([nbytes, p4, v2, v2 / p4])
        ratio[nbytes] = v2 / p4
    return rows, ratio


def bench_fig9_synthetic():
    rows, ratio = run_fig9()
    rep = Report("Figure 9 - nonblocking burst bandwidth (MB/s per direction)")
    rep.table(["bytes", "P4", "V2", "V2/P4"], rows)
    rep.add(
        "paper: V2 below P4 for small messages, crossover in the few-KB "
        "range, V2 ~2x P4 at 64 KB (full-duplex daemon vs starved driver)"
    )
    record_report(rep)
    assert ratio[1024] < 1.0  # small messages: V2's latency dominates
    assert ratio[65536] > 1.7  # the paper's headline 2x
    assert ratio[131072] > 1.5
