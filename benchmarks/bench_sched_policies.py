"""Section 4.6.2: round-robin vs adaptive checkpoint scheduling.

The paper: "We have built a simulator and have compared the two policies
with classical communication schemes (point to point, synchronous all to
all, broadcasts and reduces). The comparison demonstrates that the
adaptive algorithm never provides a worse scheduling (w.r.t. bandwidth
utilization) and often provides better (up to n times better, n being
the number of computing nodes for asynchronous broadcast)."
"""

from repro.analysis.report import Report
from repro.sched import SCHEMES, scheme, simulate

from conftest import full_sweep, record_report

NS = [8, 16, 32] if not full_sweep() else [4, 8, 16, 32, 64]


def run_sched():
    rows = []
    ratios = {}
    for n in NS:
        for name in sorted(SCHEMES):
            sc = scheme(name, n, rate=2e6)
            rr = simulate(sc, "round_robin", footprint=4e6)
            ad = simulate(sc, "adaptive", footprint=4e6)
            ratio = rr.ckpt_bandwidth / ad.ckpt_bandwidth
            rows.append(
                [name, n, rr.ckpt_bandwidth / 1e6, ad.ckpt_bandwidth / 1e6,
                 ratio, rr.peak_log / 1e6, ad.peak_log / 1e6]
            )
            ratios[(name, n)] = ratio
    return rows, ratios


def bench_sched_policies():
    rows, ratios = run_sched()
    rep = Report("Section 4.6.2 - checkpoint scheduling policies")
    rep.table(
        ["scheme", "n", "RR bw MB/s", "AD bw MB/s", "RR/AD",
         "RR peak MB", "AD peak MB"],
        rows,
    )
    rep.add(
        "paper: adaptive never worse (w.r.t. bandwidth utilization), up to "
        "n times better for asynchronous broadcast"
    )
    record_report(rep)
    # never worse, on any scheme at any size
    for (name, n), ratio in ratios.items():
        assert ratio >= 0.999, f"adaptive worse on {name} n={n}"
    # asymmetric schemes: strictly better, and growing with n
    assert ratios[("broadcast", 16)] > 1.5
    assert ratios[("broadcast", 32)] > ratios[("broadcast", 8)]
    assert ratios[("reduce", 16)] > 1.5
