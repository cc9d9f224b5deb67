"""Figure 6: ping-pong latency comparison for short messages.

Paper: 0-byte one-way latency is 77 us for MPICH-P4 and 237 us for
MPICH-V2 ("six TCP messages... P4 only sends two"); the event-logger
acknowledgement gates each send.  MPICH-V1 sits in between (every message
takes two hops through a Channel Memory but needs no synchronous ack).
"""

import pytest

from repro.analysis.report import Report
from repro.workloads.pingpong import measure

from conftest import full_sweep, record_report

SIZES_DEFAULT = [0, 256, 1024, 4096, 16384]
SIZES_FULL = [0, 64, 256, 1024, 2048, 4096, 8192, 16384]


def run_fig6():
    sizes = SIZES_FULL if full_sweep() else SIZES_DEFAULT
    rows = []
    zero = {}
    for nbytes in sizes:
        cells = [nbytes]
        for dev in ("p4", "v1", "v2"):
            lat = measure(dev, nbytes, reps=8)["latency_us"]
            cells.append(lat)
            if nbytes == 0:
                zero[dev] = lat
        rows.append(cells)
    return rows, zero


def bench_fig6_latency():
    rows, zero = run_fig6()
    rep = Report("Figure 6 - ping-pong one-way latency (us)")
    rep.table(["bytes", "P4", "V1", "V2"], rows)
    rep.add(
        f"0-byte latency: P4={zero['p4']:.0f}  V1={zero['v1']:.0f}  "
        f"V2={zero['v2']:.0f} us\n"
        "paper: P4=77 us, V2=237 us (~3x), V1 in between"
    )
    record_report(rep)
    assert zero["p4"] == pytest.approx(77, rel=0.08)
    assert 2.5 * zero["p4"] <= zero["v2"] <= 4.5 * zero["p4"]
    assert zero["p4"] < zero["v1"] < zero["v2"]
