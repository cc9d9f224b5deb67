"""Plumbing shared by the ``benchmarks/`` scripts.

Two kinds of script live here.  The paper-figure and ablation files
(``bench_fig*``, ``bench_table1_decomposition``, ``bench_sched_policies``,
``bench_ablations``) run under plain pytest (``pytest benchmarks/``):
each regenerates one table or figure of the paper, asserts its shape,
prints its report in the terminal summary and writes it to
``benchmarks/results/``, where it is checked-in output.  The six gated
scripts run as ``python benchmarks/bench_<name>.py`` and go through
``gate.py`` (see its docstring); pytest collects nothing from them.

Set ``REPRO_BENCH_FULL=1`` to run the full parameter sweeps (all process
counts up to 32, class B everywhere) instead of the representative
defaults.
"""

from __future__ import annotations

import os
import pathlib

_REPORTS: list = []
_RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def record_report(report) -> None:
    """Register a finished report for terminal output and save it."""
    _REPORTS.append(report)
    _RESULTS_DIR.mkdir(exist_ok=True)
    slug = report.title.lower().replace(" ", "_").replace("/", "-")[:60]
    (_RESULTS_DIR / f"{slug}.txt").write_text(report.render())


def full_sweep() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "") == "1"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for report in _REPORTS:
        terminalreporter.write(report.render())
