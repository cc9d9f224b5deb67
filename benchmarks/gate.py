"""The one budget gate of the gated ``benchmarks/`` scripts.

Each gated script (``bench_ckpt_store``, ``bench_el_scale``,
``bench_kernel``, ``bench_observability_overhead``, ``bench_recovery``,
``bench_serve``) is a ``measure()``, a ``check(out, base)`` and a
``table(out)``, run one way: ``python benchmarks/bench_<name>.py``,
which calls :func:`run`.  ``run`` reads the committed baseline
``BENCH_<name>.json`` at the repository root, writes the run's result
to the git-ignored ``benchmarks/out/BENCH_<name>.json`` (the CI
artifact), prints the table, then one ``OVER BUDGET:`` line per problem
or one ``OK:`` line, and exits 1 or 0.

A run never writes the committed baseline.  Re-baselining is copying
``benchmarks/out/BENCH_<name>.json`` over it, in a commit of its own
that CHANGES.md names.  A budget may be tightened by a change, never
loosened.

``check`` is built from the comparisons below.  Each returns a problem
string, or ``None`` when the value is within its bound; they are plain
comparisons, so ``python -O`` gates exactly as ``python`` does.  A
bound relative to the baseline (:func:`growth`) passes when the
baseline has no value to compare with; absolute bounds always apply.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
from typing import Any, Callable, Iterable, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = pathlib.Path(__file__).resolve().parent / "out"

Problem = Optional[str]


def baseline(name: str) -> dict:
    """The committed ``BENCH_<name>.json``; ``{}`` if missing or unreadable."""
    try:
        return json.loads((ROOT / f"BENCH_{name}.json").read_text())
    except (OSError, ValueError):
        return {}


def at_most(what: str, value: float, bound: float) -> Problem:
    """An absolute ceiling: ``value`` may not exceed ``bound``."""
    if value <= bound:
        return None
    return f"{what} {value:.6g} exceeds the budget {bound:.6g}"


def at_least(what: str, value: float, bound: float) -> Problem:
    """An absolute floor: ``value`` may not fall below ``bound``."""
    if value >= bound:
        return None
    return f"{what} {value:.6g} is below the floor {bound:.6g}"


def growth(what: str, value: float, base: Optional[float], budget: float) -> Problem:
    """At most ``budget`` (a fraction) above the baseline's ``base``;
    no baseline value, no check."""
    if not base:
        return None
    return at_most(f"{what} (baseline {base:.6g} +{budget:.0%})", value,
                   base * (1.0 + budget))


def holds(ok: bool, problem: str) -> Problem:
    """A condition that must be true; ``problem`` says what broke."""
    return None if ok else problem


def interleaved_min(runs: dict[str, Callable[[], Any]], reps: int = 5) -> dict:
    """Wall clock of each of ``runs``: one warm-up each, then ``reps``
    rounds that time every run back to back, so a slow machine phase
    hits all of them.  Noise only ever adds time, so each keeps its
    fastest round: ``{key: (seconds, that round's result)}``.

    Between runs exactly one result per key stays alive, the fastest so
    far.  What stays alive is heap the garbage collector walks during
    the next runs, so it is part of what is timed."""
    for fn in runs.values():
        fn()
    best: dict[str, tuple[float, Any]] = {}
    for _ in range(reps):
        for key, fn in runs.items():
            t0 = time.perf_counter()
            res = fn()
            dt = time.perf_counter() - t0
            if key not in best or dt < best[key][0]:
                best[key] = (dt, res)
            del res
    return best


def run(
    name: str,
    measure: Callable[[], dict],
    check: Callable[[dict, dict], Iterable[Problem]],
    table: Callable[[dict], str],
) -> None:
    """Measure, write ``benchmarks/out/BENCH_<name>.json``, print the
    table and the verdict, and exit 1 on any problem, else 0."""
    base = baseline(name)
    out = measure()
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"BENCH_{name}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(table(out))
    problems = [p for p in check(out, base) if p is not None]
    for p in problems:
        print(f"OVER BUDGET: {p}")
    if not problems:
        print(f"OK: {name} is within every budget; result in {path}")
    sys.exit(1 if problems else 0)
