"""The budget gate of the gated ``benchmarks/`` scripts.

``benchmarks/gate.py`` is the one place those scripts compare a number
with a bound and turn the verdict into an exit code, so its comparisons
are pinned here: each bound fails in its own direction, a missing
baseline skips only the relative checks, ``python -O`` gates exactly as
``python`` does, and a run never writes over the committed baseline.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
GATED = ("ckpt_store", "el_scale", "kernel", "observability_overhead",
         "recovery", "serve")

_spec = importlib.util.spec_from_file_location("gate", BENCHMARKS / "gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


@pytest.fixture
def root(tmp_path, monkeypatch):
    """A repository root of its own, so no test touches a real baseline."""
    monkeypatch.setattr(gate, "ROOT", tmp_path)
    monkeypatch.setattr(gate, "OUT", tmp_path / "benchmarks" / "out")
    return tmp_path


def _check(out, base):
    return [
        gate.at_most("heap entries", out["heap"], 32),
        gate.growth("makespan s", out["makespan"], base.get("makespan"), 0.20),
    ]


def _run(measured, capsys):
    with pytest.raises(SystemExit) as exc:
        gate.run("demo", lambda: measured, _check, lambda out: "table")
    return exc.value.code, capsys.readouterr().out


def test_relative_bound_fails_past_it_and_passes_inside_it():
    assert gate.growth("makespan s", 12.1, 10.0, 0.20) is not None
    assert gate.growth("makespan s", 11.9, 10.0, 0.20) is None


def test_absolute_bounds_fail_in_their_own_direction():
    assert gate.at_most("x", 1.1, 1.0) is not None
    assert gate.at_most("x", 0.5, 1.0) is None
    assert gate.at_most("x", 1.0, 1.0) is None
    assert gate.at_least("x", 0.9, 1.0) is not None
    assert gate.at_least("x", 5.0, 1.0) is None
    assert gate.at_least("x", 1.0, 1.0) is None
    assert gate.at_most("x", float("nan"), 1.0) is not None
    assert gate.holds(False, "broke") == "broke"
    assert gate.holds(True, "broke") is None


def test_run_prints_every_problem_and_exits_one(root, capsys):
    (root / "BENCH_demo.json").write_text(json.dumps({"makespan": 10.0}))
    code, text = _run({"heap": 40, "makespan": 13.0}, capsys)
    assert code == 1
    assert text.count("OVER BUDGET:") == 2
    assert "OK:" not in text
    code, text = _run({"heap": 10, "makespan": 11.0}, capsys)
    assert code == 0
    assert "OK:" in text and "OVER BUDGET" not in text


@pytest.mark.parametrize("content", [None, "{not json"])
def test_missing_or_unreadable_baseline_skips_only_relative_checks(
    root, capsys, content
):
    if content is not None:
        (root / "BENCH_demo.json").write_text(content)
    # far past the relative bound, but there is no baseline to compare with
    code, text = _run({"heap": 10, "makespan": 1e9}, capsys)
    assert code == 0, text
    # the absolute bound still applies
    code, text = _run({"heap": 40, "makespan": 1e9}, capsys)
    assert code == 1
    assert text.count("OVER BUDGET:") == 1 and "heap entries" in text


def test_failing_checks_still_fail_under_python_optimize(tmp_path):
    script = f"""
import pathlib, sys
sys.path.insert(0, {str(BENCHMARKS)!r})
import gate
gate.ROOT = pathlib.Path({str(tmp_path)!r})
gate.OUT = gate.ROOT / "out"
(gate.ROOT / "BENCH_demo.json").write_text('{{"makespan": 10.0}}')
check = lambda out, base: [
    gate.at_least("events/s", out["rate"], 15000.0),
    gate.growth("makespan s", out["makespan"], base.get("makespan"), 0.2),
    gate.holds(out["verdict"] == "clean", "audit verdict not clean"),
]
gate.run("demo", lambda: {{"rate": 1.0, "makespan": 99.0,
                           "verdict": "violations"}}, check, str)
"""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.count("OVER BUDGET:") == 3
    assert "OK:" not in proc.stdout


def test_run_writes_out_and_leaves_the_baseline_byte_identical(root, capsys):
    committed = root / "BENCH_demo.json"
    committed.write_bytes(b'{\n  "makespan": 10.0,\n  "heap": 7\n}\n')
    before = committed.read_bytes()
    _run({"heap": 12, "makespan": 10.5}, capsys)
    _run({"heap": 99, "makespan": 50.0}, capsys)
    assert committed.read_bytes() == before
    written = json.loads((root / "benchmarks" / "out" / "BENCH_demo.json").read_text())
    assert written == {"heap": 99, "makespan": 50.0}


@pytest.mark.parametrize("name", GATED)
def test_gated_scripts_gate_without_assert(name):
    """An ``assert`` vanishes under ``python -O``; every gate goes
    through ``gate.py``'s comparisons instead."""
    path = BENCHMARKS / f"bench_{name}.py"
    tree = ast.parse(path.read_text())
    asserts = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert asserts == [], f"{path.name}: assert at lines {asserts}"
    calls = {
        n.func.attr for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and isinstance(n.func.value, ast.Name) and n.func.value.id == "gate"
    }
    assert "run" in calls
