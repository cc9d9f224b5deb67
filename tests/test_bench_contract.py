"""The benchmark's contract with ``src/``, checked from tier-1.

``python3 -m bench`` (BENCHMARK.json) is run by the driver after a PR is
finished; these checks fail in seconds what would otherwise fail there:
a ``src/repro`` file outside every ``bench/layers.py::LAYER_MAP``
pattern, or a renamed symbol the benchmark imports.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_layer_map_covers_src_and_benchmark_imports_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from bench import layers

    layers.check_layer_map()  # SystemExit names any file without one layer

    import bench.workloads  # noqa: F401  (run_job, ControlPlane, JobSpec, ...)
