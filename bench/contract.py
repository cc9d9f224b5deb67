"""What the benchmark promises its driver: ``BENCHMARK.json`` is the one
declaration of workload and metric names, units and bounds; this module
reads it and prints results in its shape."""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def load() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_info(seed: int) -> dict[str, Any]:
    """Recorded in every output, so a noisy host shows in the artifact."""
    return {
        "seed": seed,
        "loadavg": list(os.getloadavg()),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def result_line(declared: list[dict[str, Any]], values: dict[str, float],
                attempted: int, failed: int, correct: bool) -> str:
    """The last line of standard output.  A declared metric the run did
    not compute is a bug in the benchmark: let the KeyError show."""
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    })


def write_artifact(name: str, doc: dict[str, Any]) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path
