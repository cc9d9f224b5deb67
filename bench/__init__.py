"""The repository's benchmark: two clocks, four pinned workloads.

``python3 -m bench`` from the repository root; see ``bench/README.md``.
Everything the simulator runs is generated here (or imported read-only
from ``repro.workloads``) and every layer is measured from outside,
through the public entry points of ``src/repro``.
"""
