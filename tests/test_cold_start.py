"""Cold start: a run that draws no random number and builds no array
never imports numpy.

A relaunched process pays for every module it imports, and numpy is
the largest (~0.17 s and ~14 MB of RSS on a 2-core Xeon).  The check
runs in a fresh interpreter, since this test process has numpy loaded
already.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

ENV = {**os.environ,
       "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}

SCRIPT = """
import sys

import repro
import repro.obs
import repro.serve
import repro.ft.failure
import repro.workloads.nas
from repro import run_job
from repro.serve import ControlPlane, JobSpec
from repro.workloads import nas, token_ring
from repro.workloads.pingpong import pingpong

res = run_job(pingpong, 2, device="v2", params={"reps": 5})
assert res.restarts == 0 and res.results[0] > 0
plane = ControlPlane(capacity=4)
handle = plane.submit(JobSpec(workload=token_ring, nranks=2, device="p4",
                              params={"rounds": 3, "nbytes": 256}))
assert plane.wait(handle).nprocs == 2
res = run_job(nas.cg.program, 4, device="v2", params={"klass": "S"})
assert res.results[0].kernel == "cg"
print("numpy" in sys.modules)
"""


def test_fault_free_runs_never_import_numpy():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=ENV,
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False", "a fault-free run imported numpy"


def test_first_draw_imports_numpy():
    """The other half of the contract: a draw does load it (and the
    stream is the seeded PCG64 stream, checked in test_more_units)."""
    script = (
        "import sys\n"
        "from repro.simnet.rng import RngRegistry\n"
        "s = RngRegistry(3).stream('x')\n"
        "before = 'numpy' in sys.modules\n"
        "s.random()\n"
        "print(before, 'numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=ENV,
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["False", "True"]
