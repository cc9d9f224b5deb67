"""Cold start: a run that builds no array never imports numpy, even
when it draws random numbers (the named streams are numpy's PCG64
ported to pure Python).

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


DRAWING = """
import sys

from repro import run_job
from repro.ft.failure import RandomFaults
from repro.serve import ControlPlane, JobSpec
from repro.workloads import token_ring

ring = {"rounds": 200, "nbytes": 16384}
loaded = []
# a plane job whose killed V2 rank's peers reconnect with jitter
plane = ControlPlane(capacity=4)
handle = plane.submit(JobSpec(workload=token_ring, nranks=4, device="v2",
                              params=ring,
                              fault={"kind": "kill", "rank": 1, "at": 0.08}))
assert plane.wait(handle).restarts == 1
loaded.append("numpy" in sys.modules)
# Figure 11's policy: continuous checkpoints of randomly drawn nodes
res = run_job(token_ring, 4, device="v2", params=ring, checkpointing=True,
              ckpt_policy="random", ckpt_continuous=True)
assert res.stat("ckpt.images") > 1
loaded.append("numpy" in sys.modules)
# Figure 11's fault plan: a random rank killed every interval
res = run_job(token_ring, 4, device="v2", params=ring,
              faults=RandomFaults(interval=0.05, count=1, seed=3))
assert res.restarts == 1
loaded.append("numpy" in sys.modules)
print(loaded)
"""


def test_runs_that_draw_from_named_streams_never_import_numpy():
    out = subprocess.run(
        [sys.executable, "-c", DRAWING], env=ENV,
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[False, False, False]"


def test_stream_draws_stay_numpy_free_and_churn_loads_it():
    """A stream draw never loads numpy; the Weibull churn plan, whose
    draw is numpy's ziggurat, still does."""
    script = (
        "import sys\n"
        "from repro import run_job\n"
        "from repro.ft.failure import ChurnFaults\n"
        "from repro.simnet.rng import RngRegistry\n"
        "from repro.workloads.pingpong import pingpong\n"
        "s = RngRegistry(3).stream('x')\n"
        "s.random(), s.integers(0, 10), s.choice([1, 2])\n"
        "drawn = 'numpy' in sys.modules\n"
        "run_job(pingpong, 2, device='v2', params={'reps': 5},\n"
        "        faults=ChurnFaults(mean_lifetime=50.0, seed=1))\n"
        "print(drawn, 'numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=ENV,
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["False", "True"]
