"""Cold start: a run that builds no array never imports numpy, even
when it draws random numbers or runs a fault plan (the named streams,
the Weibull churn and the link-flap sample are numpy's PCG64 draws
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


def test_churn_and_link_flap_runs_never_import_numpy():
    """Every stream draw, the Weibull churn (numpy's ziggurat) and the
    link-flap pair (``choice(..., replace=False)``) included, comes from
    the pure-Python stream, so a fault-plan run loads numpy nowhere."""
    script = (
        "import sys\n"
        "from repro import run_job\n"
        "from repro.ft.failure import ChurnFaults, LinkFlapFaults\n"
        "from repro.simnet.rng import RngRegistry\n"
        "from repro.workloads import token_ring\n"
        "s = RngRegistry(3).stream('x')\n"
        "s.random(), s.integers(0, 10), s.choice([1, 2])\n"
        "s.weibull(0.7), s.sample([1, 2, 3], 2)\n"
        "ring = {'rounds': 200, 'nbytes': 16384}\n"
        "churn = ChurnFaults(mean_lifetime=0.1, max_faults=1, seed=1,\n"
        "                    check_interval=0.02)\n"
        "res = run_job(token_ring, 4, device='v2', params=ring, faults=churn)\n"
        "assert len(churn.injected) == 1 and res.restarts == 1\n"
        "flaps = LinkFlapFaults(interval=0.05, count=1, seed=2)\n"
        "run_job(token_ring, 4, device='v2', params=ring, faults=flaps)\n"
        "assert len(flaps.injected) == 1\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=ENV,
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
