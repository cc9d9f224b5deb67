"""The checkpoint-scheduling simulator of Section 4.6.2.

Continuous checkpointing over an abstract traffic model: the scheduler
always has one checkpoint in flight; a checkpoint of node *i*

* transfers an image of ``footprint + L_i`` bytes at the checkpoint
  bandwidth (``L_i`` — i's own sender-based log — is serialized into the
  image, which is the traffic the paper wants to minimize: "Checkpointing
  the communication daemon induces a traffic proportional to the size of
  the emitted messages");
* afterwards garbage-collects, on every sender j, the copies destined to
  i (``pending[j, i] = 0``).

Metrics per policy/scheme: checkpoint bytes moved per second (the
bandwidth utilization of the paper's comparison), and the peak and mean
per-node log occupancy.  The paper's finding — "the adaptive algorithm
never provides a worse scheduling (w.r.t. bandwidth utilization) and
often provides better (up to n times better, n being the number of
computing nodes, for asynchronous broadcast)" — is reproduced by the
accompanying benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ft.ckpt_scheduler import make_policy
from .schemes import Scheme

__all__ = ["SchedOutcome", "simulate"]


@dataclass(frozen=True)
class SchedOutcome:
    """Aggregate result of one (scheme, policy) simulation."""

    scheme: str
    policy: str
    n: int
    horizon: float
    checkpoints: int
    ckpt_bytes: float  # total image bytes moved
    ckpt_bandwidth: float  # image bytes per second (the paper's metric)
    peak_log: float  # max per-node log occupancy observed
    mean_log: float  # time-averaged mean per-node occupancy


def simulate(
    scheme: Scheme,
    policy_name: str,
    horizon: float = 600.0,
    ckpt_bw: float = 11.3e6,
    footprint: float = 8e6,
    min_gap: float = 1.0,
) -> SchedOutcome:
    """Run continuous checkpointing under ``policy_name`` for ``horizon`` s."""
    n = scheme.n
    policy = make_policy(policy_name, n)
    pending = np.zeros((n, n))  # pending[j, i]: bytes logged on j for i
    sent_total = np.zeros(n)
    recv_total = np.zeros(n)
    now = 0.0
    ckpt_bytes = 0.0
    checkpoints = 0
    peak_log = 0.0
    log_integral = 0.0

    nodes = range(n)  # every node of the model is live
    while now < horizon:
        logged = pending.sum(axis=1)
        target = policy.pick(nodes, sent_total, recv_total)
        image = footprint + logged[target]
        duration = max(min_gap, image / ckpt_bw)
        # traffic accumulates while the image is being pushed
        pending += scheme.rate * duration
        sent_total += scheme.send_rate() * duration
        recv_total += scheme.recv_rate() * duration
        now += duration
        occupancy = pending.sum(axis=1)
        peak_log = max(peak_log, float(occupancy.max()))
        log_integral += float(occupancy.mean()) * duration
        # the checkpoint completes: image moved, receiver's copies freed
        ckpt_bytes += image
        checkpoints += 1
        pending[:, target] = 0.0

    return SchedOutcome(
        scheme=scheme.name,
        policy=policy_name,
        n=n,
        horizon=now,
        checkpoints=checkpoints,
        ckpt_bytes=ckpt_bytes,
        ckpt_bandwidth=ckpt_bytes / now,
        peak_log=peak_log,
        mean_log=log_integral / now,
    )
