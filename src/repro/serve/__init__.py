"""Multi-job serving: a gang-scheduling control plane over one cluster.

``repro serve --jobs plan.json`` (or the programmatic
:class:`ControlPlane` API) runs many MPI jobs concurrently on a single
shared simulated cluster, with fair-share admission between tenants,
all-or-nothing gang placement, per-job namespaces on the shared
event-logger and checkpoint-store deployments, and per-job fault
isolation — one job's rank kill recovers inside that job while its
neighbours keep running, with clean audits to prove it.
"""

from __future__ import annotations

from typing import Optional

from ..runtime.config import DEFAULT_TESTBED, TestbedConfig
from .namespace import JobNamespace, TraceRouter
from .plan import JobSpec, load_plan, resolve_fault, resolve_program
from .plane import ControlPlane, JobHandle, Tenant

__all__ = [
    "ControlPlane",
    "JobHandle",
    "JobNamespace",
    "JobSpec",
    "Tenant",
    "TraceRouter",
    "load_plan",
    "resolve_fault",
    "resolve_program",
    "run_plan",
]


def run_plan(
    path: str,
    cfg: TestbedConfig = DEFAULT_TESTBED,
    seed: int = 0,
    limit: Optional[float] = None,
    **plane_kw: int,
) -> tuple[ControlPlane, list[JobHandle]]:
    """Run a plan file to completion; returns the plane and its handles.

    Jobs enter the admission queue at their ``at`` times; the plane
    drains every one of them (``limit`` bounds total simulated seconds).
    ``plane_kw`` sizes the plane (``capacity``, ``svc_slots``).  Call
    :meth:`ControlPlane.finish` on the returned plane for the
    multi-tenant summary.
    """
    tenants, jobs = load_plan(path)
    plane = ControlPlane(cfg, seed=seed, tenants=tenants, **plane_kw)
    handles = [plane.submit(spec, at=spec.at) for spec in jobs]
    plane.drain(limit=limit)
    return plane, handles
