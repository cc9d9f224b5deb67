"""Job specifications and serve plans.

A :class:`JobSpec` is everything the control plane needs to run one job:
workload, rank count, device, tenant, optional checkpointing and fault
schedule, and a per-job simulated-time budget.  A *plan* is a JSON file
describing tenants (with fair-share weights) and a list of jobs with
submit times — the input of ``repro serve --jobs plan.json``:

.. code-block:: json

    {
      "tenants": {"alpha": 3, "beta": 1},
      "jobs": [
        {"workload": "token_ring", "nranks": 4, "device": "v2",
         "tenant": "alpha", "at": 0.0, "checkpointing": true,
         "fault": {"kind": "kill", "rank": 1, "at": 5.0}}
      ]
    }

A bare JSON list is accepted as a plan with a single default tenant.
Workloads resolve by name — ``token_ring``, ``pingpong`` or any NAS
kernel (``cg``/``mg``/``ft``/``lu``/``bt``/``sp``, with ``klass``) — or
a spec built programmatically may carry the program callable directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

from ..ft.failure import ExplicitFaults, RandomFaults

__all__ = ["JobSpec", "load_plan", "resolve_program", "resolve_fault"]


@dataclass
class JobSpec:
    """One job as submitted to the control plane."""

    workload: Union[str, Callable]  # name or the program generator itself
    nranks: int
    device: str = "p4"  # "p4" | "v2"
    tenant: str = "default"
    klass: str = "T"  # NAS class when the workload is a kernel name
    params: dict[str, Any] = field(default_factory=dict)
    checkpointing: bool = False
    ckpt_interval: float = 30.0
    fault: Optional[Any] = None  # dict (from JSON) or a FaultPlan object
    at: float = 0.0  # submit time within a plan run
    limit: Optional[float] = None  # sim-seconds budget (cfg default if None)
    trace: bool = False  # retain this job's trace records
    audit: bool = True  # attach the online protocol auditor

    def __post_init__(self) -> None:
        if self.device not in ("p4", "v2"):
            raise ValueError(
                f"serve supports devices p4/v2, not {self.device!r}"
            )
        if self.nranks < 1:
            raise ValueError("a job needs at least one rank")
        if self.ckpt_interval <= 0:
            raise ValueError("ckpt_interval must be > 0")
        # a workload or fault the plane cannot run is refused here, not
        # inside the shared plane next to every other tenant's job
        resolve_program(self)
        if self.fault is None:
            return
        if self.device != "v2":
            raise ValueError("fault injection requires the v2 device")
        plan = resolve_fault(self)
        if isinstance(plan, ExplicitFaults):
            bad = sorted({r for _, r in plan.schedule if not 0 <= r < self.nranks})
            if bad:
                raise ValueError(
                    f"fault rank(s) {bad} outside [0, {self.nranks})"
                )
        elif isinstance(plan, RandomFaults) and plan.interval <= 0:
            raise ValueError("a random fault needs interval > 0")


def resolve_program(spec: JobSpec) -> tuple[Callable, dict[str, Any]]:
    """The (program, params) pair a spec's workload names."""
    if callable(spec.workload):
        return spec.workload, dict(spec.params)
    name = spec.workload
    if name == "token_ring":
        from ..workloads import token_ring

        params = {"rounds": 20, "nbytes": 4096}
        params.update(spec.params)
        return token_ring, params
    if name == "pingpong":
        from ..workloads import pingpong

        return pingpong, dict(spec.params)
    from ..workloads import nas

    if name in nas.KERNELS:
        params = {"klass": spec.klass}
        params.update(spec.params)
        return nas.KERNELS[name].program, params
    raise ValueError(f"unknown workload {name!r}")


def resolve_fault(spec: JobSpec) -> Optional[Any]:
    """The spec's fault plan (dicts from JSON become plan objects)."""
    fault = spec.fault
    if fault is None or not isinstance(fault, dict):
        return fault
    kind = fault.get("kind", "kill")
    if kind == "kill":
        return ExplicitFaults(
            schedule=[(float(fault.get("at", 1.0)), int(fault.get("rank", 0)))]
        )
    if kind == "explicit":
        return ExplicitFaults(
            schedule=[(float(t), int(r)) for t, r in fault["schedule"]]
        )
    if kind == "random":
        return RandomFaults(
            interval=float(fault.get("interval", 10.0)),
            count=int(fault.get("count", 1)),
            seed=int(fault.get("seed", 0)),
            first_at=fault.get("first_at"),
        )
    raise ValueError(f"unknown fault kind {kind!r}")


_SPEC_KEYS = frozenset(JobSpec.__dataclass_fields__)


def load_plan(path: str) -> tuple[dict[str, float], list[JobSpec]]:
    """Parse a plan file into (tenant weights, job specs)."""
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, list):
        tenants: dict[str, float] = {}
        raw_jobs = doc
    else:
        tenants = {
            str(name): float(w) for name, w in doc.get("tenants", {}).items()
        }
        raw_jobs = doc.get("jobs", [])
    jobs = []
    for i, raw in enumerate(raw_jobs):
        unknown = set(raw) - _SPEC_KEYS
        if unknown:
            raise ValueError(f"job {i}: unknown keys {sorted(unknown)}")
        try:
            jobs.append(JobSpec(**raw))
        except (TypeError, ValueError) as exc:  # a missing key, a bad value
            raise ValueError(f"job {i}: {exc}") from None
    for spec in jobs:
        tenants.setdefault(spec.tenant, 1.0)
    return tenants, jobs
