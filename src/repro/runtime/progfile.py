"""The mpirun 'program file' of Section 4.7.

"The run preparation consists in a shell script ... creating a 'program
file' from a list of available machines ... The obtained program file is
the equivalent of a 'P4PGFILE' for the original MPICH-P4.  It describes
the run, with for each machine 1) its role inside the system (Computing
Node, Event Logger, Checkpoint Server, Checkpoint Scheduler) and 2) the
list of options for that role."

This module parses that description and turns it into a deployment plan
for :func:`repro.ft.deploy.private_deployment` (``run_job(plan=...)``).
Grammar (one machine per line, ``#`` comments)::

    <hostname>  <ROLE>  [key=value ...]

Roles: ``CN`` (computing node), ``SPARE`` (replacement pool), ``EL``
(event logger), ``CS`` (checkpoint server), ``SC`` (checkpoint
scheduler), ``DISPATCHER``.  The scheduler and dispatcher default to the
first EL's machine when omitted — the paper's "typical setup would
execute the checkpoint scheduler on the same node as the dispatcher and
the event logger".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["DeploymentPlan", "parse_progfile"]

ROLES = ("CN", "SPARE", "EL", "CS", "SC", "DISPATCHER")


@dataclass
class DeploymentPlan:
    """Machine-to-role assignment for one MPICH-V2 run."""

    cns: list[str] = field(default_factory=list)
    spares: list[str] = field(default_factory=list)
    els: list[str] = field(default_factory=list)
    cs: Optional[str] = None
    scheduler: Optional[str] = None
    dispatcher: Optional[str] = None
    options: dict[str, dict[str, str]] = field(default_factory=dict)

    @property
    def nprocs(self) -> int:
        """Number of computing nodes the plan declares."""
        return len(self.cns)

    def validate(self) -> None:
        """Raise ValueError on structurally impossible deployments."""
        if not self.cns:
            raise ValueError("program file declares no computing nodes")
        if not self.els:
            raise ValueError("program file declares no event logger")
        if self.cs is None:
            raise ValueError("program file declares no checkpoint server")
        names = (
            self.cns + self.spares + self.els + [self.cs]
            + [self.scheduler, self.dispatcher]
        )
        named = [n for n in names if n is not None]
        # CN/spare machines must not double as reliable services
        volatile = set(self.cns + self.spares)
        reliable = set(self.els + [self.cs, self.scheduler, self.dispatcher])
        overlap = volatile & {r for r in reliable if r is not None}
        if overlap:
            raise ValueError(
                f"machines {sorted(overlap)} are both volatile (CN/SPARE) "
                "and reliable services"
            )


def parse_progfile(text: str) -> DeploymentPlan:
    """Parse a program file into a validated :class:`DeploymentPlan`."""
    plan = DeploymentPlan()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(f"line {lineno}: expected '<host> <role> ...'")
        host, role = parts[0], parts[1].upper()
        if role not in ROLES:
            raise ValueError(
                f"line {lineno}: unknown role {role!r} (expected {ROLES})"
            )
        options = {}
        for opt in parts[2:]:
            if "=" not in opt:
                raise ValueError(f"line {lineno}: bad option {opt!r}")
            k, v = opt.split("=", 1)
            options[k] = v
        plan.options[host] = options
        if role == "CN":
            plan.cns.append(host)
        elif role == "SPARE":
            plan.spares.append(host)
        elif role == "EL":
            plan.els.append(host)
        elif role == "CS":
            if plan.cs is not None:
                raise ValueError(f"line {lineno}: duplicate checkpoint server")
            plan.cs = host
        elif role == "SC":
            plan.scheduler = host
        elif role == "DISPATCHER":
            plan.dispatcher = host
    # the paper's typical setup: SC + dispatcher colocated with the EL
    if plan.scheduler is None and plan.els:
        plan.scheduler = plan.els[0]
    if plan.dispatcher is None and plan.els:
        plan.dispatcher = plan.els[0]
    plan.validate()
    return plan
