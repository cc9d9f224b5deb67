"""Fault injection: the paper's volatility model.

"We simulate faults by sending a termination signal to a randomly
selected MPI process. Faults may occur at any time during the execution,
including during the checkpoint or during the re-execution." (Section 5.4)

Process-kill flavours:

* :class:`ExplicitFaults` — a list of ``(time, rank)`` kills, for
  deterministic tests and the Figure 10 re-execution benchmark;
* :class:`RandomFaults` — kills a random non-finished rank every
  ``interval`` seconds (the Figure 11 workload: one fault every 45 s),
  up to ``count`` faults;
* :class:`ChurnFaults` — Weibull node lifetimes (desktop-grid churn).

Infrastructure flavours (beyond the paper, which assumes a reliable
network and reliable auxiliary nodes):

* :class:`PartitionFaults` — transient network cuts between host groups;
* :class:`ServiceFaults` — crash/restart of the event logger or the
  checkpoint server (durable state survives, connections reset);
* :class:`LinkFlapFaults` — forced stream resets between random rank
  pairs (both endpoints alive, link-level resync required).

Any combination runs in one job via :class:`ComposedFaults`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, Sequence

from ..simnet.rng import RngStream

__all__ = [
    "ExplicitFaults",
    "RandomFaults",
    "ChurnFaults",
    "PartitionFaults",
    "ServiceFaults",
    "LinkFlapFaults",
    "ComposedFaults",
    "FaultPlan",
    "FaultContext",
]


class FaultPlan(Protocol):
    """A fault schedule the dispatcher can execute."""

    def driver(self, ctx: "FaultContext"):  # pragma: no cover - protocol
        ...


@dataclass
class FaultContext:
    """What an injector can see and do (provided by the dispatcher)."""

    sim: object
    alive_unfinished: Callable[[], list[int]]  # ranks eligible for a kill
    kill: Callable[[int], bool]  # returns False if the kill was impossible
    job_running: Callable[[], bool]
    spawn: Callable  # (gen, label) -> run a child driver
    # infrastructure hooks (None when the runtime doesn't provide them):
    partition: Optional[Callable] = None  # (ranks, duration) -> cut the net
    crash_service: Optional[Callable] = None  # (name, downtime)
    flap_link: Optional[Callable] = None  # (rank_a, rank_b) -> streams broken
    service_names: tuple = ()  # supervised services available to plans


@dataclass
class ExplicitFaults:
    """Kill exact ranks at exact simulated times."""

    schedule: Sequence[tuple[float, int]]
    injected: list[tuple[float, int]] = field(default_factory=list)

    def driver(self, ctx: FaultContext):
        """Run the schedule (spawned by the dispatcher)."""
        for when, rank in sorted(self.schedule):
            delay = when - ctx.sim.now
            if delay > 0:
                yield ctx.sim.timeout(delay)
            if not ctx.job_running():
                return
            if ctx.kill(rank):
                self.injected.append((ctx.sim.now, rank))


@dataclass
class RandomFaults:
    """Kill a random eligible rank every ``interval`` seconds."""

    interval: float
    count: int
    seed: int = 0
    first_at: Optional[float] = None
    injected: list[tuple[float, int]] = field(default_factory=list)

    def driver(self, ctx: FaultContext):
        """Run the schedule (spawned by the dispatcher)."""
        rng = RngStream(self.seed)  # numpy's default_rng(seed), draw for draw
        yield ctx.sim.timeout(
            self.first_at if self.first_at is not None else self.interval
        )
        done = 0
        while done < self.count and ctx.job_running():
            targets = ctx.alive_unfinished()
            if targets:
                rank = int(rng.choice(targets))
                if ctx.kill(rank):
                    self.injected.append((ctx.sim.now, rank))
                    done += 1
            if done < self.count:
                yield ctx.sim.timeout(self.interval)


@dataclass
class ChurnFaults:
    """Desktop-grid churn: node lifetimes drawn from a Weibull distribution.

    The paper motivates MPICH-V2 with "campus/industry wide desktop Grids
    with volatile nodes" where machines "join/leave the system
    independently and unpredictably".  Empirical desktop-grid studies fit
    machine availability with Weibull lifetimes; ``shape < 1`` gives the
    heavy-tailed churn typical of volunteer machines.

    Every ``check_interval`` the injector draws which currently-running
    ranks die, until ``max_faults`` is reached (a safety bound, not a
    target).
    """

    mean_lifetime: float  # mean node lifetime, simulated seconds
    shape: float = 0.7  # Weibull shape (<1: heavy-tailed)
    max_faults: int = 50
    seed: int = 0
    check_interval: float = 0.5
    injected: list[tuple[float, int]] = field(default_factory=list)

    def driver(self, ctx: FaultContext):
        """Run the churn process (spawned by the dispatcher)."""
        import math

        import numpy as np

        rng = np.random.default_rng(self.seed)
        # per-rank scheduled death time; re-drawn after each restart
        deaths: dict[int, float] = {}
        # Weibull mean = scale * Gamma(1 + 1/shape)
        scale = self.mean_lifetime / math.gamma(1 + 1 / self.shape)
        while ctx.job_running() and len(self.injected) < self.max_faults:
            now = ctx.sim.now
            for rank in ctx.alive_unfinished():
                if rank not in deaths:
                    deaths[rank] = now + scale * rng.weibull(self.shape)
            for rank, when in list(deaths.items()):
                if when <= now and rank in ctx.alive_unfinished():
                    if ctx.kill(rank):
                        self.injected.append((now, rank))
                    del deaths[rank]
                    if len(self.injected) >= self.max_faults:
                        return
            yield ctx.sim.timeout(self.check_interval)


@dataclass
class PartitionFaults:
    """Transient network partitions: ``(at, ranks, duration)`` windows.

    At each scheduled time the hosts of ``ranks`` are cut off from the
    rest of the fabric for ``duration`` seconds.  Hosts stay up; crossing
    traffic is deferred until the cut heals, and connects across the cut
    are refused.
    """

    schedule: Sequence[tuple[float, Sequence[int], float]]
    injected: list[tuple[float, tuple, float]] = field(default_factory=list)

    def driver(self, ctx: FaultContext):
        """Run the schedule (spawned by the dispatcher)."""
        if ctx.partition is None:
            return
        for when, ranks, duration in sorted(self.schedule, key=lambda s: s[0]):
            delay = when - ctx.sim.now
            if delay > 0:
                yield ctx.sim.timeout(delay)
            if not ctx.job_running():
                return
            ctx.partition(tuple(ranks), duration)
            self.injected.append((ctx.sim.now, tuple(ranks), duration))


@dataclass
class ServiceFaults:
    """Crash supervised services: ``(at, name, downtime)`` windows.

    ``name`` is the service's fabric name ("el:0", "cs:0").  The service
    loses its listener and every connection but keeps its durable state;
    the supervisor relaunches it after ``downtime`` (floored by
    ``cfg.svc_restart_delay``).
    """

    schedule: Sequence[tuple[float, str, float]]
    injected: list[tuple[float, str, float]] = field(default_factory=list)

    def driver(self, ctx: FaultContext):
        """Run the schedule (spawned by the dispatcher)."""
        if ctx.crash_service is None:
            return
        for when, name, downtime in sorted(self.schedule, key=lambda s: s[0]):
            delay = when - ctx.sim.now
            if delay > 0:
                yield ctx.sim.timeout(delay)
            if not ctx.job_running():
                return
            if name not in ctx.service_names:
                continue
            ctx.crash_service(name, downtime)
            self.injected.append((ctx.sim.now, name, downtime))


@dataclass
class LinkFlapFaults:
    """Break the streams between random live rank pairs, ``count`` times.

    Both endpoints stay up: readers and writers see ``Disconnected`` and
    must re-establish and resynchronize the link (duplicate discard via
    the forwarded watermark, RESTART1 resync both ways).
    """

    interval: float
    count: int
    seed: int = 0
    injected: list[tuple[float, int, int]] = field(default_factory=list)

    def driver(self, ctx: FaultContext):
        """Run the schedule (spawned by the dispatcher)."""
        if ctx.flap_link is None:
            return
        import numpy as np

        rng = np.random.default_rng(self.seed)
        done = 0
        while done < self.count and ctx.job_running():
            yield ctx.sim.timeout(self.interval)
            if not ctx.job_running():
                return
            targets = ctx.alive_unfinished()
            if len(targets) < 2:
                continue
            a, b = (int(r) for r in rng.choice(targets, size=2, replace=False))
            if ctx.flap_link(a, b):
                self.injected.append((ctx.sim.now, a, b))
                done += 1


@dataclass
class ComposedFaults:
    """Run several fault plans concurrently in one job."""

    plans: Sequence[FaultPlan]

    def driver(self, ctx: FaultContext):
        """Spawn each child plan's driver as its own process."""
        for i, plan in enumerate(self.plans):
            ctx.spawn(plan.driver(ctx), f"faults[{i}]")
        yield ctx.sim.timeout(0.0)

    @property
    def injected(self) -> list:
        """Union of the children's injections (time-ordered)."""
        out: list = []
        for plan in self.plans:
            out.extend(getattr(plan, "injected", ()))
        return sorted(out, key=lambda rec: rec[0])
