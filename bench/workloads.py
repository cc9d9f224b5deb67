"""The four workloads: what the simulator is asked to run, and how one
repetition of each is checked.

The load is pinned here so a later change cannot alter it by editing
``src/``: the ping-pong, burst and storm generators are copies of
``repro.workloads.pingpong``, ``repro.workloads.synthetic`` and
``benchmarks/bench_serve.py::_specs``; only the CG proxy and the token
ring are imported.  Fault schedule, ``run_job`` seed and the storm's job
mix are pinned to ``PIN_SEED`` — the simulator is deterministic but
chaotic in them (README, "What --seed drives") — and ``--seed`` draws a
per-rank launch skew of at most ``SKEW_MAX_S``, which every program
sleeps before its first MPI call.

One repetition is one call of :meth:`Workload.run`; it returns a
:class:`Rep` holding the simulated makespan, the op (job) and failure
counts, a digest of every simulated statistic, and the finished
``JobResult`` objects for the layer ledger to read.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional

from repro import run_job
from repro.ft.failure import ChurnFaults
from repro.obs import KernelProfiler, RecoveryAttribution
from repro.serve import ControlPlane, JobSpec
from repro.workloads import nas, token_ring

PIN_SEED = 1
SKEW_MAX_S = 200e-6
SIM_LIMIT_S = 1e8  # simulated-seconds ceiling: a hang fails, not spins


# -- generators (copies; see the module docstring) ---------------------------

def pingpong(mpi, nbytes: int = 0, reps: int = 20, warmup: int = 2):
    """Returns the mean one-way time in seconds (measured on both ranks)."""
    peer = 1 - mpi.rank
    for phase_reps in (warmup, reps):
        t0 = mpi.sim.now
        for _ in range(phase_reps):
            if mpi.rank == 0:
                yield from mpi.send(peer, nbytes=nbytes, tag=1)
                yield from mpi.recv(source=peer, tag=2)
            else:
                yield from mpi.recv(source=peer, tag=1)
                yield from mpi.send(peer, nbytes=nbytes, tag=2)
    return (mpi.sim.now - t0) / (2 * reps)


BURST = 10


def burst_pingpong(mpi, nbytes: int = 65536, reps: int = 5, warmup: int = 1):
    """Returns achieved per-direction bandwidth in bytes/second."""
    peer = 1 - mpi.rank
    for phase_reps in (warmup, reps):
        t0 = mpi.sim.now
        for r in range(phase_reps):
            reqs = []
            for i in range(BURST):
                req = yield from mpi.isend(peer, nbytes=nbytes, tag=i)
                reqs.append(req)
            for i in range(BURST):
                req = yield from mpi.irecv(source=peer, tag=i)
                reqs.append(req)
            yield from mpi.waitall(reqs)
    elapsed = mpi.sim.now - t0
    return BURST * reps * nbytes / elapsed


def null_program(mpi):
    """Ranks that return at once: what a cold-start probe launches."""
    return None
    yield


def skewed(program: Callable) -> Callable:
    """``program`` behind a per-rank launch skew (the seeded input)."""

    def run(mpi, skew, **params):
        yield from mpi.compute(seconds=skew[mpi.rank])
        return (yield from program(mpi, **params))

    return run


def launch_skew(rng: random.Random, nranks: int) -> list[float]:
    return [rng.uniform(0.0, SKEW_MAX_S) for _ in range(nranks)]


N_JOBS = 1000
#: v2-device job slots per 20-job window — one even (alpha) and one odd
#: (beta) index, so both tenants carry the same v2/p4 mix
V2_SLOTS = (0, 11)
FAULTY_SLOTS = (3, 6)  # of every 8 v2 jobs, one alpha and one beta kill
CAPACITY = 8
SVC_SLOTS = 2
WEIGHTS = {"alpha": 3.0, "beta": 1.0}


def storm_specs(mix: random.Random, skew: random.Random,
                trace: bool) -> list[JobSpec]:
    """The 1000-job storm: ~90% p4, ~10% v2, a quarter of those killed."""
    ring = skewed(token_ring)
    specs = []
    v2_seen = 0
    for i in range(N_JOBS):
        tenant = "alpha" if i % 2 == 0 else "beta"
        nranks = mix.choice((1, 2, 2, 4))
        kw: dict[str, Any] = {}
        if i % 20 in V2_SLOTS:
            v2_seen += 1
            device = "v2"
            if v2_seen % 8 in FAULTY_SLOTS:
                # hot enough that the kill lands mid-traffic and recovery
                # replays from a checkpoint plus logged events
                nranks = max(2, nranks)
                params = {"rounds": 200, "nbytes": 8192}
                kw = {
                    "checkpointing": True, "ckpt_interval": 0.05,
                    "fault": {"kind": "kill", "rank": 1,
                              "at": round(0.05 + 0.01 * (v2_seen % 5), 3)},
                }
            else:
                params = {"rounds": mix.randint(10, 30),
                          "nbytes": mix.choice((512, 1024, 2048))}
        else:
            device = "p4"
            params = {"rounds": mix.randint(2, 6),
                      "nbytes": mix.choice((256, 512, 1024))}
        params["skew"] = launch_skew(skew, nranks)
        specs.append(JobSpec(
            workload=ring, nranks=nranks, device=device, tenant=tenant,
            params=params, trace=trace, **kw,
        ))
    return specs


# -- one repetition ------------------------------------------------------------

class Marks:
    """Host-clock stamps taken at fixed simulated times, which cut a
    repetition into slices that line up from one repetition to the next.

    A mark is an empty kernel event: it shifts sequence numbers, never
    the order of two other events (the digest gate would show it).  Marks
    stop after ``limit`` so a deadlocked simulation still drains its heap
    and is reported as one.
    """

    def __init__(self, every_sim_s: float, limit: int) -> None:
        self.every = every_sim_s
        self.limit = limit
        self.stamps: list[float] = []

    def install(self, sim) -> None:
        def mark() -> None:
            self.stamps.append(perf_counter())
            if len(self.stamps) < self.limit:
                sim.at(sim.now + self.every, mark)

        sim.at(sim.now + self.every, mark)


@dataclass
class Rep:
    """What one repetition produced (simulated clock only)."""

    sim_s: float
    failed: int  # jobs (ops) of this repetition that broke a failure rule
    digest: str  # every simulated statistic; equal on every repetition
    registry: dict[str, float]  # metric name -> total over jobs and labels
    registries: list  # the obs.Metrics behind it: one per job (+ the plane's)
    jobs: list  # the JobResults
    values: dict[str, float] = field(default_factory=dict)  # workload's own
    # observed repetitions only
    profile: Optional[Any] = None  # obs.KernelProfile
    recovery: Optional[RecoveryAttribution] = None


def _digest(*parts: Any) -> str:
    return hashlib.blake2b(repr(parts).encode(), digest_size=16).hexdigest()


def _merge(into: dict[str, float], snapshot: dict[str, float]) -> None:
    for name, value in snapshot.items():
        into[name] = into.get(name, 0.0) + value


def _job_failed(res, nranks: int, faults: int, timed_out: bool = False) -> bool:
    """The failure rules every job answers to (README, "Failure share")."""
    if timed_out or len(res.results) != nranks:
        return True
    if res.restarts != faults:
        return True
    return res.audit is not None and res.audit.verdict != "clean"


@dataclass(frozen=True)
class JobWorkload:
    """One ``run_job`` per repetition."""

    name: str
    program: Callable
    nranks: int
    params: dict[str, Any]
    job_kw: dict[str, Any] = field(default_factory=dict)
    churn: Optional[dict[str, Any]] = None  # ChurnFaults arguments
    one_way: bool = False  # the program returns the one-way latency
    ops = 1  # jobs per repetition

    def inputs(self, seed: int) -> dict[str, Any]:
        skew = launch_skew(random.Random(seed), self.nranks)
        return {**self.params, "skew": skew}

    def run(self, inputs: dict[str, Any], observe: bool = False,
            marks: Optional[Marks] = None) -> Rep:
        faults = None
        if self.churn is not None:
            faults = ChurnFaults(seed=PIN_SEED, **self.churn)
        res = run_job(
            skewed(self.program), self.nranks, device="v2", params=inputs,
            seed=PIN_SEED, limit=SIM_LIMIT_S, faults=faults,
            trace=observe, audit=observe, audit_hb=observe, profile=observe,
            on_ready=(
                (lambda ctx: marks.install(ctx["sim"]))
                if marks is not None else None
            ),
            **self.job_kw,
        )
        registry = res.metrics.snapshot()
        injected = len(faults.injected) if faults is not None else 0
        values = {"one_way_us": res.results[0] * 1e6} if self.one_way else {}
        return Rep(
            sim_s=res.elapsed,
            failed=int(_job_failed(res, self.nranks, injected)),
            digest=_digest(res.elapsed, res.results, res.restarts,
                           sorted(registry.items())),
            registry=registry,
            registries=[res.metrics],
            jobs=[res],
            values=values,
            profile=res.profile,
            recovery=(
                RecoveryAttribution.from_trace(res.tracer) if observe else None
            ),
        )

    def null_job(self) -> None:
        run_job(null_program, self.nranks, device="v2", seed=PIN_SEED,
                **self.job_kw)


@dataclass(frozen=True)
class StormWorkload:
    """One ``submit`` x 1000 + ``drain`` per repetition."""

    name: str
    ops = N_JOBS  # jobs per repetition

    def inputs(self, seed: int) -> int:
        return seed  # JobSpecs are rebuilt per repetition: the plane keeps them

    def _plane(self) -> ControlPlane:
        return ControlPlane(seed=PIN_SEED, capacity=CAPACITY,
                            svc_slots=SVC_SLOTS, tenants=WEIGHTS)

    def run(self, inputs: int, observe: bool = False,
            marks: Optional[Marks] = None) -> Rep:
        specs = storm_specs(random.Random(PIN_SEED), random.Random(inputs),
                            trace=observe)
        plane = self._plane()
        if marks is not None:
            marks.install(plane.sim)
        profiler = KernelProfiler().install(plane.sim) if observe else None
        handles = [plane.submit(spec) for spec in specs]
        plane.drain(limit=SIM_LIMIT_S)
        profile = profiler.finish() if profiler is not None else None
        summary = plane.finish()

        registry = plane.metrics.snapshot()
        failed = recovered = 0
        spans = []
        for h in handles:
            res = h.result
            faults = 1 if h.spec.fault is not None else 0
            failed += _job_failed(res, h.spec.nranks, faults,
                                  res.extras["timed_out"])
            if faults and res.restarts == 1:
                recovered += 1
            _merge(registry, res.metrics.snapshot())
            if res.extras.get("mttr") is not None:
                spans.extend(res.extras["mttr"].spans)
        waits = sorted(h.wait_s for h in handles)
        values = {
            "queue_wait_p95_s": waits[int(0.95 * (len(waits) - 1))],
            "jobs_completed": float(summary["completed"]),
            "kills_recovered": float(recovered),
            "share_err": _share_err(handles),
        }
        for tenant in WEIGHTS:
            own = [h.wait_s for h in handles if h.spec.tenant == tenant]
            values[f"wait_mean_s.{tenant}"] = sum(own) / len(own)
        return Rep(
            sim_s=summary["elapsed"],
            failed=failed,
            digest=_digest(
                summary["elapsed"],
                [(h.start_t, h.result.elapsed, h.result.restarts,
                  h.result.results) for h in handles],
                sorted(registry.items()),
            ),
            registry=registry,
            registries=[plane.metrics] + [h.result.metrics for h in handles],
            jobs=[h.result for h in handles],
            values=values,
            profile=profile,
            recovery=RecoveryAttribution(spans) if observe else None,
        )

    def null_job(self) -> None:
        plane = self._plane()
        plane.submit(JobSpec(workload=null_program, nranks=1))
        plane.drain()
        plane.finish()


def _share_err(handles) -> float:
    """Worst relative gap between a tenant's rank-weighted admission
    share and its fair share, over the window where every tenant still
    has queued jobs (admission order = start time)."""
    remaining = dict.fromkeys(WEIGHTS, 0)
    for h in handles:
        remaining[h.spec.tenant] += 1
    admitted = dict.fromkeys(WEIGHTS, 0.0)
    for h in sorted(handles, key=lambda h: (h.start_t, h.job_id)):
        admitted[h.spec.tenant] += h.spec.nranks
        remaining[h.spec.tenant] -= 1
        if remaining[h.spec.tenant] == 0:
            break
    total = sum(admitted.values())
    weight_total = sum(WEIGHTS.values())
    return max(
        abs(admitted[t] / total - w / weight_total) / (w / weight_total)
        for t, w in WEIGHTS.items()
    )


WORKLOADS = {
    w.name: w
    for w in (
        JobWorkload(
            "pingpong_0b", pingpong, 2,
            {"nbytes": 0, "reps": 5000, "warmup": 0}, one_way=True,
        ),
        JobWorkload(
            "burst_1m", burst_pingpong, 2,
            {"nbytes": 1 << 20, "reps": 100, "warmup": 0},
        ),
        JobWorkload(
            "cg_a8_churn", nas.cg.program, 8, {"klass": "A"},
            job_kw={"checkpointing": True, "ckpt_policy": "random",
                    "ckpt_continuous": True},
            churn={"mean_lifetime": 12.0, "shape": 0.7, "max_faults": 4},
        ),
        StormWorkload("serve_storm"),
    )
}
