"""mpirun: the one way an MPI job is launched on a simulated deployment.

The user-facing entry point is :func:`run_job`: pick a device ("p4",
"v1", "v2"), a program (a generator function taking an
:class:`~repro.mpi.api.MPI` context), a process count, and run.  Under it
sits a single :func:`start` / :func:`collect` pair that every job goes
through, whether it owns its cluster or runs as one tenant of a control
plane:

* a :class:`Deployment` says *where* the job runs — the computing nodes,
  the service machine, the event-logger groups and store replicas it may
  address, the tracer and registry it reports to.  ``run_job`` builds a
  private one; :class:`~repro.serve.plane.ControlPlane` hands over the
  slice of its shared cluster it admitted the job onto;
* :func:`start` installs the observers, asks the device for its own
  topology, spawns the fault driver, and returns a :class:`Job` whose
  ``done`` future resolves with the per-rank results;
* :func:`collect` turns a finished job into its
  :class:`~repro.runtime.results.JobResult`.

A device contributes only what is its own, as a ``launch`` function
returning a :class:`RankSet`:

* **p4** (:mod:`repro.devices.p4`) — half-duplex endpoints, all-to-all
  direct streams, one MPI process per node, no fault tolerance;
* **v1** (:mod:`repro.devices.v1`) — reliable Channel Memory nodes
  (default 1 CM per 4 CNs, the ratio of the paper's Figure 8 setup) and
  restart-from-scratch rank slots;
* **v2** (:mod:`repro.ft.dispatcher`) — checkpoint scheduler and the
  dispatcher that restarts crashed ranks through the recovery protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from ..mpi.api import MPI
from ..obs.audit import ProtocolAuditor
from ..obs.collect import fold_cluster, fold_device_stats
from ..obs.profile import KernelProfiler
from ..obs.timeseries import TimeseriesSampler
from ..simnet.kernel import Future, Killed, Process
from ..simnet.node import Host
from .cluster import Cluster
from .config import DEFAULT_TESTBED, TestbedConfig
from .fabric import Fabric
from .results import JobResult

__all__ = [
    "Deployment", "Job", "RankSet", "RankState",
    "collect", "rank_main", "run_job", "start",
]

Program = Callable[..., Generator[Future, Any, Any]]


def rank_main(mpi: MPI, program: Program, params: dict[str, Any]):
    """The wrapper every rank runs: init, program, finalize."""
    yield from mpi.init()
    result = yield from program(mpi, **params)
    yield from mpi.finalize()
    return (mpi.sim.now, result)


def _bare_rank(rank: int) -> int:
    """A private deployment's identity for ``rank`` on its services."""
    return rank


@dataclass
class Deployment:
    """Where one job runs: its machines, services and observability.

    A private deployment owns its cluster (``tracer``/``metrics`` default
    to the cluster's); a control-plane slice shares the cluster, sees the
    fabric through a :class:`~repro.runtime.fabric.ScopedFabric`, reports
    to a tracer and registry of its own, and addresses the shared
    event-logger / store services under ``job_key`` identities.
    """

    cluster: Cluster
    fabric: Any  # Fabric, or the job's ScopedFabric view of a shared one
    cn_hosts: list[Host]
    #: reliable machine for the dispatcher (+ scheduler, fault driver)
    service: Optional[Host] = None
    sched_host: Optional[Host] = None  # None: the scheduler joins ``service``
    spare_hosts: list[Host] = field(default_factory=list)
    el_groups: list[list[str]] = field(default_factory=list)  # names per shard
    loggers: list = field(default_factory=list)  # the EL server objects
    servers: list = field(default_factory=list)  # the store replica objects
    supervisor: Optional[Any] = None  # crashes/relaunches the job's services
    tracer: Optional[Any] = None
    metrics: Optional[Any] = None
    #: rank -> identity on the EL/store services (job-qualified when shared)
    job_key: Callable[[int], Any] = _bare_rank
    #: prefix of the job's named RNG streams and helper processes
    ns: str = ""

    def __post_init__(self) -> None:
        if self.tracer is None:
            self.tracer = self.cluster.tracer
        if self.metrics is None:
            self.metrics = self.cluster.metrics

    @property
    def shared(self) -> bool:
        """Does the job share its cluster (a control-plane slice)?"""
        return self.metrics is not self.cluster.metrics


class RankState:
    """Launcher-side view of one MPI rank."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.host: Optional[Host] = None
        self.incarnation = -1
        self.daemon: Optional[Any] = None  # the rank's V2 daemon, if any
        self.mpi: Optional[MPI] = None
        self.finished = False
        self.result: Any = None
        self.finish_time = 0.0
        self.spawn_time = 0.0  # when this incarnation was launched

    def begin(self, host: Host, now: float) -> int:
        """A new incarnation starts on ``host``; returns its number."""
        self.host = host
        self.spawn_time = now
        self.incarnation += 1
        return self.incarnation


class RankSet:
    """What every device's launcher is: the ranks of one running job.

    One :class:`RankState` per rank, a ``done`` future resolved with the
    per-rank results once every rank's current incarnation has returned
    (or failed with the first genuine program error), the restart count,
    and the kill/inspect interface fault injectors drive.  Devices with
    a recovery protocol subclass it.
    """

    def __init__(
        self, dep: Deployment, program: Program, params: dict[str, Any],
        nprocs: int,
    ) -> None:
        self.dep = dep
        self.sim = dep.cluster.sim
        self.cfg = dep.cluster.cfg
        self.tracer = dep.tracer
        self.metrics = dep.metrics
        self.program = program
        self.params = params
        self.nprocs = nprocs
        #: the reliable machine launcher-side helper processes live on
        self.host = dep.service
        self.states = [RankState(r) for r in range(nprocs)]
        self.done = Future(self.sim, name="job.done")
        self.total_restarts = 0
        self.global_restarts = 0

    def spawn_app(self, st: RankState, device: Any) -> Process:
        """Run ``rank_main`` for ``st``'s current incarnation on its host;
        its error is the job's (see ``_app_finished``), not a crash."""
        st.mpi = MPI(self.sim, st.rank, self.nprocs, device, tracer=self.tracer)
        proc = self.sim.spawn(
            rank_main(st.mpi, self.program, self.params),
            name=f"rank{st.rank}.i{st.incarnation}", supervised=True,
        )
        st.host.register(proc)
        proc.done.add_done_callback(
            lambda fut, inc=st.incarnation: self._app_finished(st, inc, fut)
        )
        return proc

    def _app_finished(self, st: RankState, incarnation: int, fut: Future) -> None:
        if st.incarnation != incarnation:
            return
        exc = fut.exception
        if exc is None:
            st.finish_time, st.result = fut.value
            st.finished = True
            if all(s.finished for s in self.states):
                self.done.resolve_if_pending([s.result for s in self.states])
        elif not isinstance(exc, Killed):
            # a genuine program/runtime error fails the job, naming the
            # rank in a PEP 678 note (``add_note`` is 3.11+); a Killed
            # rank's host crashed, and the device restarts it
            exc.__notes__ = [*getattr(exc, "__notes__", ()), f"raised by rank{st.rank}"]
            self.done.fail_if_pending(exc)

    def stop(self, cause: Any) -> None:
        """Withdraw the launcher's own services (shared-cluster teardown)."""

    def components(self) -> dict[str, Any]:
        """The device's live objects, for tests and diagnostics."""
        return {}

    # -- fault injection -----------------------------------------------------
    def kill(self, rank: int) -> bool:
        """Crash ``rank``'s machine; False if there is nothing to kill."""
        st = self.states[rank]
        if st.host.failed or self.done.done or st.finished:
            return False
        st.host.crash()
        return True

    def fault_context(self) -> Any:
        """The kill/inspect interface handed to fault injectors."""
        from ..ft.failure import FaultContext

        def spawn(gen, label: str) -> Process:
            p = self.sim.spawn(gen, name=label)
            self.host.register(p)
            return p

        sup = self.dep.supervisor
        return FaultContext(
            sim=self.sim,
            alive_unfinished=lambda: [
                s.rank for s in self.states
                if not s.finished and s.host is not None and not s.host.failed
            ],
            kill=self.kill,
            job_running=lambda: not self.done.done,
            crash_service=sup.crash if sup is not None else None,
            spawn=spawn,
            service_names=tuple(sorted(sup.services)) if sup is not None else (),
        )


class _Observers:
    """A job's optional observers: installed together, finished together."""

    def __init__(
        self, sim: Any, tracer: Any, metrics: Any,
        audit: bool, audit_hb: bool, profile: bool, timeseries: bool,
    ) -> None:
        self.profiler = self.sampler = self.auditor = None
        if profile:
            self.profiler = KernelProfiler().install(sim)
        if timeseries:
            self.sampler = TimeseriesSampler(metrics)
            self.sampler.install(sim)
        if audit:
            self.auditor = ProtocolAuditor(hb_graph=audit_hb).attach(tracer)

    def finish(self, now: float) -> dict[str, Any]:
        """Close the series, detach, and build the ``JobResult`` fields."""
        if self.sampler is not None:
            self.sampler.sample(now)
        auditor, profiler = self.auditor, self.profiler
        return {
            "audit": auditor.finish() if auditor is not None else None,
            "profile": profiler.finish() if profiler is not None else None,
            "timeseries": self.sampler,
        }


@dataclass
class Job:
    """A started job: wait on ``done``, then :func:`collect`."""

    device: str
    dep: Deployment
    ranks: RankSet
    observers: _Observers
    faults: Optional[Any]

    @property
    def done(self) -> Future:
        """Resolves with the per-rank results."""
        return self.ranks.done

    def components(self) -> dict[str, Any]:
        """The job's live objects: what ``on_ready`` is handed and
        ``run_job`` exposes in ``extras``."""
        dep = self.dep
        return {
            "event_loggers": dep.loggers,
            "checkpoint_servers": dep.servers,
            "supervisor": dep.supervisor,
            **self.ranks.components(),
        }


def _launcher(device: str) -> Callable[..., RankSet]:
    """The device's ``launch``, imported on first use (a p4 run never
    loads the fault-tolerant runtimes)."""
    if device == "p4":
        from ..devices.p4 import launch
    elif device == "v1":
        from ..devices.v1 import launch
    elif device == "v2":
        from ..ft.dispatcher import launch
    else:
        raise ValueError(f"unknown device {device!r} (expected p4/v1/v2)")
    return launch


def start(
    program: Program,
    nprocs: int,
    device: str,
    dep: Deployment,
    *,
    params: Optional[dict[str, Any]] = None,
    faults: Optional[Any] = None,
    on_ready: Optional[Callable[[dict], None]] = None,
    audit: bool = False,
    audit_hb: bool = False,
    profile: bool = False,
    timeseries: bool = False,
    **device_kw: Any,
) -> Job:
    """Launch ``program`` on ``dep``; returns without running the clock.

    ``faults`` is a fault plan (or a list of plans, run concurrently);
    ``on_ready`` is the test/chaos hook called with the live deployment
    before the first event; ``device_kw`` goes to the device's ``launch``
    (checkpoint policy, ``cns_per_cm``, ...).
    """
    if nprocs < 1:
        raise ValueError("a job needs at least one rank")
    launch = _launcher(device)
    if faults is not None and device == "p4":
        raise ValueError("p4 has no fault tolerance: inject faults on v1/v2")
    sim = dep.cluster.sim
    observers = _Observers(
        sim, dep.tracer, dep.metrics, audit, audit_hb, profile, timeseries
    )
    ranks = launch(dep, program, params or {}, nprocs, **device_kw)
    if faults is not None:
        if isinstance(faults, (list, tuple)):
            from ..ft.failure import ComposedFaults

            faults = ComposedFaults(tuple(faults))
        ctx = ranks.fault_context()
        ctx.spawn(faults.driver(ctx), f"{dep.ns}fault-injector")
    job = Job(device, dep, ranks, observers, faults)
    if on_ready is not None:
        on_ready(
            {
                "sim": sim,
                "cluster": dep.cluster,
                "network": dep.cluster.net,
                "service_host": dep.service,
                "cs_hosts": [s.host for s in dep.servers],
                **job.components(),
            }
        )
    return job


def collect(job: Job, since: float = 0.0, timed_out: bool = False) -> JobResult:
    """The result of a finished job (``timed_out``: of one abandoned
    before every rank returned, on a timeout or a program error).

    ``since`` is the simulated time the job was started at, so
    ``elapsed`` is the job's own duration on a long-lived cluster.
    """
    dep, ranks = job.dep, job.ranks
    now = dep.cluster.sim.now
    observed = job.observers.finish(now)
    if not dep.shared:
        # shared network/NIC/stream accounting folds once per cluster:
        # here for a private one, at plane shutdown for a shared one
        fold_cluster(dep.cluster)
    launched = [st for st in ranks.states if st.mpi is not None]
    fold_device_stats(
        dep.metrics, {st.rank: st.mpi.device.stats for st in launched},
        job.device,
    )
    end = now if timed_out else max(st.finish_time for st in ranks.states)
    return JobResult(
        nprocs=ranks.nprocs,
        device=job.device,
        elapsed=end - since,
        results=[] if timed_out else job.done.value,
        timers={st.rank: st.mpi.timer for st in launched},
        tracer=dep.tracer,
        restarts=ranks.total_restarts,
        checkpoints=int(dep.metrics.total("ckpt.images")),
        metrics=dep.metrics,
        extras={
            "global_restarts": ranks.global_restarts,
            "faults": job.faults,
        },
        **observed,
    )


def run_job(
    program: Program,
    nprocs: int,
    device: str = "p4",
    cfg: TestbedConfig = DEFAULT_TESTBED,
    params: Optional[dict[str, Any]] = None,
    trace: bool = False,
    seed: int = 0,
    limit: Optional[float] = None,
    audit: bool = False,
    profile: bool = False,
    timeseries: bool = False,
    **device_kw: Any,
) -> JobResult:
    """Run ``program`` on ``nprocs`` simulated processes; block to completion.

    The job gets a private cluster.  A job that shares one goes through
    the control plane: ``plane.wait(plane.submit(JobSpec(...)))``.

    ``limit`` bounds simulated seconds (raises if exceeded).  ``audit``
    attaches the online protocol auditor to the run's live trace stream
    and reports the verdict in ``JobResult.audit`` (p4/v1 emit no V2
    protocol events, so their audit is trivially clean);
    ``audit_hb=True`` additionally collects the
    happens-before graph.  ``profile`` hooks the event-kernel profiler
    into the simulator and reports the
    :class:`~repro.obs.profile.KernelProfile` in ``JobResult.profile``.
    ``timeseries`` samples selected registry metrics every 0.5 simulated
    seconds into ``JobResult.timeseries`` (a
    :class:`~repro.obs.timeseries.TimeseriesSampler`).

    Extra keyword arguments: ``faults`` and ``on_ready`` (see
    :func:`start`); for v2 the placement (``plan``, a
    :class:`~repro.runtime.progfile.DeploymentPlan`, whose ``SPARE``
    lines are the job's replacement machines) and
    everything :func:`repro.ft.dispatcher.launch` takes
    (``checkpointing``, ``ckpt_policy``, ``ckpt_interval``,
    ``ckpt_continuous``); for v1 ``cns_per_cm``.  The
    event-logger shard count is ``cfg.el_servers``.
    """
    _launcher(device)  # reject an unknown device before building anything
    cluster = Cluster(cfg, seed=seed, trace=trace)
    if device == "v2":
        from ..ft.deploy import private_deployment

        dep = private_deployment(
            cluster, nprocs, plan=device_kw.pop("plan", None)
        )
    else:  # computing nodes only; v1 adds its Channel Memories itself
        dep = Deployment(
            cluster, Fabric(cluster),
            [cluster.add_cn(f"cn{r}") for r in range(nprocs)],
        )
    job = start(
        program, nprocs, device, dep, params=params,
        audit=audit, profile=profile, timeseries=timeseries, **device_kw,
    )
    cluster.sim.run_until(job.done, limit=limit)
    result = collect(job)
    result.extras.update(job.components())
    return result
