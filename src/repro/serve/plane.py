"""The gang-scheduling control plane: many jobs, one shared cluster.

A :class:`ControlPlane` owns one simulated cluster and runs a stream of
MPI jobs over it concurrently:

* **admission queue + gang scheduler** — a job launches only when *all*
  its ranks (plus, for v2 jobs, one service host for its dispatcher and
  checkpoint scheduler) fit in the shared pools; never a partial gang.
  Among tenants the queue is fair-share — the tenant with the lowest
  rank-weighted service per unit weight goes first — and FIFO within a
  tenant.  A head job that cannot fit does not let later jobs of its
  tenant leapfrog it, and once it has starved past
  ``cfg.serve_starve_s`` the plane reserves draining capacity for it
  instead of admitting smaller jobs around it.
* **shared services, namespaced state** — every job talks to the same
  event-logger shards and checkpoint-store replicas, but under its
  :class:`~repro.serve.namespace.JobNamespace`: fabric names are
  prefixed per job, and EL/store keys (including GC floors) carry the
  job tag, so checkpoints, logged events and garbage collection never
  cross job boundaries.  A finished job's keys are evicted.
* **isolated supervision** — each job is launched through the same
  :func:`~repro.runtime.mpirun.start` / :func:`~repro.runtime.mpirun.collect`
  pair as a dedicated ``run_job``, on the slice of the cluster it was
  admitted onto, with its own tracer, metrics registry and online
  auditor (and, for v2, its own
  :class:`~repro.ft.dispatcher.Dispatcher`), so a rank kill in one job
  is detected, restarted and audited entirely inside that job while
  co-resident jobs keep running.

A job enters the plane one way, :meth:`ControlPlane.submit`, and its
submitter blocks on :meth:`ControlPlane.wait` or :meth:`ControlPlane.drain`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from ..ft.deploy import deploy_services
from ..obs.collect import fold_cluster
from ..obs.registry import Metrics
from ..obs.timeline import RecoveryAttribution
from ..runtime.cluster import Cluster
from ..runtime.config import DEFAULT_TESTBED, TestbedConfig
from ..runtime.fabric import Fabric
from ..runtime.mpirun import Deployment, collect, start
from ..runtime.results import JobResult
from ..simnet.kernel import Future, all_of, any_of
from ..simnet.trace import Tracer
from .namespace import JobNamespace, TraceRouter
from .plan import JobSpec, resolve_fault, resolve_program

__all__ = ["ControlPlane", "JobHandle", "Tenant"]


class Tenant:
    """One fair-share principal: a weight, a FIFO queue, service served."""

    def __init__(self, name: str, weight: float = 1.0) -> None:
        if weight <= 0:
            raise ValueError(f"tenant {name!r} needs a positive weight")
        self.name = name
        self.weight = weight
        self.queue: deque[JobHandle] = deque()
        #: rank-weighted service admitted so far (the fair-share deficit
        #: denominator: next goes the tenant minimizing served/weight)
        self.served = 0.0


class JobHandle:
    """The submitter's view of one job: identity, progress, completion.

    A job is queued once ``submit_t`` is set, running once ``start_t``
    is, and finished once ``done`` resolves (with :attr:`result`)."""

    def __init__(self, job_id: int, spec: JobSpec, done: Future) -> None:
        self.job_id = job_id
        self.spec = spec
        self.done = done  # resolves with the JobResult
        self.submit_t: Optional[float] = None
        self.start_t: Optional[float] = None
        self.result: Optional[JobResult] = None

    @property
    def wait_s(self) -> Optional[float]:
        """Queue wait (admission minus submission), once admitted."""
        if self.submit_t is None or self.start_t is None:
            return None
        return self.start_t - self.submit_t


class ControlPlane:
    """Run many jobs concurrently over one shared simulated cluster."""

    def __init__(
        self,
        cfg: TestbedConfig = DEFAULT_TESTBED,
        seed: int = 0,
        capacity: int = 16,
        svc_slots: int = 4,
        tenants: Optional[dict[str, float]] = None,
    ) -> None:
        self.cfg = cfg
        #: computing-node slots in the shared pool, and service hosts
        #: (one per running v2 job)
        self.capacity = capacity
        self.svc_slots = svc_slots
        self.cluster = Cluster(cfg, seed=seed)
        self.sim = self.cluster.sim
        self.fabric = Fabric(self.cluster)
        #: the plane's own registry (admission/tenant metrics; never a
        #: job's — each job gets a private Metrics at admission)
        self.metrics = self.cluster.metrics

        # host pools: CN slots for rank gangs, service hosts for per-job
        # dispatchers + checkpoint schedulers (v2 jobs take one each)
        self.plane_host = self.cluster.add_aux("plane")
        self._free_cn = [
            self.cluster.add_cn(f"cn{i}") for i in range(self.capacity)
        ]
        self._free_svc = [
            self.cluster.add_aux(f"svc{i}") for i in range(self.svc_slots)
        ]

        # shared services, deployed once (the same helper as a
        # dedicated deployment)
        el_hosts = [
            self.cluster.add_aux(f"el-host{s}")
            for s in range(max(1, cfg.el_servers))
        ]
        cs_hosts = [
            self.cluster.add_aux("cs-host" if i == 0 else f"cs-host{i}")
            for i in range(max(1, cfg.ckpt_servers))
        ]
        self.supervisor, self.el_groups, self.loggers, self.servers = (
            deploy_services(self.cluster, self.fabric, el_hosts, cs_hosts)
        )
        #: fabric names every job may address un-prefixed
        self.shared_names = (
            frozenset(n for g in self.el_groups for n in g)
            | frozenset(s.name for s in self.servers)
        )
        self.router = TraceRouter(self.cluster.tracer)

        self.tenants: dict[str, Tenant] = {}
        for name, weight in (tenants or {}).items():
            self.add_tenant(name, weight)
        self.handles: dict[int, JobHandle] = {}
        self._next_id = 0
        self._running: set[int] = set()
        m = self.metrics
        self._m_running = m.gauge("serve.running")
        self._m_queued = m.gauge("serve.queued")
        self._finished = False

    # -- tenants -------------------------------------------------------------
    def add_tenant(self, name: str, weight: float = 1.0) -> Tenant:
        """Register a fair-share principal (idempotent on the name)."""
        tenant = self.tenants.get(name)
        if tenant is None:
            tenant = self.tenants[name] = Tenant(name, weight)
        return tenant

    # -- submission ----------------------------------------------------------
    def submit(self, spec: JobSpec, at: Optional[float] = None) -> JobHandle:
        """Queue a job (optionally at a future simulated time)."""
        if self._finished:
            raise RuntimeError("the control plane has been finished")
        if spec.nranks > self.capacity:
            raise ValueError(
                f"job needs {spec.nranks} ranks; the pool has {self.capacity}"
            )
        handle = JobHandle(
            self._next_id, spec, Future(self.sim, name=f"job{self._next_id}")
        )
        self._next_id += 1
        self.handles[handle.job_id] = handle
        if at is None or at <= self.sim.now:
            self._enqueue(handle)
        else:
            self.sim.at(at, lambda: self._enqueue(handle))
        return handle

    def _enqueue(self, handle: JobHandle) -> None:
        spec = handle.spec
        tenant = self.add_tenant(spec.tenant)
        handle.submit_t = self.sim.now
        tenant.queue.append(handle)
        self.metrics.counter("serve.submitted", tenant=tenant.name).inc()
        self.cluster.tracer.emit(
            self.sim.now, "serve.submit",
            job=handle.job_id, tenant=tenant.name, nranks=spec.nranks,
        )
        self._pump()

    # -- the gang scheduler --------------------------------------------------
    def _fits(self, spec: JobSpec) -> bool:
        if len(self._free_cn) < spec.nranks:
            return False
        return spec.device != "v2" or len(self._free_svc) >= 1

    def _pick(self) -> Optional[Tenant]:
        """The tenant whose head job is admitted next (None = nothing).

        Tenants with queued work are visited in fair-share order —
        lowest ``served / weight`` first, name as the tie-break — and
        within a tenant strictly FIFO (its head blocks its later jobs).
        If a more-deserving tenant's head does not fit *and* has starved
        past ``serve_starve_s``, nothing behind it is admitted either:
        the capacity now draining is reserved for it.
        """
        backlog = [t for t in self.tenants.values() if t.queue]
        backlog.sort(key=lambda t: (t.served / t.weight, t.name))
        for tenant in backlog:
            head = tenant.queue[0]
            if self._fits(head.spec):
                return tenant
            starved_s = self.sim.now - (head.submit_t or 0.0)
            if starved_s > self.cfg.serve_starve_s:
                return None
        return None

    def _pump(self) -> None:
        while True:
            tenant = self._pick()
            if tenant is None:
                break
            self._admit(tenant, tenant.queue.popleft())
        self._m_queued.set(
            float(sum(len(t.queue) for t in self.tenants.values())),
            self.sim.now,
        )

    def _admit(self, tenant: Tenant, handle: JobHandle) -> None:
        spec = handle.spec
        cn_hosts = [self._free_cn.pop() for _ in range(spec.nranks)]
        svc_host = self._free_svc.pop() if spec.device == "v2" else None
        tenant.served += spec.nranks
        handle.start_t = self.sim.now
        self._running.add(handle.job_id)
        m = self.metrics
        m.counter("serve.admitted", tenant=tenant.name).inc()
        m.counter("serve.ranks_admitted", tenant=tenant.name).inc(spec.nranks)
        m.histogram("serve.wait_s", tenant=tenant.name).observe(
            handle.wait_s or 0.0
        )
        self._m_running.set(float(len(self._running)), self.sim.now)
        self.cluster.tracer.emit(
            self.sim.now, "serve.admit",
            job=handle.job_id, tenant=tenant.name, nranks=spec.nranks,
            wait_s=handle.wait_s,
        )
        proc = self.sim.spawn(
            self._run(handle, cn_hosts, svc_host),
            name=f"serve.job{handle.job_id}",
        )
        self.plane_host.register(proc)

    # -- the job driver ------------------------------------------------------
    def _run(self, handle: JobHandle, cn_hosts: list, svc_host):
        """Start the job on its slice, wait, reclaim the slice, collect."""
        sim = self.sim
        spec = handle.spec
        ns = JobNamespace(handle.job_id)
        program, params = resolve_program(spec)
        dep = Deployment(
            self.cluster,
            ns.fabric_view(self.fabric, self.shared_names),
            cn_hosts,
            service=svc_host,
            el_groups=self.el_groups, loggers=self.loggers, servers=self.servers,
            tracer=Tracer(enabled=spec.trace), metrics=Metrics(),
            job_key=ns.key, ns=ns.prefix,
        )
        v2 = spec.device == "v2"  # the device that uses the shared services
        if v2:
            self.router.register(ns.tag, dep.tracer)
        job = start(
            program, spec.nranks, spec.device, dep, params=params,
            audit=spec.audit, faults=resolve_fault(spec),
            **(
                dict(checkpointing=spec.checkpointing,
                     ckpt_interval=spec.ckpt_interval)
                if v2 else {}
            ),
        )

        limit = spec.limit if spec.limit is not None else self.cfg.serve_job_limit
        watchdog = sim.timeout(limit)
        try:
            yield any_of(sim, [job.done, watchdog])
        except Exception:
            pass  # the program raised: the error is this job's result
        error = job.done.exception
        timed_out = not job.done.done
        sim.cancel(watchdog)

        # teardown, in dependency order: resolve `done` first so every
        # crash callback / monitor loop guard sees a finished job, then
        # withdraw the job's own services, then reclaim the machines
        job.done.resolve_if_pending(None)
        job.ranks.stop("job-complete")
        for host in cn_hosts:
            host.crash()  # kills straggler processes, breaks the job's streams
            host.on_crash.clear()  # stale launcher callbacks
            host.restart()
        if v2:
            # stop routing before evicting: the reclaim's store.gc sweep
            # is end-of-job bookkeeping, not part of the job's audited
            # history
            self.router.unregister(ns.tag)
            keys = [ns.key(r) for r in range(spec.nranks)]
            for el in self.loggers:
                el.evict(keys)
            for srv in self.servers:
                srv.evict(keys)
        self.cluster.rng.drop(ns.prefix)

        result = collect(
            job, since=handle.start_t or 0.0,
            timed_out=timed_out or error is not None,
        )
        result.extras.update(
            job_id=handle.job_id,
            tenant=spec.tenant,
            namespace=ns.tag,
            timed_out=timed_out,
            error=None if error is None else "; ".join(  # "...; raised by rankN"
                [f"{type(error).__name__}: {error}", *getattr(error, "__notes__", ())]),
            wait_s=handle.wait_s,
            mttr=(
                RecoveryAttribution.from_trace(dep.tracer)
                if spec.trace else None
            ),
        )
        self._release(handle, result, cn_hosts, svc_host)

    # -- completion ----------------------------------------------------------
    def _release(
        self,
        handle: JobHandle,
        result: JobResult,
        cn_hosts: list,
        svc_host,
    ) -> None:
        self._free_cn.extend(cn_hosts)
        if svc_host is not None:
            self._free_svc.append(svc_host)
        self._running.discard(handle.job_id)
        tenant = self.tenants[handle.spec.tenant]
        m = self.metrics
        m.counter("serve.completed", tenant=tenant.name).inc()
        if result.extras.get("timed_out"):
            m.counter("serve.timeouts", tenant=tenant.name).inc()
        if result.extras.get("error"):
            m.counter("serve.failed", tenant=tenant.name).inc()
        if result.audit is not None and not result.audit.clean:
            m.counter("serve.audit_violations", tenant=tenant.name).inc(
                len(result.audit.violations)
            )
        m.histogram("serve.job_s", tenant=tenant.name).observe(result.elapsed)
        self._m_running.set(float(len(self._running)), self.sim.now)
        self.cluster.tracer.emit(
            self.sim.now, "serve.done",
            job=handle.job_id, tenant=tenant.name,
            elapsed=result.elapsed, restarts=result.restarts,
            timed_out=bool(result.extras.get("timed_out")),
        )
        handle.result = result
        handle.done.resolve(result)
        self._pump()

    # -- blocking API --------------------------------------------------------
    def wait(self, handle: JobHandle) -> JobResult:
        """Drive the simulation until ``handle``'s job completes."""
        return self.sim.run_until(handle.done)

    def drain(self, limit: Optional[float] = None) -> list[JobResult]:
        """Drive the simulation until every submitted job completes."""
        pending = all_of(
            self.sim, [h.done for h in self.handles.values()]
        )
        return self.sim.run_until(pending, limit=limit)

    def finish(self) -> dict[str, Any]:
        """Stop the plane and report the multi-tenant summary.

        ``completed`` counts the jobs that finished, whatever their
        outcome; ``failed`` and ``timeouts`` count the ones among them
        whose program raised or that ran out of time."""
        if not self._finished:
            self._finished = True
            self.router.close()
            fold_cluster(self.cluster)
        m = self.metrics
        violations = int(m.total("serve.audit_violations", default=0.0))
        by_tenant = m.by_label("tenant")
        return {
            "jobs": self._next_id,
            "completed": int(m.total("serve.completed", default=0.0)),
            "timeouts": int(m.total("serve.timeouts", default=0.0)),
            "failed": int(m.total("serve.failed", default=0.0)),
            "audit_violations": violations,
            "tenants": {
                name: {
                    "weight": t.weight,
                    "served_ranks": t.served,
                    "completed": int(
                        by_tenant.get(name, {}).get("serve.completed", 0.0)
                    ),
                    "queued": len(t.queue),
                }
                for name, t in sorted(self.tenants.items())
            },
            "elapsed": self.sim.now,
        }
