"""Service deployment: EL replication groups, store replicas, placement.

:func:`private_deployment` deploys these once per job on a private
cluster (what ``run_job`` does for a v2 job); the control plane
(``repro.serve``) deploys them once per *cluster* and shares them
between every job it admits.  Both call :func:`deploy_services`, so
there is exactly one encoding of the paper's service topology — shard
names (``el:<s>`` / ``el:<s>.<r>``), replica placement on independent
hosts, supervisor registration.
"""

from __future__ import annotations

from typing import Optional

from ..core.event_logger import EventLoggerServer
from ..runtime.cluster import Cluster
from ..runtime.fabric import Fabric
from ..runtime.mpirun import Deployment
from ..runtime.progfile import DeploymentPlan
from ..store.replica import StoreReplica
from .services import ServiceSupervisor

__all__ = ["deploy_services", "private_deployment"]


def deploy_services(
    cluster: Cluster, fabric: Fabric, el_hosts: list, cs_hosts: list
) -> tuple[
    ServiceSupervisor, list[list[str]], list[EventLoggerServer],
    list[StoreReplica],
]:
    """Start the EL replication groups and the store replica set.

    One EL shard per host of ``el_hosts`` (ranks shard by ``rank %
    len(el_hosts)``), each of ``cfg.el_replicas`` service instances.
    Replica 0 keeps the classic ``el:<shard>`` name on the given host;
    extra replicas are ``el:<shard>.<r>`` and each get their own machine
    — colocated replicas would share a NIC (and fate, under host
    faults), defeating the independence the replication group exists to
    buy.  Then one store replica ``cs:<i>`` per host of ``cs_hosts``.
    Every service registers with the returned supervisor individually,
    so service faults can crash one replica.  Returns the supervisor,
    the shard name groups, the loggers and the store replicas.
    """
    sim, cfg = cluster.sim, cluster.cfg
    tracer, metrics = cluster.tracer, cluster.metrics
    supervisor = ServiceSupervisor(sim, cfg, tracer=tracer, metrics=metrics)
    n_rep = max(1, cfg.el_replicas)
    el_groups: list[list[str]] = []
    loggers: list[EventLoggerServer] = []
    for s, el_host in enumerate(el_hosts):
        names = [f"el:{s}" if r == 0 else f"el:{s}.{r}" for r in range(n_rep)]
        for r, el_name in enumerate(names):
            host = (
                el_host if r == 0
                else cluster.add_aux(f"el-host{s}.{r}", site=el_host.site)
            )
            el = EventLoggerServer(
                sim, host, fabric, cfg, name=el_name,
                tracer=tracer, metrics=metrics,
                shard=s,
                peer_names=tuple(n for n in names if n != el_name),
            )
            el.start()
            loggers.append(el)
            supervisor.register(el.name, el)
        el_groups.append(names)
    servers: list[StoreReplica] = []
    for i, host in enumerate(cs_hosts):
        cs = StoreReplica(
            sim, host, fabric, cfg, name=f"cs:{i}",
            tracer=tracer, metrics=metrics,
        )
        cs.start()
        servers.append(cs)
        supervisor.register(cs.name, cs)
    return supervisor, el_groups, loggers, servers


def private_deployment(
    cluster: Cluster,
    nprocs: int,
    plan: Optional[DeploymentPlan] = None,
) -> Deployment:
    """One MPICH-V2 job's own machines and services on ``cluster``.

    Without a ``plan``, the paper's typical setup: one reliable machine
    hosting the dispatcher, the event logger(s) and the checkpoint
    scheduler, one reliable machine per checkpoint-store replica, plus
    the volatile computing nodes, and no spares.  A
    :class:`~repro.runtime.progfile.DeploymentPlan` (e.g. parsed from a
    §4.7 program file) overrides machine placement; its computing-node
    count must match ``nprocs``, its SPARE lines are the replacement
    machines and its EL lines set the shard count (otherwise
    ``cfg.el_servers``).
    """
    cfg = cluster.cfg
    if plan is not None and plan.nprocs != nprocs:
        raise ValueError(
            f"program file declares {plan.nprocs} computing nodes, "
            f"job asked for {nprocs}"
        )
    n_cs = max(1, cfg.ckpt_servers)
    if plan is None:
        service = cluster.add_aux("service")  # dispatcher + EL(s) + scheduler
        cs_hosts = [
            cluster.add_aux("cs-host" if i == 0 else f"cs-host{i}")
            for i in range(n_cs)
        ]
        cn_hosts = [cluster.add_cn(f"cn{r}") for r in range(nprocs)]
        spare_hosts = []
        el_hosts = [service] * max(1, cfg.el_servers)
        sched_host = service
    else:
        aux_names = set(plan.els) | {plan.cs, plan.scheduler, plan.dispatcher}
        machines = {
            name: cluster.add_aux(
                name, site=plan.options.get(name, {}).get("site", "site0")
            )
            for name in sorted(aux_names)
        }
        for name in plan.cns + plan.spares:
            machines[name] = cluster.add_cn(
                name, site=plan.options.get(name, {}).get("site", "site0")
            )
        cn_hosts = [machines[n] for n in plan.cns]
        spare_hosts = [machines[n] for n in plan.spares]
        el_hosts = [machines[n] for n in plan.els]
        # the §4.7 program-file grammar names a single CS machine; extra
        # replicas colocate there (they still fail independently as
        # *services* under the supervisor)
        cs_hosts = [machines[plan.cs]] * n_cs
        sched_host = machines[plan.scheduler]
        service = machines[plan.dispatcher]

    fabric = Fabric(cluster)
    supervisor, el_groups, loggers, servers = deploy_services(
        cluster, fabric, el_hosts, cs_hosts
    )
    return Deployment(
        cluster, fabric, cn_hosts,
        service=service, sched_host=sched_host, spare_hosts=spare_hosts,
        el_groups=el_groups, loggers=loggers, servers=servers,
        supervisor=supervisor,
    )
