"""Service deployment: EL replication groups, store replicas, placement.

:func:`private_deployment` deploys these once per job on a private
cluster (what ``run_job`` does for a v2 job); the control plane
(``repro.serve``) deploys them once per *cluster* and shares them
between every job it admits.  Both call the same helpers so there is
exactly one encoding of the paper's service topology — shard names
(``el:<s>`` / ``el:<s>.<r>``), replica placement on independent hosts,
supervisor registration.

``ns`` prefixes both the service names and the names of any hosts the
helpers create, so two concurrent deployments on one shared cluster can
coexist: without it they would collide on the network's host table (a
hard error) and silently steal each other's fabric listeners.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.event_logger import EventLoggerServer
from ..runtime.cluster import Cluster
from ..runtime.config import TestbedConfig
from ..runtime.fabric import Fabric
from ..runtime.mpirun import Deployment
from ..runtime.progfile import DeploymentPlan
from ..store.replica import StoreReplica
from .services import ServiceSupervisor

__all__ = ["deploy_el_groups", "deploy_store", "private_deployment"]


def deploy_el_groups(
    cluster: Cluster,
    fabric: Any,
    cfg: TestbedConfig,
    el_hosts: list,
    *,
    n_shards: int,
    supervisor: Optional[Any] = None,
    ns: str = "",
    tracer: Optional[Any] = None,
    metrics: Optional[Any] = None,
) -> tuple[list[list[str]], list[EventLoggerServer]]:
    """Deploy the EL replication group: ``n_shards`` × ``el_replicas``.

    Ranks shard by ``rank % n_shards``; each shard keeps
    ``cfg.el_replicas`` service instances.  Replica 0 keeps the classic
    ``el:<shard>`` name on the caller-provided host (single-replica
    deployments and their fault plans are unchanged); extra replicas
    are ``el:<shard>.<r>`` and each get their own machine — colocated
    replicas would share a NIC (and fate, under host faults), defeating
    the independence the replication group exists to buy.  Each replica
    registers with the supervisor individually, so service faults can
    crash one replica of a shard.
    """
    sim = cluster.sim
    tracer = tracer if tracer is not None else cluster.tracer
    metrics = metrics if metrics is not None else cluster.metrics
    n_rep = max(1, cfg.el_replicas)
    el_groups: list[list[str]] = []
    loggers: list[EventLoggerServer] = []
    for s in range(n_shards):
        names = [
            f"{ns}el:{s}" if r == 0 else f"{ns}el:{s}.{r}"
            for r in range(n_rep)
        ]
        for r, el_name in enumerate(names):
            host = (
                el_hosts[s]
                if r == 0
                else cluster.add_aux(
                    f"el-host{s}.{r}", site=el_hosts[s].site, namespace=ns
                )
            )
            el = EventLoggerServer(
                sim, host, fabric, cfg, name=el_name,
                tracer=tracer, metrics=metrics,
                shard=s,
                peer_names=tuple(n for n in names if n != el_name),
            )
            el.start()
            loggers.append(el)
            if supervisor is not None:
                supervisor.register(el.name, el)
        el_groups.append(names)
    return el_groups, loggers


def deploy_store(
    cluster: Cluster,
    fabric: Any,
    cfg: TestbedConfig,
    cs_hosts: list,
    *,
    supervisor: Optional[Any] = None,
    ns: str = "",
    tracer: Optional[Any] = None,
    metrics: Optional[Any] = None,
) -> tuple[list[str], list[StoreReplica]]:
    """Deploy the checkpoint-store replica set, one replica per host."""
    sim = cluster.sim
    tracer = tracer if tracer is not None else cluster.tracer
    metrics = metrics if metrics is not None else cluster.metrics
    servers: list[StoreReplica] = []
    for i, host in enumerate(cs_hosts):
        cs = StoreReplica(
            sim, host, fabric, cfg, name=f"{ns}cs:{i}",
            tracer=tracer, metrics=metrics,
        )
        cs.start()
        servers.append(cs)
        if supervisor is not None:
            supervisor.register(cs.name, cs)
    return [s.name for s in servers], servers


def private_deployment(
    cluster: Cluster,
    nprocs: int,
    plan: Optional[DeploymentPlan] = None,
    spares: int = 0,
) -> Deployment:
    """One MPICH-V2 job's own machines and services on ``cluster``.

    Without a ``plan``, the paper's typical setup: one reliable machine
    hosting the dispatcher, the event logger(s) and the checkpoint
    scheduler, one reliable machine per checkpoint-store replica, plus
    the volatile computing nodes (and ``spares`` replacements).  A
    :class:`~repro.runtime.progfile.DeploymentPlan` (e.g. parsed from a
    §4.7 program file) overrides machine placement; its computing-node
    count must match ``nprocs`` and its EL lines set the shard count
    (otherwise ``cfg.el_servers``).
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
        spare_hosts = [cluster.add_cn(f"spare{i}") for i in range(spares)]
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
    supervisor = ServiceSupervisor(
        cluster.sim, cfg, tracer=cluster.tracer, metrics=cluster.metrics
    )
    el_groups, loggers = deploy_el_groups(
        cluster, fabric, cfg, el_hosts,
        n_shards=len(el_hosts), supervisor=supervisor,
    )
    cs_names, servers = deploy_store(
        cluster, fabric, cfg, cs_hosts, supervisor=supervisor,
    )
    return Deployment(
        cluster, fabric, cn_hosts,
        service=service, sched_host=sched_host, spare_hosts=spare_hosts,
        el_groups=el_groups, loggers=loggers,
        cs_names=cs_names, servers=servers, cs_hosts=cs_hosts,
        supervisor=supervisor,
    )
