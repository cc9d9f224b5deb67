"""The Dispatcher: launch, monitor, and restart (the mpirun of Section 4.7).

"The execution monitor first launches the execution of the different
programs (CS, EL, SC, CN), and then monitors the execution potentially
re-launching the crashed programs. ... a socket disconnection is
considered as a trusty fault detector."

:func:`launch` is MPICH-V2's contribution to the one launch path
(:func:`repro.runtime.mpirun.start`): on a deployment that already has
its event loggers and checkpoint store — the paper's typical private
setup from :func:`repro.ft.deploy.private_deployment`, or a control
plane's shared services — it adds the checkpoint scheduler and the
:class:`Dispatcher`, which starts every rank and restarts every crashed
one through the recovery protocol.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..core.v2_device import V2Daemon, V2Device
from ..runtime.mpirun import Deployment, RankSet
from ..runtime.session import ServiceBase
from ..simnet.node import Host
from ..simnet.streams import Disconnected, StreamEnd
from .ckpt_scheduler import CheckpointScheduler
from .failure import FaultContext

__all__ = ["Dispatcher", "launch"]


class _ControlListener(ServiceBase):
    """The dispatcher's daemon-facing control service.

    Daemons report UNRECOVERABLE (a rank whose image is gone but whose
    logs were garbage-collected) and FINALIZED over this link.  On the
    shared service lifecycle the listener can be stopped and restarted
    without leaking acceptors — the old inline accept loop could not.
    """

    metric_ns = "disp"

    def __init__(self, dispatcher: "Dispatcher", *args: Any, **kw: Any) -> None:
        super().__init__(*args, **kw)
        self._dispatcher = dispatcher
        self._rank_of: dict[StreamEnd, int] = {}

    def on_accept(self, end: StreamEnd, hello: Any) -> None:
        # hello = ("HELLO", rank, incarnation); a (re)connect is itself
        # a liveness proof, so it refreshes the heartbeat clock too
        if type(hello) is tuple and len(hello) >= 2 and hello[0] == "HELLO":
            self._rank_of[end] = hello[1]
            self._dispatcher.note_heartbeat(hello[1])
        super().on_accept(end, hello)

    def on_ping(self, end: StreamEnd, msg: tuple) -> None:
        rank = self._rank_of.get(end)
        if rank is not None:
            self._dispatcher.note_heartbeat(rank)

    def on_stop(self, cause: Any) -> None:
        self._rank_of.clear()

    def _serve(self, end: StreamEnd, hello: Any):
        while True:
            try:
                msg = yield from self._read_record(end)
            except Disconnected:
                return  # crash detection is handled via host.on_crash
            if msg[0] == "UNRECOVERABLE":
                # a rank's checkpoint image is gone but its logs were
                # already garbage-collected: per-process replay is
                # impossible and the whole application restarts from
                # scratch ("restart from scratch, at worst", Section 4.3)
                self._dispatcher._trigger_global_restart()
            # FINALIZED messages are informational; completion is tracked
            # through the app process future (same information, no race)


class Dispatcher(RankSet):
    """Launches rank processes and restarts them on failure."""

    def __init__(
        self,
        dep: Deployment,
        program: Callable,
        params: dict[str, Any],
        nprocs: int,
        scheduler: Optional[CheckpointScheduler],
    ) -> None:
        # per-job observability comes with the deployment: the control
        # plane hands each dispatcher its job's own tracer/metrics so
        # concurrent jobs never share a registry; a single-job
        # deployment keeps the cluster's
        super().__init__(dep, program, params, nprocs)
        self.cluster = dep.cluster
        self.fabric = dep.fabric
        self.spare_hosts = list(dep.spare_hosts)
        self.scheduler = scheduler
        self._global_restarting = False
        m = self.metrics
        self._m_faults = m.counter("ft.faults")
        self._m_restarts = m.counter("ft.restarts")
        self._m_global_restarts = m.counter("ft.global_restarts")
        self._m_downtime = m.histogram("ft.downtime_s")
        self._m_suspected = m.counter("disp.suspected")
        self._m_suspect = m.gauge("disp.suspect")
        # fault -> detection latency, split by which detector fired: the
        # socket-disconnection detector (the paper's "trusty" one) or the
        # heartbeat monitor that had already flagged the rank suspect
        self._m_detect_lat = {
            "socket": m.histogram("disp.detect_latency_s", source="socket"),
            "heartbeat": m.histogram("disp.detect_latency_s", source="heartbeat"),
        }
        # ranks currently between fault and caught-up (outstanding
        # recoveries), kept as a time-weighted gauge for the sampler
        self.recovering: set[int] = set()
        self._m_recovering = m.gauge("disp.recovering")
        # heartbeat bookkeeping: last PING (or accept) per rank, and the
        # set of ranks whose link has gone quiet past hb_timeout —
        # partitioned-but-alive daemons the socket detector cannot see
        self.last_hb: dict[int, float] = {}
        self.suspects: set[int] = set()
        self.listener = _ControlListener(
            self, self.sim, self.host, self.fabric, "dispatcher",
            tracer=self.tracer, metrics=self.metrics,
        )

    # -- launch --------------------------------------------------------------
    def start(self) -> None:
        """Listen for daemon control links and launch every rank."""
        self.listener.start()
        for r, host in enumerate(self.dep.cn_hosts):
            self._spawn_rank(r, host)
        # one of the listener's processes: ``stop`` ends it with the job
        self.listener._spawn(self._hb_monitor(), "disp.hb-monitor")

    # -- heartbeat monitoring ------------------------------------------------
    def note_heartbeat(self, rank: int) -> None:
        """A PING (or fresh control connection) arrived from ``rank``."""
        if not (0 <= rank < self.nprocs):
            return
        self.last_hb[rank] = self.sim.now
        if rank in self.suspects:
            self.suspects.discard(rank)
            self._m_suspect.set(float(len(self.suspects)), self.sim.now)
            self.tracer.emit(self.sim.now, "ft.suspect_clear", rank=rank)

    def _hb_monitor(self):
        """Flag ranks whose heartbeats stopped without a socket break.

        A crashed host tears its control stream down and the socket
        detector handles it; this loop catches the *partitioned* case,
        where the stream stays up but nothing flows."""
        timeout = self.cfg.hb_timeout
        while not self.done.done:
            yield self.sim.pause(timeout / 2)
            now = self.sim.now
            for st in self.states:
                r = st.rank
                if st.finished or st.host is None or st.host.failed:
                    continue
                seen = self.last_hb.get(r, st.spawn_time)
                if now - seen > timeout and r not in self.suspects:
                    self.suspects.add(r)
                    self._m_suspected.inc()
                    self._m_suspect.set(float(len(self.suspects)), now)
                    self.tracer.emit(
                        now, "ft.suspect", rank=r, quiet_s=now - seen
                    )

    def note_caught_up(self, rank: int) -> None:
        """A restarted rank's replay drained (its daemon calls this)."""
        if rank in self.recovering:
            self.recovering.discard(rank)
            self._m_recovering.set(float(len(self.recovering)), self.sim.now)

    def stop(self, cause: Any) -> None:
        """Withdraw the control listener (dropping every daemon link,
        ending the heartbeat monitor) and the checkpoint scheduler."""
        self.listener.stop(cause)
        if self.scheduler is not None:
            self.scheduler.stop(cause)

    def wipe_logs(self) -> None:
        """Forget the job's logged events, images and GC floors: after a
        global restart they describe a dead history.  On shared services
        only this job's keys go; a private store is wiped outright (an
        evict would sweep its chunks as ``store.gc``)."""
        dep = self.dep
        keys = [dep.job_key(r) for r in range(self.nprocs)]
        for el in dep.loggers:
            el.evict(keys)
        for srv in dep.servers:
            if dep.shared:
                srv.evict(keys)
            else:
                srv.wipe()
        if self.scheduler is not None:
            self.scheduler.reset_store_state()

    def _trigger_global_restart(self) -> None:
        if self._global_restarting or self.done.done:
            return
        self._global_restarting = True
        p = self.sim.spawn(self._global_restart(), name="disp.global-restart")
        self.host.register(p)

    def _global_restart(self):
        self.tracer.emit(self.sim.now, "ft.global_restart")
        self._m_global_restarts.inc()
        # per-rank recovery arcs are superseded by the global one
        self.recovering.clear()
        self._m_recovering.set(0.0, self.sim.now)
        # invalidate every per-rank monitor/restart before tearing down
        for st in self.states:
            st.incarnation += 1
            st.finished = False
        for st in self.states:
            if st.host is not None and not st.host.failed:
                st.host.crash()
        yield self.sim.pause(
            self.cfg.restart_detect_delay + self.cfg.restart_spawn_delay
        )
        if self.done.done:
            return
        self.wipe_logs()
        for st in self.states:
            if st.host is not None and st.host.failed:
                st.host.restart()
        self.global_restarts += 1
        self._global_restarting = False
        for st in self.states:
            # incarnation was already bumped; _spawn_rank bumps again, so
            # compensate to keep the sequence dense
            st.incarnation -= 1
            self._spawn_rank(st.rank, st.host)

    def _spawn_rank(self, rank: int, host: Host) -> None:
        st = self.states[rank]
        incarnation = st.begin(host, self.sim.now)
        daemon = V2Daemon(self, rank, host, incarnation)
        device = V2Device(daemon)
        st.daemon = daemon
        dproc = self.sim.spawn(
            daemon.start(), name=f"daemon{rank}.i{incarnation}"
        )
        host.register(dproc)
        self.spawn_app(st, device)
        host.on_crash.append(
            lambda h, r=rank, inc=incarnation: self._on_host_crash(r, inc)
        )

    # -- monitoring / recovery ---------------------------------------------------
    def _on_host_crash(self, rank: int, incarnation: int) -> None:
        st = self.states[rank]
        if st.incarnation != incarnation:
            return
        # the dead incarnation's name goes too (processes, streams did)
        st.daemon.peers.listener.stop("host-crash")
        if self.done.done:
            return
        self.recovering.add(rank)
        self._m_recovering.set(float(len(self.recovering)), self.sim.now)
        p = self.sim.spawn(
            self._restart(rank, incarnation), name=f"disp.restart{rank}"
        )
        self.host.register(p)

    def _restart(self, rank: int, incarnation: int):
        st = self.states[rank]
        t_crash = self.sim.now
        yield self.sim.pause(self.cfg.restart_detect_delay)
        if self.done.done or st.incarnation != incarnation:
            return
        # a rank already flagged by the heartbeat monitor (partitioned,
        # then crashed) is attributed to the heartbeat detector; the
        # common crash path is the socket-disconnection detector
        source = "heartbeat" if rank in self.suspects else "socket"
        latency = self.sim.now - t_crash
        self._m_detect_lat[source].observe(latency)
        self.tracer.emit(
            self.sim.now, "ft.detect", rank=rank, source=source,
            latency_s=latency,
        )
        old_host = st.host
        if self.spare_hosts:
            host = self.spare_hosts.pop(0)
        else:
            host = old_host
        yield self.sim.pause(self.cfg.restart_spawn_delay)
        if self.done.done or st.incarnation != incarnation:
            return
        if host.failed:
            host.restart()
        st.finished = False  # a finished rank can be re-executed to serve peers
        self.total_restarts += 1
        self._m_restarts.inc()
        self._m_downtime.observe(self.sim.now - t_crash)
        self.tracer.emit(
            self.sim.now, "ft.restart", rank=rank, incarnation=incarnation + 1,
            host=host.name,
        )
        self._spawn_rank(rank, host)

    # -- fault-injection context ---------------------------------------------------
    def kill(self, rank: int) -> bool:
        """Crash ``rank``'s machine (a finished rank too: it is re-executed
        to serve its peers)."""
        st = self.states[rank]
        if st.host is None or st.host.failed or self.done.done:
            return False
        self.tracer.emit(self.sim.now, "ft.fault", rank=rank)
        self._m_faults.inc()
        st.host.crash()
        return True

    def fault_context(self) -> FaultContext:
        """The common kill/inspect interface plus V2's network hooks."""
        def partition(ranks, duration: float):
            """Cut the hosts of ``ranks`` off from everything else."""
            net = self.cluster.net
            group = {
                self.states[r].host
                for r in ranks
                if self.states[r].host is not None
            }
            rest = [h for h in net.hosts.values() if h not in group]
            return net.partition(group, rest, duration)

        def flap_link(a: int, b: int) -> int:
            """Break the live streams between the hosts of ranks a and b."""
            ha, hb = self.states[a].host, self.states[b].host
            if ha is None or hb is None or ha.failed or hb.failed:
                return 0
            return self.cluster.net.break_links(ha, hb, cause="link-flap")

        ctx = super().fault_context()
        ctx.partition = partition
        ctx.flap_link = flap_link
        return ctx

    def components(self) -> dict[str, Any]:
        return {"scheduler": self.scheduler, "dispatcher": self}


def launch(
    dep: Deployment,
    program: Callable,
    params: dict[str, Any],
    nprocs: int,
    *,
    checkpointing: bool = False,
    ckpt_policy: str = "round_robin",
    ckpt_interval: Optional[float] = None,
    ckpt_continuous: bool = False,
) -> Dispatcher:
    """Start an MPICH-V2 job on ``dep``: scheduler (if checkpointing),
    then the dispatcher and through it every rank.

    A periodic scheduler orders a checkpoint every ``ckpt_interval``
    seconds (30 when ``None``); a continuous one orders the next as the
    last ends and reads no interval, so passing one is refused.
    """
    scheduler = None
    if checkpointing:
        if ckpt_continuous and ckpt_interval is not None:
            raise ValueError(
                "a continuous checkpoint scheduler reads no ckpt_interval"
            )
        if not ckpt_continuous and ckpt_interval is None:
            ckpt_interval = 30.0
        scheduler = CheckpointScheduler(
            dep, nprocs, policy=ckpt_policy, interval=ckpt_interval
        )
        scheduler.start()
    dispatcher = Dispatcher(dep, program, params, nprocs, scheduler)
    dispatcher.start()
    return dispatcher
