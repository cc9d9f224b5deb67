"""MPICH-V2: the pessimistic sender-based message-logging channel.

Each computing node runs two cooperating entities (Section 4.4 of the
paper): the **MPI process** (our application generator, driving the
MPICH stack over :class:`V2Device`) and the **communication daemon**
(:class:`V2Daemon`), connected by a synchronous UNIX socket.  The
daemon owns every network socket and runs fully asynchronously, which
is why MPICH-V2 keeps both directions of a link flowing while P4
serializes them (Figure 9), and why an MPI_Isend costs only a local
copy (Table 1).

This module is the *protocol core*: logical clocks, the sender log
(SAVED), the RESTART1/RESTART2 control handling of Appendix A, and the
:class:`V2Device` channel facade.  The daemon's I/O machinery lives in
focused modules composed here — :class:`~repro.core.peers.PeerManager`
(the peer mesh), :class:`~repro.core.el_client.EventLogClient` (the
WAITLOGGED gate, cleared by cumulative quorum acks keyed by each
event's receiver clock), :class:`~repro.core.ckpt_client.CheckpointClient`
(capture and quorum push),
:class:`~repro.core.ctrl_client.ControlPlaneClient` (dispatcher and
scheduler links), and :class:`~repro.core.delivery.DeliveryPipeline`
(duplicate discard, replay holdback, process forwarding) — all over
the shared :class:`~repro.runtime.session.Session` /
:class:`~repro.runtime.session.ServiceBase` connection layer.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..devices.base import ChannelDevice
from ..mpi.datatypes import Envelope
from ..mpi.protocol import FIRST_KINDS, Packet, PacketKind, inline_packet
from ..runtime.retry import RetryPolicy
from ..runtime.session import Session
from ..simnet.kernel import Future, Gate
from ..simnet.node import Host
from .ckpt_client import CheckpointClient
from .clocks import ClockState, EventRecord
from .ctrl_client import ControlPlaneClient
from .delivery import DeliveryPipeline
from .el_client import EventLogClient
from .peers import PeerManager
from .replay import CheckpointImage, DeliveryRecord, ReplayState
from .sender_log import SenderLog

__all__ = ["V2Daemon", "V2Device"]


class V2Daemon:
    """One incarnation of the communication daemon for one rank.

    Built by its dispatcher ``disp`` (a
    :class:`~repro.ft.dispatcher.Dispatcher`), from which it takes the
    simulator, testbed, fabric, tracer and registry, and through
    ``disp.dep`` its wiring: every replica of its EL shard, the store
    replicas, the scheduler (``disp.scheduler``, ``None`` without
    checkpointing) and ``dep.job_key(rank)``, the rank's identity on
    those (possibly shared) services.  ``rng`` is its reconnect-jitter
    stream.

    Its parts take the daemon as ``core`` and read the rest from it:
    ``sim``, ``cfg``, ``fabric``, ``host``, ``rank``, ``size``,
    ``incarnation``, ``tracer``, ``metrics``, ``rng``,
    ``_note_outage_retry``, :meth:`session` (a link to a service),
    ``_spawn(gen, label)`` (an incarnation-named process) and
    :meth:`proc_name`.
    """

    def __init__(self, disp: Any, rank: int, host: Host, incarnation: int) -> None:
        dep = disp.dep
        self.disp = disp
        self.sim = sim = disp.sim
        self.cfg = cfg = disp.cfg
        self.fabric = disp.fabric
        self.rank = rank
        self.size = disp.nprocs
        self.host = host
        self.incarnation = incarnation
        self.tracer = disp.tracer
        self.rng = disp.cluster.rng.stream(f"{dep.ns}reconnect:d{rank}")

        # protocol state (restored from a checkpoint image at restart)
        self.clock = ClockState()
        self.app_footprint = 0
        self.saved = SenderLog(
            ram_budget=self._log_ram_budget(),
            disk_budget=cfg.cn_swap,
            slab=cfg.log_slab_bytes,
        )
        # only image capture reads the delivery log: kept with a scheduler
        self.delivery_log: Optional[list[DeliveryRecord]] = [] if disp.scheduler else None
        self.replay: Optional[ReplayState] = None
        self.op_index = 0
        # sequence values at the restored checkpoint (0,0 without an image)
        self.restart_base_send = 0
        self.restart_base_recv = 0
        self.device: Optional["V2Device"] = None

        self.finalized = False
        self.ready = Gate(sim, opened=False, name=f"d{rank}.ready")

        # accounting
        self.cpu_tax_owed = 0.0

        # metric handles, bound once (get-or-create by (name, rank): a
        # restarted daemon's counters continue across incarnations)
        m = self.metrics = disp.metrics
        self._m_log_bytes = m.counter("senderlog.bytes", rank=rank)
        self._m_log_spill = m.counter("senderlog.spill_bytes", rank=rank)
        self._m_log_gc = m.counter("senderlog.gc_bytes", rank=rank)
        self._m_log_ram = m.gauge("senderlog.ram_bytes", rank=rank)
        self._m_log_disk = m.gauge("senderlog.disk_bytes", rank=rank)
        self._m_log_msgs = m.gauge("senderlog.msgs", rank=rank)
        self._m_del_replayed = m.counter("deliveries.replayed", rank=rank)
        self._m_del_fresh = m.counter("deliveries.fresh", rank=rank)
        # infrastructure-outage accounting (EL/CS/peer reconnects)
        self._m_outage_retries = m.counter("outage.retries", rank=rank)
        self._m_outage_backoff = m.counter("outage.backoff_s", rank=rank)

        # the daemon's I/O components, over the shared session layer;
        # ranks shard over the EL groups, a rank's group is every
        # replica of its shard
        key = dep.job_key(rank)
        self.el = EventLogClient(
            self, tuple(dep.el_groups[rank % len(dep.el_groups)]), key
        )
        self.peers = PeerManager(self)
        self.ckpt = CheckpointClient(self, tuple(s.name for s in dep.servers), key)
        sched = disp.scheduler
        self.ctrl = ControlPlaneClient(self, sched.name if sched is not None else None)
        self.delivery = DeliveryPipeline(self)

    def session(
        self, target: str, scope: str, max_tries: Optional[int] = None, **kw: Any
    ) -> Session:
        """A link to service ``target`` under this incarnation's retry
        policy, jitter stream, outage accounting, tracer and registry."""
        return Session(
            self.sim, self.fabric, self.host, target,
            policy=RetryPolicy.from_config(self.cfg, max_tries=max_tries),
            rng=self.rng, on_retry=self._note_outage_retry,
            tracer=self.tracer, metrics=self.metrics, scope=scope,
            labels={"rank": self.rank}, **kw,
        )

    # ------------------------------------------------------------------
    # startup / recovery (phases A and B)
    # ------------------------------------------------------------------
    def start(self) -> Generator[Future, Any, None]:
        """Bring the daemon up; on restart, run recovery first."""
        self.delivery.start_t = self.sim.now
        self.peers.listener.listen()
        # connect to the event logger and (phase A) download logged events;
        # the EL may itself be crashed or partitioned away right now, so
        # this (like every infrastructure connection) retries with backoff
        yield from self.el.connect()
        self.el.online()
        image: Optional[CheckpointImage] = None
        if self.incarnation > 0:
            # overlap the two recovery downloads: the event-log prefetch
            # (from clock 0 — ReplayState drops what the image covers)
            # runs while the streamed image fetch is still arriving
            prefetch: Future = Future(self.sim, name=f"d{self.rank}.elprefetch")
            self._spawn(self._prefetch_events(prefetch), "el.prefetch")
            image = yield from self.ckpt.store.fetch()
            if image is not None:
                self._restore(image)
            events = yield prefetch
            self.replay = ReplayState(image, events)
            self.peers.needs_restart1 = set(self.peers.links)
            self.tracer.emit(
                self.sim.now,
                "v2.restart",
                rank=self.rank,
                incarnation=self.incarnation,
                from_send_seq=self.restart_base_send,
                from_recv_seq=self.restart_base_recv,
                replay_events=len(self.replay.events),
            )
        # control-plane connections (best-effort under partitions: a daemon
        # that cannot reach the dispatcher still computes, it just cannot
        # report UNRECOVERABLE states)
        yield from self.ctrl.connect_dispatcher()
        if (
            self.replay is not None
            and self.replay.image is None
            and self.replay.events
            and min(e.rclock for e in self.replay.events) > 1
        ):
            # a checkpoint pruned the event prefix (and its GC destroyed the
            # senders' copies), but the image itself is gone with the
            # checkpoint server: this node cannot be replayed.  The paper's
            # "restart from scratch, at worst" can only mean the whole
            # application: tell the dispatcher.
            if self.ctrl.disp_end is not None:
                yield from self.ctrl.disp_end.write(
                    16, ("UNRECOVERABLE", self.rank)
                )
            return  # never open the ready gate; the global restart reaps us
        self.ctrl.connect_scheduler()
        # peer connections: initially to lower ranks only (they listen
        # first); a restarted daemon reconnects to everyone it can reach
        self.peers.connect_initial()
        self.peers.listener.run_accept()
        self.delivery.start_forwarding()
        self.el.start_io()
        self.ctrl.start_sched_loop()
        self.ctrl.start_heartbeat(self.cfg.hb_interval, self.cfg.hb_timeout)
        self.ready.open()
        self.delivery.maybe_caught_up()

    def proc_name(self, label: str) -> str:
        """The name of this incarnation's daemon process ``label`` — also
        the one a process-less handler reports its profiled time under."""
        return f"d{self.rank}.{label}.i{self.incarnation}"

    def _spawn(self, gen, label: str) -> None:
        # not supervised: daemon loops handle expected failures
        # (Disconnected, HostDown) themselves; anything else is a bug and
        # must crash the simulation loudly
        p = self.sim.spawn(gen, name=self.proc_name(label), supervised=False)
        self.host.register(p)

    def _note_outage_retry(self, attempt: int, delay: float) -> None:
        self._m_outage_retries.inc()
        self._m_outage_backoff.inc(delay)

    def _prefetch_events(self, fut: Future):
        """Phase-A event download, overlapped with the image fetch."""
        events = yield from self.el.download(from_rclock=0)
        fut.resolve(events)

    def _restore(self, image: CheckpointImage) -> None:
        # the sequences restart at 0: fast-forwarding the recorded history
        # re-accumulates them deterministically and must land exactly on
        # the image values at the boundary (asserted in ckpt_poll); the
        # HR/HS vectors carry over for the RESTART handshake
        self.clock = ClockState(hr=dict(image.clock.hr), hs=dict(image.clock.hs))
        self.app_footprint = image.app_footprint
        self.saved = SenderLog.restore(self._log_ram_budget(), self.cfg.cn_swap,
                                       image.saved, slab=self.cfg.log_slab_bytes)
        self.delivery_log = list(image.delivery_log)
        self.delivery.forwarded_hw = dict(image.clock.hr)
        self.op_index = 0
        self.ckpt.restore(image)
        self.restart_base_send = image.clock.send_seq
        self.restart_base_recv = image.clock.recv_seq
        # local cost of jumping to the checkpoint (Condor restart)
        # charged by the dispatcher via restart_spawn_delay; nothing here

    # ------------------------------------------------------------------
    # transmit / protocol dispatch
    # ------------------------------------------------------------------
    def _handle_ctrl(self, q: int, msg: tuple) -> None:
        kind = msg[0]
        if kind == "RESTART1":
            # q restarted: it has everything up to hp from us
            hp = msg[1]
            if hp < self.saved.gc_floor.get(q, 0):
                # q lost its checkpoint: it asks for messages our garbage
                # collector already destroyed -- unrecoverable locally
                self._spawn(self.ctrl.report_unrecoverable(q), "unrec")
                return
            self.clock.hs[q] = hp
            self.peers.enqueue_ctrl(q, ("RESTART2", self.clock.hr.get(q, 0)))
            for env in self.saved.messages_for(q, after_sclock=hp):
                self.delivery.enqueue_replay(q, env)
            if self.device is not None:
                self.device.notify_peer_restarted(q)
            self.tracer.emit(
                self.sim.now, "v2.restart1", at=self.rank, peer=q, hp=hp
            )
        elif kind == "RESTART2":
            # we restarted: q has everything up to hq from us; re-send the
            # pre-checkpoint saved messages it lacks (in-transit at crash)
            hq = msg[1]
            self.peers.needs_restart1.discard(q)
            self.tracer.emit(
                self.sim.now, "v2.restart2", rank=self.rank, peer=q,
                remaining=len(self.peers.needs_restart1),
            )
            self.clock.hs[q] = max(self.clock.hs.get(q, 0), hq)
            for env in self.saved.messages_for(q, after_sclock=hq):
                if env.sclock <= self.restart_base_send:
                    self.delivery.enqueue_replay(q, env)
            self.peers.release_held(q)
        elif kind == "RTSDUP":
            # the receiver already delivered our rendezvous message: the
            # payload stays in SAVED; complete the pending send locally
            if self.device is not None:
                self.device.resolve_duplicate_rts(msg[1])
        elif kind == "GC":
            # audited before collecting: the *threshold* is the safety
            # fact (a too-high value discards payloads an un-checkpointed
            # receiver may still ask to be re-sent)
            self.tracer.emit(
                self.sim.now, "v2.gc", rank=self.rank, peer=q, upto=msg[1]
            )
            freed = self.saved.collect(q, msg[1])
            if freed:
                self._m_log_gc.inc(freed)
                self._note_log_occupancy()
        else:  # pragma: no cover
            raise RuntimeError(f"daemon got control {kind!r}")

    # ------------------------------------------------------------------
    # lifecycle notifications
    # ------------------------------------------------------------------
    def notify_finalized(self) -> Generator[Future, Any, None]:
        """Tell the dispatcher this rank's MPI process completed."""
        self.finalized = True
        yield from self.ctrl.report_finalized()

    def take_cpu_tax(self) -> float:
        """Drain the daemon's accumulated CPU competition (LU effect)."""
        tax, self.cpu_tax_owed = self.cpu_tax_owed, 0.0
        return tax

    def _note_log_occupancy(self) -> None:
        """Refresh the sender-log occupancy gauges (time-weighted)."""
        now = self.sim.now
        on_disk = self.saved.bytes_on_disk
        self._m_log_ram.set(self.saved.bytes_total - on_disk, now)
        self._m_log_disk.set(on_disk, now)
        self._m_log_msgs.set(len(self.saved), now)

    def _log_ram_budget(self) -> int:
        """Main memory left for the message log after the application."""
        return max(
            64 << 20,
            self.cfg.cn_ram - self.app_footprint - self.cfg.os_reserved_ram,
        )

    def set_app_footprint(self, nbytes: int) -> None:
        """Declare the MPI process's memory; shrinks the log's RAM budget."""
        self.app_footprint = int(nbytes)
        self.saved.ram_budget = self._log_ram_budget()
        self.ckpt.resize_regions(self.app_footprint)


class V2Device(ChannelDevice):
    """The channel device the MPI process drives (the six PI primitives)."""

    def __init__(self, daemon: V2Daemon) -> None:
        d = daemon
        super().__init__(d.sim, d.cfg, d.rank, d.size, d.host, d.tracer)
        self.daemon = daemon
        daemon.device = self
        self._peer_restart_pending: set[int] = set()
        self._adi = None  # bound by the MPI object

    def bind_adi(self, adi) -> None:
        """Attach the progress engine (for recovery repairs)."""
        self._adi = adi

    # -- restart notifications (daemon -> ADI) -------------------------------
    def notify_peer_restart_pending(self, q: int) -> None:
        """A peer's connection dropped; repairs wait for its return."""
        self._peer_restart_pending.add(q)

    def resolve_duplicate_rts(self, sclock: int) -> None:
        """The receiver discarded our re-executed RTS as a duplicate."""
        if self._adi is None:
            return
        entry = self._adi._rndv_out.pop((self.rank, sclock), None)
        if entry is not None:
            _env, sreq = entry
            sreq.done.resolve_if_pending(None)
            self._wake_app(_env.dst)

    def _wake_app(self, src: int) -> None:
        """Unblock an MPI process waiting in pibrecv after external state
        changes (a no-op control packet re-runs its progress check)."""
        wake = Packet(
            PacketKind.CONTROL,
            Envelope(src=src, dst=self.rank, tag=-1, context=-1, nbytes=0),
            payload_bytes=0,
        )
        self.inbox.put((src, wake))

    def notify_peer_restarted(self, q: int) -> None:
        """A peer completed its RESTART handshake: repair ADI state."""
        self._peer_restart_pending.discard(q)
        if self._adi is not None:
            self._adi.peer_restarted(q)
            # repairing rendezvous state may complete requests the MPI
            # process is blocked waiting on inside pibrecv: wake it so the
            # progress loop re-checks its condition
            self._wake_app(q)

    # -- channel primitives ------------------------------------------------
    def piinit(self) -> Generator[Future, Any, None]:
        """Wait for the daemon's recovery/connections to complete."""
        yield self.daemon.ready.waitfor()

    def pifinish(self) -> Generator[Future, Any, None]:
        """Report completion to the dispatcher (daemon stays up)."""
        yield from self.daemon.notify_finalized()

    def pibsend(self, dst: int, pkt: Packet) -> Generator[Future, Any, bool]:
        """Hand one protocol packet to the daemon over the UNIX socket.

        Returns False when the packet was absorbed locally (fast-forward,
        or suppressed because the receiver already delivered it).
        """
        d = self.daemon
        env = pkt.env
        ff = self.fast_forward()
        if pkt.kind in FIRST_KINDS and env.sclock == 0:
            env.sclock = d.clock.tick_send()
            if not ff:
                # the sender-based copy (and its RAM/disk cost)
                disk_bytes = d.saved.append(env)
                d._m_log_bytes.inc(env.nbytes)
                if disk_bytes:
                    d._m_log_spill.inc(disk_bytes)
                d._note_log_occupancy()
                copy_time = env.nbytes / self.cfg.log_copy_bw
                if disk_bytes:
                    copy_time += disk_bytes / self.host.disk_bw
                handoff = (
                    self.cfg.unix_socket_latency
                    + (pkt.payload_bytes + self.cfg.packet_header_bytes)
                    / self.cfg.unix_socket_bw
                )
                yield self.sim.pause(handoff + copy_time)
        elif not ff:
            handoff = (
                self.cfg.unix_socket_latency
                + (pkt.payload_bytes + self.cfg.packet_header_bytes)
                / self.cfg.unix_socket_bw
            )
            yield self.sim.pause(handoff)
        if ff:
            return False
        suppressible = pkt.kind in FIRST_KINDS
        if suppressible and d.clock.suppressed(dst, env.sclock):
            return False  # receiver already delivered it (re-execution)
        d.peers.enqueue_app(dst, pkt)
        self.stats.bytes_sent += pkt.payload_bytes
        self.stats.msgs_sent += 1
        return True

    def try_send_now(self, dst: int, pkt: Packet) -> bool:
        """Nonblocking control-packet send (daemon handoff)."""
        # small control packets (CTS): hand to the daemon, never blocks
        self.daemon.peers.enqueue_app(dst, pkt)
        return True

    def pibrecv(self) -> Generator[Future, Any, tuple[int, Packet]]:
        """Next packet: synthesized during fast-forward, else from the
        daemon-fed inbox."""
        if self.fast_forward():
            rec = self.daemon.replay.next_ff_delivery()
            if rec is None:
                raise RuntimeError(
                    f"rank {self.rank}: fast-forward starved of deliveries "
                    f"(op {self.daemon.op_index} < {self.daemon.replay.ff_target_ops})"
                )
            yield self.sim.pause(0.0)
            env = rec.to_envelope(self.rank)
            return env.src, inline_packet(env, self.cfg)
        return (yield from super().pibrecv())

    def _pump_ready(self) -> None:
        pass  # the daemon pushes directly into the inbox

    def _wait_for_traffic(self) -> Generator[Future, Any, None]:
        yield self.inbox.when_nonempty()

    # -- hooks ----------------------------------------------------------------
    def on_app_deliver(self, env: Envelope, probes: int) -> None:
        """Tick the receive sequence, record the delivery, log the event."""
        d = self.daemon
        rclock = d.clock.tick_recv(env.src, env.sclock)
        if self.fast_forward():
            # fed from the recorded delivery log: already on the EL
            d._m_del_replayed.inc()
            if self.tracer.hot:
                self.tracer.emit(
                    self.sim.now, "v2.deliver", rank=self.rank, src=env.src,
                    sclock=env.sclock, rclock=rclock, mode="ff",
                )
            return
        if d.delivery_log is not None:
            d.delivery_log.append(DeliveryRecord(
                src=env.src, sclock=env.sclock, rclock=rclock, probes=probes,
                nbytes=env.nbytes, tag=env.tag, context=env.context,
                data=env.data,
            ))
        resume = d.replay.log_resume_clock if d.replay is not None else 0
        if rclock > resume:
            d.el.log_event(EventRecord(rclock, env.src, env.sclock, probes))
            d._m_del_fresh.inc()
            mode = "fresh"
        else:
            # an event the EL already holds: a forced-order re-delivery
            d._m_del_replayed.inc()
            mode = "replay"
        if self.tracer.hot:
            self.tracer.emit(
                self.sim.now, "v2.deliver", rank=self.rank, src=env.src,
                sclock=env.sclock, rclock=rclock, mode=mode,
            )

    def force_probe(self) -> Optional[bool]:
        """Replay-forced iprobe outcome (None: no override)."""
        d = self.daemon
        if d.replay is None:
            return None
        if self.fast_forward():
            if d.replay.ff_probe():
                # the logged successful probe: materialize the delivery so
                # the normal matching path can see it
                rec = d.replay.next_ff_delivery()
                if rec is not None:
                    env = rec.to_envelope(self.rank)
                    self.inbox.put((env.src, inline_packet(env, self.cfg)))
                return None
            return False
        return d.replay.replay_probe()

    def fast_forward(self) -> bool:
        """True while re-running the pre-checkpoint prefix."""
        d = self.daemon
        return d.replay is not None and d.replay.fast_forward(d.op_index)

    def app_compute(self, seconds: float) -> Generator[Future, Any, None]:
        """Advance time for a compute segment (+ daemon CPU tax)."""
        if self.fast_forward():
            return
        yield self.sim.pause(seconds + self.daemon.take_cpu_tax())

    def ckpt_poll(self) -> Generator[Future, Any, None]:
        """API-boundary safe point: take an ordered checkpoint here."""
        d = self.daemon
        d.op_index += 1
        if d.replay is None or d.op_index > d.replay.ff_target_ops:
            # ops inside the fast-forward prefix already had their dirty
            # effect captured by the restored image's region versions
            d.ckpt.touch_region(d.op_index)
        if d.replay is not None:
            d.delivery.maybe_caught_up()
        if (
            d.replay is not None
            and d.op_index == d.replay.ff_target_ops
            and (d.clock.send_seq, d.clock.recv_seq)
            != (d.restart_base_send, d.restart_base_recv)
        ):
            raise RuntimeError(
                f"rank {self.rank}: fast-forward diverged: sequences "
                f"({d.clock.send_seq},{d.clock.recv_seq}) != checkpoint "
                f"({d.restart_base_send},{d.restart_base_recv})"
            )
        if (
            d.ckpt.requested
            and not (d.replay is not None and d.replay.active(d.op_index))
        ):
            d.ckpt.requested = False
            image = d.ckpt.capture()
            yield self.sim.pause(self.cfg.ckpt_fork_cost)
            d.ckpt.start_push(image)
