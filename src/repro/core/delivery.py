"""The daemon's delivery pipeline: peer packets down to the MPI process.

One :class:`DeliveryPipeline` per daemon incarnation owns the receive
side of the node: phase-C duplicate discard against the per-sender
``forwarded_hw`` watermark, the forced-order holdback during replay,
and the UNIX-socket forward that models the daemon-to-process handoff.
It also accounts the incarnation's catch-up point (the ``v2.caught_up``
trace, the ``ft.replay_s`` histogram and the ``disp.note_caught_up``
call through which the dispatcher keeps its recovery gauge).

The forward is a FIFO server without a process: one ``daemon.fwd``
kernel event per packet, at the instant its socket transfer completes,
whose handler hands the packet to the MPI process and schedules the
next queued one.

Composes with the daemon core through the usual explicit interface:
``core`` provides the handles every part of a
:class:`~repro.core.v2_device.V2Daemon` reads (listed there) plus
``disp``, ``replay``, ``op_index``, ``device`` (or None), ``peers``
(the RTSDUP answer) and ``cpu_tax_owed``.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Any, Optional

from ..mpi.datatypes import Envelope
from ..mpi.protocol import FIRST_KINDS, Packet, PacketKind, inline_packet
from ..simnet.kernel import register_slot

__all__ = ["DeliveryPipeline"]

_PAYLOAD_KINDS = (PacketKind.SHORT, PacketKind.EAGER, PacketKind.DATA)


def _forwarded(pipe: "DeliveryPipeline", item: Optional[tuple]) -> None:
    if pipe.host.incarnation != pipe._life:
        return  # the host crashed: the forward died with it
    probe = pipe.sim._probe
    if probe is not None and probe.sampling:
        t0 = perf_counter()
        pipe._serve(item)
        probe.step_done(pipe._fwd_name, perf_counter() - t0)
    else:
        pipe._serve(item)


#: ``(EV_FWD, pipeline, (src, pkt))``: the packet crossed the UNIX socket
#: (``None``: the forward starts, so far with nothing in flight)
EV_FWD = register_slot(_forwarded, "daemon.fwd")


class DeliveryPipeline:
    """One rank's receive path: discard, holdback, forward, catch up."""

    def __init__(self, core: Any) -> None:
        self.core = core
        self.sim = core.sim
        self.host = core.host
        self._life = core.host.incarnation
        self.tracer = core.tracer
        # highest sclock passed up to the MPI process, per sender: the
        # duplicate-discard watermark of replay phase C
        self.forwarded_hw: dict[int, int] = {}
        # daemon -> MPI process forwarding (the UNIX socket, ordered):
        # packets waiting while one is in flight — or until the forward
        # starts, which ``_fwd_busy`` stands in for until then
        self._fwd_backlog: deque[tuple[int, Packet]] = deque()
        self._fwd_busy = True
        self._fwd_name = core.proc_name("fwd")
        self.start_t = 0.0
        self._caught_up = False
        self._m_replay_s = core.metrics.histogram("ft.replay_s", rank=core.rank)

    def enqueue_replay(self, dst: int, env: Envelope) -> None:
        """Old saved messages are re-sent with the payload inline, never held."""
        self.core.peers.links[dst].tx.put(inline_packet(env, self.core.cfg))

    def handle_app_packet(self, src: int, pkt: Packet) -> None:
        core = self.core
        env = pkt.env
        if pkt.kind in FIRST_KINDS:
            # duplicate discard (phase C): the RESTART handshake may re-send
            # messages we already passed up to the MPI process
            if env.sclock <= self.forwarded_hw.get(src, 0):
                if pkt.kind is PacketKind.RTS:
                    # a discarded rendezvous request still needs an answer,
                    # or the (restarted) sender waits forever for a CTS:
                    # tell it we already have the message
                    core.peers.enqueue_ctrl(src, ("RTSDUP", env.sclock))
                return
        if (
            core.replay is not None
            and core.replay.replaying()
            and pkt.kind in FIRST_KINDS
        ):
            # the forced-order holdback applies to the packets that *start*
            # a delivery; CTS and rendezvous DATA complete an exchange the
            # event order already admitted and must pass through, or the
            # handshake deadlocks behind its own consumed event
            for released in core.replay.offer_packet(pkt):
                self._release(released)
            self.maybe_caught_up()
            return
        self._release(pkt)

    def _release(self, pkt: Packet) -> None:
        # the duplicate-discard watermark advances only when the *payload*
        # goes up: an RTS must not bump it, or a sender that crashes
        # between its RTS and its DATA would have the re-executed RTS
        # swallowed as a duplicate and the message would be lost
        if pkt.kind in _PAYLOAD_KINDS:
            src = pkt.env.src
            self.forwarded_hw[src] = max(
                self.forwarded_hw.get(src, 0), pkt.env.sclock
            )
        self._forward(
            pkt.env.src if pkt.kind is not PacketKind.CTS else pkt.env.dst, pkt
        )

    def _forward(self, src: int, pkt: Packet) -> None:
        """Ship a packet across the UNIX socket to the MPI process."""
        if self._fwd_busy:
            self._fwd_backlog.append((src, pkt))
        else:
            self._fwd_busy = True
            self._send((src, pkt))
        self.core.cpu_tax_owed += self.core.cfg.daemon_cpu_per_msg

    def start_forwarding(self) -> None:
        """Open the socket: packets queued so far go from the next event."""
        self.sim.sched(self.sim.now, EV_FWD, self, None)

    def _send(self, item: tuple[int, Packet]) -> None:
        """Put one packet on the socket: its event fires on arrival."""
        cfg = self.core.cfg
        delay = cfg.unix_socket_latency + (
            (item[1].payload_bytes + cfg.packet_header_bytes)
            / cfg.unix_socket_bw
        )
        self.sim.sched(self.sim.now + delay, EV_FWD, self, item)

    def _serve(self, item: Optional[tuple[int, Packet]]) -> None:
        """Hand the arrived packet up, then send the next queued one."""
        if item is not None:
            device = self.core.device
            device.inbox.put(item)
            device.stats.bytes_received += item[1].payload_bytes
            device.stats.msgs_received += 1
        if self._fwd_backlog:
            self._send(self._fwd_backlog.popleft())
        else:
            self._fwd_busy = False

    def maybe_caught_up(self) -> None:
        """Emit ``v2.caught_up`` once this incarnation's replay drains."""
        core = self.core
        if self._caught_up or core.replay is None:
            return
        if core.replay.active(core.op_index):
            return
        self._caught_up = True
        replay_s = self.sim.now - self.start_t
        self._m_replay_s.observe(replay_s)
        core.disp.note_caught_up(core.rank)
        self.tracer.emit(
            self.sim.now,
            "v2.caught_up",
            rank=core.rank,
            incarnation=core.incarnation,
            replay_s=replay_s,
        )
