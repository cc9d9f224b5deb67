"""The daemon's delivery pipeline: peer packets down to the MPI process.

One :class:`DeliveryPipeline` per daemon incarnation owns the receive
side of the node: phase-C duplicate discard against the per-sender
``forwarded_hw`` watermark, the forced-order holdback during replay,
and the UNIX-socket forwarding queue that models the daemon-to-process
handoff.  It also accounts the incarnation's catch-up point (the
``v2.caught_up`` trace and the ``ft.replay_s`` histogram).

Composes with the daemon core through the usual explicit interface:
``core`` provides ``rank``, ``incarnation``, ``cfg``, ``sim``,
``replay``, ``op_index``, ``device`` (or None), ``peers`` (the RTSDUP
answer), and ``cpu_tax_owed``.
"""

from __future__ import annotations

from typing import Optional

from ..mpi.datatypes import Envelope
from ..mpi.protocol import FIRST_KINDS, Packet, PacketKind, inline_packet
from ..obs.registry import Metrics
from ..simnet.kernel import Queue, Simulator
from ..simnet.trace import Tracer

__all__ = ["DeliveryPipeline"]

_PAYLOAD_KINDS = (PacketKind.SHORT, PacketKind.EAGER, PacketKind.DATA)


class DeliveryPipeline:
    """One rank's receive path: discard, holdback, forward, catch up."""

    def __init__(
        self,
        core,
        sim: Simulator,
        *,
        tracer: Optional[Tracer] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        self.core = core
        self.sim = sim
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        # highest sclock passed up to the MPI process, per sender: the
        # duplicate-discard watermark of replay phase C
        self.forwarded_hw: dict[int, int] = {}
        self.dups_dropped = 0
        # daemon -> MPI process forwarding (the UNIX socket, ordered)
        self.fwd_q: Queue = Queue(sim, name=f"d{core.rank}.fwd")
        self.start_t = 0.0
        self._caught_up = False
        m = metrics if metrics is not None else Metrics()
        self._m_replay_s = m.histogram("ft.replay_s", rank=core.rank)

    def enqueue_replay(self, dst: int, env: Envelope) -> None:
        """Old saved messages are re-sent with the payload inline."""
        self.core.peers.enqueue_app(dst, inline_packet(env, self.core.cfg))

    def handle_app_packet(self, src: int, pkt: Packet) -> None:
        core = self.core
        env = pkt.env
        if pkt.kind in FIRST_KINDS:
            # duplicate discard (phase C): the RESTART handshake may re-send
            # messages we already passed up to the MPI process
            if env.sclock <= self.forwarded_hw.get(src, 0):
                self.dups_dropped += 1
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
        self.fwd_q.put((src, pkt))
        self.core.cpu_tax_owed += self.core.cfg.daemon_cpu_per_msg

    def forward_loop(self):
        core = self.core
        cfg = core.cfg
        device = core.device
        while True:
            src, pkt = yield self.fwd_q.get()
            delay = cfg.unix_socket_latency + (
                (pkt.payload_bytes + cfg.packet_header_bytes)
                / cfg.unix_socket_bw
            )
            yield self.sim.pause(delay)
            device.inbox.put((src, pkt))
            device.stats.bytes_received += pkt.payload_bytes
            device.stats.msgs_received += 1

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
        self.tracer.emit(
            self.sim.now,
            "v2.caught_up",
            rank=core.rank,
            incarnation=core.incarnation,
            replay_s=replay_s,
        )
