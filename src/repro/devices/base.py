"""The MPICH channel interface and shared device machinery.

MPICH-V2 "is implemented as a channel for MPICH: it implements a set of
six primitives used by the protocol layer" (Section 4.4): ``PIbsend``,
``PIbrecv``, ``PInprobe``, ``PIfrom``, ``PIiInit``, ``PIiFinish``.  Every
device here (P4, V1, V2) implements that interface (``pibrecv`` returns
the sender's rank with the packet, so ``PIfrom`` needs no method of its
own, and ``PInprobe`` is answered by ``poll``, the non-blocking drain
the ADI's iprobe uses); the MPI stack above the channel is identical
across devices — which is the paper's "MPI implementation independence"
requirement.

Shared machinery: packet chunking over streams (segments of
``chunk_bytes``), reassembly, an inbox of received packets, and
per-peer traffic statistics used by the checkpoint scheduler's adaptive
policy.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..mpi.datatypes import Envelope
from ..mpi.protocol import Packet
from ..runtime.config import TestbedConfig
from ..simnet.kernel import Future, Queue, Simulator
from ..simnet.node import Host
from ..simnet.trace import Tracer

__all__ = ["ChannelDevice", "DeviceStats", "segment_sizes"]


def segment_sizes(total_bytes: int, chunk: int) -> list[int]:
    """Split a packet of ``total_bytes`` into driver chunks."""
    if total_bytes <= 0:
        return [1]
    sizes = []
    left = total_bytes
    while left > chunk:
        sizes.append(chunk)
        left -= chunk
    sizes.append(left)
    return sizes


class DeviceStats:
    """Per-device traffic counters (feeds the adaptive ckpt scheduler)."""

    def __init__(self) -> None:
        self.bytes_sent = 0
        self.bytes_received = 0
        self.msgs_sent = 0
        self.msgs_received = 0

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy of the counters."""
        return dict(self.__dict__)


class ChannelDevice:
    """Abstract channel device: the six PI primitives plus runtime hooks.

    Hooks beyond the MPICH channel interface exist because the paper's
    devices also do work outside the channel calls (the V2 daemon logs
    events, gates sends on event-logger acknowledgements, takes
    checkpoints, and steals CPU from the MPI process); the base class
    gives them all neutral default behaviour.
    """

    #: V1 routes everything through Channel Memories and therefore never
    #: needs the rendezvous protocol; devices set this to bypass it.
    eager_override = False

    def __init__(
        self,
        sim: Simulator,
        cfg: TestbedConfig,
        rank: int,
        size: int,
        host: Host,
        tracer: Tracer,
    ) -> None:
        self.sim = sim
        self.cfg = cfg
        self.rank = rank
        self.size = size
        self.host = host
        self.tracer = tracer
        self.inbox: Queue = Queue(sim, name=f"dev{rank}.inbox")
        self.stats = DeviceStats()
        self._send_seq = 0

    def stamp(self, env: Envelope) -> None:
        """Assign the message id (sender sequence) if not stamped yet.

        The V2 device overrides message stamping with its logical clock;
        the other devices use a plain per-sender sequence, which also
        gives every in-flight message a unique (src, sclock) id.
        """
        if env.sclock == 0:
            self._send_seq += 1
            env.sclock = self._send_seq

    # -- the channel primitives -------------------------------------------
    def piinit(self) -> Generator[Future, Any, None]:
        """Bring the channel up (connect streams, start daemons)."""
        return
        yield  # pragma: no cover - makes this a generator function

    def pifinish(self) -> Generator[Future, Any, None]:
        """Drain and close the channel."""
        return
        yield  # pragma: no cover

    def pibsend(self, dst: int, pkt: Packet) -> Generator[Future, Any, None]:
        """Blocking send of one protocol packet to rank ``dst``."""
        raise NotImplementedError

    def pibrecv(self) -> Generator[Future, Any, tuple[int, Packet]]:
        """Blocking receive of the next packet (any source)."""
        if not len(self.inbox):
            self._pump_ready()
        while not len(self.inbox):
            yield from self._wait_for_traffic()
            self._pump_ready()
        ok, item = self.inbox.try_get()
        assert ok
        return item

    # -- non-blocking drain (used by the ADI for iprobe/progress) ----------
    def poll(self) -> list[tuple[int, Packet]]:
        """Drain everything already arrived; returns packets in order."""
        self._pump_ready()
        out = []
        while True:
            ok, item = self.inbox.try_get()
            if not ok:
                break
            out.append(item)
        return out

    def try_send_now(self, dst: int, pkt: Packet) -> bool:
        """Best-effort non-blocking send of a small control packet."""
        raise NotImplementedError

    # -- internal plumbing overridden by devices ----------------------------
    def _pump_ready(self) -> None:
        """Move already-arrived traffic into the inbox (non-blocking)."""

    def _wait_for_traffic(self) -> Generator[Future, Any, None]:
        """Block until something arrives that _pump_ready can consume."""
        raise NotImplementedError

    # -- runtime hooks -------------------------------------------------------
    def bind_adi(self, adi) -> None:
        """Give the device a handle on the progress engine (V2 recovery)."""

    def on_app_deliver(self, env: Envelope, probes: int) -> None:
        """Called by the ADI on every application-level delivery."""

    def force_probe(self) -> Optional[bool]:
        """Replay override for iprobe; None means 'no override'."""
        return None

    def fast_forward(self) -> bool:
        """True while replaying the pre-checkpoint prefix (compute is free)."""
        return False

    def app_compute(self, seconds: float) -> Generator[Future, Any, None]:
        """Advance time for an application compute segment.

        Devices add their CPU tax here (the V2 logging daemon competes
        with the MPI process for the CPU — the LU effect in Figure 7).
        """
        if seconds > 0 and not self.fast_forward():
            yield self.sim.pause(seconds)

    def ckpt_poll(self) -> Generator[Future, Any, None]:
        """Checkpoint-at-a-safe-point hook, called at API boundaries."""
        return
        yield  # pragma: no cover

    def _note_received(self, pkt: Packet) -> None:
        self.stats.bytes_received += pkt.payload_bytes
        self.stats.msgs_received += 1
