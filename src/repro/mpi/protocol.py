"""The MPICH protocol layer: short / eager / rendezvous packets.

Messages at or below the *eager* threshold travel as a single
payload-carrying packet; larger messages use the three-way rendezvous
(request-to-send, clear-to-send, data).  MPICH 1.2.5's default thresholds
(1 KiB short, 128 KiB eager) are kept: the paper attributes the
non-linearity of Figure 10 between 64 KiB and 128 KiB to exactly this
protocol change.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from .datatypes import Envelope

__all__ = ["PacketKind", "Packet", "wire_bytes", "is_app_payload"]


class PacketKind(Enum):
    """The protocol-layer packet types."""
    SHORT = "short"  # payload inline, control-sized message
    EAGER = "eager"  # payload inline
    RTS = "rts"  # rendezvous request-to-send (envelope only)
    CTS = "cts"  # rendezvous clear-to-send
    DATA = "data"  # rendezvous payload
    # device-internal control packets (restart protocol, GC notices...)
    CONTROL = "control"


@dataclass
class Packet:
    """One protocol-layer packet moving through a channel device."""

    kind: PacketKind
    env: Envelope  # identifies the message (DATA/CTS reuse the RTS envelope)
    payload_bytes: int  # bytes of application payload carried by this packet
    ctrl: Any = None  # kind-specific control data

    @property
    def msgid(self) -> tuple[int, int]:
        """The carried message's unique identifier."""
        return self.env.msgid


def wire_bytes(pkt: Packet, header: int) -> int:
    """Bytes this packet occupies on the wire (header + carried payload)."""
    return header + pkt.payload_bytes


def is_app_payload(pkt: Packet) -> bool:
    """Packets whose (eventual) delivery is an application reception.

    These are the packets whose emission "has an effect on the system" in
    the paper's sense and must therefore be gated behind the event-logger
    acknowledgement in MPICH-V2.
    """
    return pkt.kind in (PacketKind.SHORT, PacketKind.EAGER, PacketKind.RTS, PacketKind.DATA)
