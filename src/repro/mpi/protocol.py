"""The MPICH protocol layer: short / eager / rendezvous packets.

Messages at or below the *eager* threshold travel as a single
payload-carrying packet; larger messages use the three-way rendezvous
(request-to-send, clear-to-send, data).  MPICH 1.2.5's default thresholds
(1 KiB short, 128 KiB eager) are kept: the paper attributes the
non-linearity of Figure 10 between 64 KiB and 128 KiB to exactly this
protocol change.  Both are ``TestbedConfig`` fields: the ADI's send reads
the eager one, and the short/eager choice is made here only
(:func:`inline_packet`), so the packet a replay re-sends or a
fast-forward synthesizes is of the kind the original send chose.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any

from .datatypes import Envelope

if TYPE_CHECKING:  # runtime/ imports the devices, which import this module
    from ..runtime.config import TestbedConfig

__all__ = ["PacketKind", "Packet", "FIRST_KINDS", "inline_packet"]


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


#: the kinds that *start* a delivery: they carry a fresh message id, and
#: duplicate discard, the replay holdback and send suppression act on them
FIRST_KINDS = (PacketKind.SHORT, PacketKind.EAGER, PacketKind.RTS)


def inline_packet(env: Envelope, cfg: TestbedConfig) -> Packet:
    """The single payload-carrying packet for ``env``: short or eager by size."""
    kind = PacketKind.SHORT if env.nbytes <= cfg.short_threshold else PacketKind.EAGER
    return Packet(kind, env, payload_bytes=env.nbytes)
