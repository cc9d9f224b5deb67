"""Message envelopes and MPI constants."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any

__all__ = [
    "ANY_SOURCE", "ANY_TAG", "CTX_PT2PT", "CTX_COLL", "Envelope", "Message",
    "payload_nbytes",
]

ANY_SOURCE = -1
ANY_TAG = -1

# the world communicator's two matching contexts (collectives use a
# separate one so internal tags can never collide with application
# tags); a split communicator gets a fresh pair, and the API's
# ``_context`` argument names which of the pair a message travels in
CTX_PT2PT = 0
CTX_COLL = 1


def payload_nbytes(data: Any) -> int:
    """Estimate the wire size of a payload object."""
    if data is None:
        return 0
    if isinstance(data, (bytes, bytearray)):
        return len(data)
    # an array needs numpy loaded; a run that never loaded it has none
    np = sys.modules.get("numpy")
    if np is not None and isinstance(data, np.ndarray):
        return int(data.nbytes)
    if isinstance(data, (int, float)):
        return 8
    if isinstance(data, (list, tuple)):
        return 16 + sum(payload_nbytes(x) for x in data)
    return 64


@dataclass(slots=True)
class Envelope:
    """Everything that identifies one application-level message.

    ``sclock`` is the sender's logical clock at emission: under MPICH-V2
    the couple ``(src, sclock)`` is the unique message identifier used by
    the replay protocol ("part of the remitted message" in the paper); the
    other devices carry a plain per-destination sequence number in the same
    slot, which also preserves MPI's non-overtaking guarantee.
    """

    src: int
    dst: int
    tag: int
    context: int
    nbytes: int
    sclock: int = 0
    data: Any = None

    @property
    def msgid(self) -> tuple[int, int]:
        """The unique message identifier (sender, sender sequence)."""
        return (self.src, self.sclock)

    def matches(self, src: int, tag: int, context: int) -> bool:
        """Does this envelope satisfy a receive for (src, tag, context)?"""
        return (
            context == self.context
            and (src == ANY_SOURCE or src == self.src)
            and (tag == ANY_TAG or tag == self.tag)
        )


@dataclass(frozen=True)
class Message:
    """What a completed receive hands back to the application."""

    source: int
    tag: int
    nbytes: int
    data: Any = None
