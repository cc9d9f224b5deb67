"""Logical clocks and reception-event records (the heart of the protocol).

Per the paper (Section 4.1): "Each time a process sends a message, or
receives one, it increases a local logical clock. Every message m sent
from q to p has a unique identifier" — the couple (sender, sender clock).
The dependency information logged per reception is the four-field record
"(sender's identity; sender's logical clock at emission; receiver's
logical clock at delivery; number of probes since last delivery)".

Implementation note: the paper describes a single clock ticked by both
sends and receives.  A faithful single counter makes the identifier of a
re-executed *send* depend on exactly where early-arriving receptions
interleave with it — a race the pull-based MPICH channel hides but an
asynchronous progress engine exposes.  We therefore keep two independent
sequences: ``send_seq`` identifies messages (program-deterministic given
the replayed delivery order) and ``recv_seq`` orders reception events
(forced by the event log during replay).  Their sum plays the role of
the paper's clock wherever only a monotonic scalar is needed.

The clock state also carries the two vectors of Appendix A:
``HR[q]`` — send-seq of the last message delivered from q, and
``HS[q]`` — suppression threshold for sends to q during re-execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["EventRecord", "ClockState"]


@dataclass(frozen=True, order=True, slots=True)
class EventRecord:
    """One logged reception event (sorted by receiver sequence).

    ``slots=True`` matters: event loggers hold one of these per
    acknowledged delivery until a checkpoint lets them garbage-collect,
    and a class-B 64-rank run stores ~16M of them — the per-instance
    ``__dict__`` alone would roughly double logger memory.
    """

    rclock: int  # receiver's delivery sequence number
    src: int  # sender's identity
    sclock: int  # sender's send sequence at emission (the message id)
    probes: int  # unsuccessful probes since the previous delivery


@dataclass
class ClockState:
    """Logical-clock state of one computing node."""

    send_seq: int = 0  # messages emitted so far
    recv_seq: int = 0  # messages delivered so far
    hr: dict[int, int] = field(default_factory=dict)  # HR_p[q]
    hs: dict[int, int] = field(default_factory=dict)  # HS_p[q]

    @property
    def h(self) -> int:
        """The paper's scalar logical clock (sends + receives)."""
        return self.send_seq + self.recv_seq

    def tick_send(self) -> int:
        """Advance for an emission; returns the message's sclock."""
        self.send_seq += 1
        return self.send_seq

    def tick_recv(self, src: int, sclock: int) -> int:
        """Advance for a delivery; returns the event's rclock."""
        self.recv_seq += 1
        self.hr[src] = max(self.hr.get(src, 0), sclock)
        return self.recv_seq

    def suppressed(self, dst: int, sclock: int) -> bool:
        """Should a (re-executed) send to ``dst`` skip transmission?

        True when the destination is known to have already received every
        message up to ``HS[dst]`` (set by the RESTART handshake).
        """
        return sclock <= self.hs.get(dst, 0)

    def snapshot(self) -> "ClockState":
        """An independent copy (for checkpoint images)."""
        return ClockState(
            send_seq=self.send_seq,
            recv_seq=self.recv_seq,
            hr=dict(self.hr),
            hs=dict(self.hs),
        )
