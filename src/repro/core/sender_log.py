"""The sender-based message payload log (the SAVED sets of Appendix A).

Every outgoing application message is copied on the (volatile) sender
before transmission.  The log accounts for storage exactly as the paper
describes its testbed limits: payload copies live in main memory until
the budget — what is left of 1 GB after the application's footprint — is
exhausted, then spill to the IDE disk (slowing the send path to disk
bandwidth), and the run aborts once RAM+swap (2 GB total) is exceeded:
"We use a maximum storage size of 2 GB (1 GB on memory + 1 GB on disk)
per node for message logging.  This value is exceeded when executing FT
Class B" — the reason the paper cannot report FT-B without checkpointing.

Garbage collection: "Once a checkpoint has been done at a particular
logical clock, all the messages received before will never be requested
again. Thus all these messages can be removed on their respective sender."
"""

from __future__ import annotations

from typing import Any, Iterator

__all__ = ["SavedMessage", "SenderLog", "LogOverflow"]


class LogOverflow(Exception):
    """RAM + swap exhausted by the payload log (the FT-class-B failure)."""


class SavedMessage:
    """One retained payload copy: (m, H_p, q) of the SAVED set."""

    __slots__ = ("dst", "sclock", "env", "charged")

    def __init__(self, dst: int, sclock: int, env: Any, charged: int) -> None:
        self.dst = dst
        self.sclock = sclock
        self.env = env  # the full envelope (payload reference included)
        self.charged = charged  # slab-rounded storage footprint


class SenderLog:
    """SAVED set with RAM/disk accounting for one computing node."""

    def __init__(self, ram_budget: int, disk_budget: int, slab: int = 1) -> None:
        self.ram_budget = max(0, ram_budget)
        self.disk_budget = max(0, disk_budget)
        #: storage is slab-allocated: a message occupies at least ``slab``
        #: bytes — a torrent of tiny messages (the LU wavefront) wastes
        #: the log many times over, which is how a 40 MB payload stream
        #: pushes a 1 GB node into swap
        self.slab = max(1, slab)
        self._by_dst: dict[int, list[SavedMessage]] = {}
        #: highest sclock garbage-collected per destination: re-sends below
        #: this are impossible (the copies are gone)
        self.gc_floor: dict[int, int] = {}
        self.bytes_total = 0
        self.bytes_on_disk = 0

    # -- appends -------------------------------------------------------------
    def append(self, dst: int, sclock: int, env: Any) -> int:
        """Log one message copy; returns bytes that went to *disk* (0 if RAM).

        Raises :class:`LogOverflow` when RAM+disk budgets are exceeded.
        """
        charged = max(env.nbytes, self.slab)
        if self.bytes_total + charged > self.ram_budget + self.disk_budget:
            raise LogOverflow(
                f"message log needs {self.bytes_total + charged} bytes, "
                f"budget is {self.ram_budget + self.disk_budget}"
            )
        disk_bytes = 0
        if self.bytes_total + charged > self.ram_budget:
            disk_bytes = min(charged, self.bytes_total + charged - self.ram_budget)
            self.bytes_on_disk += disk_bytes
        self.bytes_total += charged
        self._by_dst.setdefault(dst, []).append(
            SavedMessage(dst, sclock, env, charged)
        )
        return disk_bytes

    # -- lookups -------------------------------------------------------------
    def messages_for(self, dst: int, after_sclock: int = 0) -> list[SavedMessage]:
        """Saved messages to ``dst`` with sclock > ``after_sclock``, in order."""
        return [m for m in self._by_dst.get(dst, ()) if m.sclock > after_sclock]

    def has(self, dst: int, sclock: int) -> bool:
        """Is the copy of (dst, sclock) still retrievable?"""
        return any(m.sclock == sclock for m in self._by_dst.get(dst, ()))

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_dst.values())

    def __iter__(self) -> Iterator[SavedMessage]:
        for msgs in self._by_dst.values():
            yield from msgs

    # -- garbage collection ------------------------------------------------------
    def collect(self, dst: int, upto_sclock: int) -> int:
        """Drop copies to ``dst`` with sclock <= ``upto_sclock``; bytes freed."""
        self.gc_floor[dst] = max(self.gc_floor.get(dst, 0), upto_sclock)
        msgs = self._by_dst.get(dst)
        if not msgs:
            return 0
        keep, freed = [], 0
        for m in msgs:
            if m.sclock <= upto_sclock:
                freed += m.charged
            else:
                keep.append(m)
        self._by_dst[dst] = keep
        self.bytes_total -= freed
        # disk fills last, drains first (most recent spill is reclaimed)
        reclaim_disk = min(freed, self.bytes_on_disk)
        self.bytes_on_disk -= reclaim_disk
        return freed

    # -- checkpoint support ----------------------------------------------------
    def snapshot(self) -> list[tuple[int, int, Any]]:
        """Serializable copy (dst, sclock, env) — part of the daemon image."""
        return [(m.dst, m.sclock, m.env) for m in self]

    @classmethod
    def restore(
        cls,
        ram_budget: int,
        disk_budget: int,
        entries: list[tuple[int, int, Any]],
        slab: int = 1,
    ) -> "SenderLog":
        log = cls(ram_budget, disk_budget, slab=slab)
        for dst, sclock, env in entries:
            log.append(dst, sclock, env)
        return log
