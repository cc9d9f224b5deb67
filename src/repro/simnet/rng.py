"""Deterministic per-component random streams.

Every stochastic component (failure injector, random checkpoint policy,
reconnect jitter, ...) draws from its own named stream so that adding
randomness to one component never perturbs another.  Streams are
derived from a master seed with :func:`numpy.random.SeedSequence` keyed
by the component name, which is stable across runs and process
orderings.

A stream is seeded at its first draw, not when it is asked for: most
streams (one reconnect stream per spawned V2 rank, one per checkpoint
scheduler) are never drawn from, and a run that draws nothing never
imports numpy.  The generator is numpy's PCG64 either way, so the k-th
draw of a stream does not depend on when it was seeded.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:
    import numpy as np

__all__ = ["RngRegistry", "RngStream"]


class RngStream:
    """One named stream: a :class:`numpy.random.Generator` built at the
    first draw; every attribute (``random``, ``choice``, ``integers``,
    ...) is the generator's."""

    __slots__ = ("_entropy", "_gen")

    def __init__(self, master_seed: int, name: str) -> None:
        self._entropy = [master_seed, zlib.crc32(name.encode("utf-8"))]
        self._gen: Optional[np.random.Generator] = None

    def __getattr__(self, attr: str) -> Any:
        gen = self._gen
        if gen is None:
            import numpy as np

            gen = np.random.default_rng(np.random.SeedSequence(self._entropy))
            self._gen = gen
        return getattr(gen, attr)


class RngRegistry:
    """Factory of named, reproducible random streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        """The stream for ``name`` (created on first use)."""
        s = self._streams.get(name)
        if s is None:
            s = self._streams[name] = RngStream(self.master_seed, name)
        return s

    def drop(self, prefix: str) -> None:
        """Forget every stream named ``prefix...`` (a finished job's
        namespace); one asked for again restarts from its derived seed."""
        for name in [n for n in self._streams if n.startswith(prefix)]:
            del self._streams[name]
