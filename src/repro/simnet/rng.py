"""Deterministic per-component random streams.

Every stochastic component (failure injector, random checkpoint policy,
workload data generators, ...) draws from its own named stream so that
adding randomness to one component never perturbs another.  Streams are
derived from a master seed with :func:`numpy.random.SeedSequence` spawning
keyed by the component name, which is stable across runs and process
orderings.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["RngRegistry"]


class RngRegistry:
    """Factory of named, reproducible :class:`numpy.random.Generator`."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name`` (created on first use)."""
        gen = self._streams.get(name)
        if gen is None:
            key = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence([self.master_seed, key])
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def drop(self, prefix: str) -> None:
        """Forget every stream named ``prefix...`` (a finished job's
        namespace); one asked for again restarts from its derived seed."""
        for name in [n for n in self._streams if n.startswith(prefix)]:
            del self._streams[name]

    def fork(self, salt: int) -> "RngRegistry":
        """A registry with an independent master seed (for sub-experiments)."""
        return RngRegistry(master_seed=self.master_seed * 1_000_003 + salt)
