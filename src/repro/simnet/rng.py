"""Deterministic per-component random streams.

Every stochastic component (failure injector, random checkpoint policy,
reconnect jitter, ...) draws from its own stream, derived from the
master seed and the crc32 of its name, so that adding randomness to one
never perturbs another.  A stream is seeded at its first draw: most
(one reconnect stream per spawned V2 rank) are never drawn from.

The generator is numpy's ``default_rng(SeedSequence(entropy))`` in pure
Python, draw for draw: ``SeedSequence``'s hash seeds a PCG64 (XSL-RR
128/64) as ``pcg64_set_seed`` does; ``random``, ``integers`` and
``choice`` are ``Generator``'s algorithms, down to PCG64's buffered
upper half-word; ``weibull`` is its 256-strip exponential ziggurat, with
tables computed at the first draw, and ``sample(a, k)`` its
``choice(a, size=k, replace=False)``.  A call the port lacks (``size=``,
a range of 2**32 or more, a population over 10 000) raises; it never
falls back to numpy.
"""

from __future__ import annotations

import functools
import math
import operator
import zlib
from typing import Any, Optional, Sequence, Union

__all__ = ["RngRegistry", "RngStream"]

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's 128-bit default
# the ziggurat's right edge R and strip area V = (R + 1) e^-R
_ZIG_R, _ZIG_V = ("7.697117470131049714044628048015215499",
                  "0.003949659822581557219977571956814861")
# bit i set: numpy's ke[i] is one below the 30-digit recurrence's value
_ZIG_KE_LOW = 0x544C77FC9E762E62FB0170BCF274295CAB39ADCD15655E6F492D2A9830A11FC5


@functools.cache  # built at the first weibull draw, then kept for the process
def ziggurat_tables() -> tuple[list[int], list[float], list[float]]:
    """numpy's exponential ziggurat tables ``(ke, we, fe)``, from the
    recurrence at 30 digits: ``x_255 = R``, ``x_i = -ln(V/x_{i+1} +
    e^-x_{i+1})``, ``ke[i] = x_{i-1}/x_i * 2**53``, ``we[i] = x_i/2**53``
    and ``fe[i] = e^-x_i``."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 30
        r, v, m = Decimal(_ZIG_R), Decimal(_ZIG_V), Decimal(2) ** 53
        xs = [r]
        while len(xs) < 256:
            xs.append(-(v / xs[-1] + (-xs[-1]).exp()).ln())
        xs.reverse()  # x_0 (~0) .. x_255 = R
        ke = [int(r * (-r).exp() / v * m), 0]  # ke[0]: base strip and tail
        ke += [int(xs[i - 1] / xs[i] * m) for i in range(2, 256)]
        return (
            [k - (_ZIG_KE_LOW >> i & 1) for i, k in enumerate(ke)],
            [float(v * r.exp() / m)] + [float(x / m) for x in xs[1:]],
            [float((-x).exp()) for x in xs],
        )


def seed_state(entropy: Union[int, Sequence[int]]) -> list[int]:
    """``SeedSequence(entropy).generate_state(4, uint64)``: each int of
    ``entropy`` is split into little-endian 32-bit words (0 is one)."""
    words = []
    for n in [entropy] if isinstance(entropy, int) else entropy:
        n = operator.index(n)
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & _M32)
        while n >> 32:
            n >>= 32
            words.append(n & _M32)
    h = 0x43B0D7E5  # hashmix's multiplier, advanced at every call

    def hashmix(v: int, mult: int = 0x931E8875) -> int:
        nonlocal h
        v ^= h
        h = h * mult & _M32
        v = v * h & _M32
        return v ^ v >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    h = 0x8B51F9DD  # generate_state's own hash
    out = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class RngStream:
    """numpy's ``default_rng(SeedSequence(entropy))``, seeded at the first
    draw; ``entropy`` is an int or a sequence of ints, as numpy takes it."""

    __slots__ = ("_entropy", "_state", "_inc", "_half")

    def __init__(self, entropy: Union[int, Sequence[int]]) -> None:
        self._entropy = entropy
        self._state = 0
        self._inc: Optional[int] = None  # odd once seeded
        self._half: Optional[int] = None  # PCG64's buffered upper 32 bits

    def _next64(self) -> int:
        inc = self._inc
        if inc is None:  # pcg64_set_seed(seed=words 0-1, inc=words 2-3)
            s0, s1, i0, i1 = seed_state(self._entropy)
            inc = self._inc = (i0 << 65 | i1 << 1 | 1) & _M128
            self._state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
        s = self._state = (self._state * _PCG_MULT + inc) & _M128
        x, r = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> r | x << (64 - r)) & _M64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        n = self._next64()
        self._half = n >> 32
        return n & _M32

    def random(self) -> float:
        """A double in [0, 1) from the top 53 bits of one 64-bit draw."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high) by numpy's 32-bit Lemire rejection; a
        range of one draws nothing."""
        low, high = operator.index(low), operator.index(high)
        span = high - low
        if span <= 0:
            raise ValueError("high <= low")
        if span >= 1 << 32 or low < -(1 << 63) or high > 1 << 63:
            raise ValueError("only int64 ranges under 2**32 are supported")
        if span == 1:
            return low
        m = self._next32() * span
        if m & _M32 < span:
            threshold = ((1 << 32) - span) % span
            while m & _M32 < threshold:
                m = self._next32() * span
        return low + (m >> 32)

    def choice(self, a: Any) -> Any:
        """``integers(0, a)`` for an int, else ``a[integers(0, len(a))]``."""
        try:
            n = operator.index(a)
        except TypeError:  # a sequence (empty: integers raises)
            return a[self.integers(0, len(a))]
        return self.integers(0, n)

    def sample(self, a: Sequence[Any], k: int) -> list:
        """``choice(a, size=k, replace=False)``: Floyd's algorithm picks
        the indices, a Fisher-Yates pass orders them."""
        n = len(a)
        if not 0 <= k <= n or n > 10_000:
            raise ValueError("only k <= len(a) <= 10 000 is supported")
        picked: list[int] = []
        for j in range(n - k, n):
            v = self.integers(0, j + 1)
            picked.append(j if v in picked else v)
        for i in range(k - 1, 0, -1):
            j = self.integers(0, i + 1)
            picked[i], picked[j] = picked[j], picked[i]
        return [a[i] for i in picked]

    def weibull(self, a: float) -> float:
        """A standard exponential (ziggurat) draw to the power ``1/a``;
        ``a == 0`` gives 0.0 and draws nothing."""
        if math.copysign(1.0, a) < 0 and not math.isnan(a):
            raise ValueError("a < 0")
        if a == 0:
            return 0.0
        ke, we, fe = ziggurat_tables()
        while True:
            ri = self._next64() >> 3
            idx, ri = ri & 0xFF, ri >> 8
            x = ri * we[idx]
            if ri < ke[idx]:
                break
            if idx == 0:  # the tail beyond R
                x = float(_ZIG_R) - math.log1p(-self.random())
                break
            if (fe[idx - 1] - fe[idx]) * self.random() + fe[idx] < math.exp(-x):
                break
        try:
            return x ** (1.0 / a)
        except OverflowError:  # C's pow gives inf
            return math.inf


class RngRegistry:
    """Factory of named, reproducible random streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        """The stream for ``name`` (created on first use)."""
        s = self._streams.get(name)
        if s is None:
            s = self._streams[name] = RngStream(
                (self.master_seed, zlib.crc32(name.encode("utf-8"))))
        return s

    def drop(self, prefix: str) -> None:
        """Forget every stream named ``prefix...`` (a finished job's
        namespace); one asked for again restarts from its derived seed."""
        for name in [n for n in self._streams if n.startswith(prefix)]:
            del self._streams[name]
