"""Reconnection with capped exponential backoff (shared by every client).

The paper treats the event logger, the checkpoint server and the network
as reliable; a production runtime cannot.  Every component that talks to
a service that may be briefly gone — a daemon reconnecting to a crashed
event logger, the lower-rank peer re-establishing a flapped link, a
checkpoint push retrying against a restarting server — uses the same
retry shape: capped exponential backoff with deterministic jitter drawn
from the simulation's named RNG streams, so two runs with the same seed
retry at exactly the same simulated times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .config import TestbedConfig

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule: ``min(cap, base * factor**attempt)`` +/- jitter."""

    base: float = 0.05
    factor: float = 2.0
    cap: float = 2.0
    jitter: float = 0.25  # fraction of the delay, uniform both ways
    max_tries: int = 60

    @classmethod
    def from_config(
        cls, cfg: TestbedConfig, max_tries: Optional[int] = None
    ) -> "RetryPolicy":
        """The testbed's calibrated backoff (``max_tries`` overridable)."""
        return cls(
            base=cfg.reconnect_base,
            factor=cfg.reconnect_factor,
            cap=cfg.reconnect_cap,
            jitter=cfg.reconnect_jitter,
            max_tries=max_tries if max_tries is not None else cfg.reconnect_max_tries,
        )

    def delay(self, attempt: int, rng: Optional[Any] = None) -> float:
        """Backoff before retry ``attempt`` (0-based), jittered via ``rng``."""
        d = min(self.cap, self.base * self.factor**attempt)
        if rng is not None and self.jitter > 0:
            d *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return d

