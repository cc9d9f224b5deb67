"""Cluster assembly: simulator + network + hosts in one bundle.

Mirrors the paper's testbed: computing nodes (Athlon-class, volatile) and
auxiliary machines (PIII-class, reliable) hanging off one switch.
"""

from __future__ import annotations

from typing import Optional

from ..obs.registry import Metrics
from ..simnet.kernel import Simulator
from ..simnet.network import Network
from ..simnet.node import Host
from ..simnet.rng import RngRegistry
from ..simnet.streams import Stream
from ..simnet.trace import Tracer
from .config import DEFAULT_TESTBED, TestbedConfig

__all__ = ["Cluster"]


class Cluster:
    """One simulated deployment."""

    def __init__(
        self,
        cfg: TestbedConfig = DEFAULT_TESTBED,
        seed: int = 0,
        trace: bool = False,
    ) -> None:
        self.cfg = cfg
        self.sim = Simulator()
        self.tracer = Tracer(enabled=trace)
        self.metrics = Metrics()
        self.net = Network(self.sim, cfg.link, tracer=self.tracer)
        self.rng = RngRegistry(seed)

    # -- hosts -------------------------------------------------------------
    def add_cn(self, name: str, site: str = "site0") -> Host:
        """A computing node (volatile).

        ``site`` places the machine in a Grid deployment: traffic
        between sites runs over the link's wide-area parameters.  Host
        names are unique per cluster (the network rejects duplicates).
        """
        host = Host(
            self.sim,
            name,
            cpu_flops=self.cfg.cn_flops,
            disk_bw=self.cfg.disk_bw,
            full_duplex=True,
            reliable=False,
            site=site,
        )
        return self.net.add_host(host)

    def add_aux(self, name: str, site: str = "site0") -> Host:
        """An auxiliary machine (event logger / checkpoint server / ...)."""
        host = Host(
            self.sim,
            name,
            cpu_flops=self.cfg.aux_flops,
            disk_bw=self.cfg.disk_bw,
            full_duplex=True,
            reliable=self.cfg.reliable_aux,
            site=site,
        )
        return self.net.add_host(host)

    # -- wiring -------------------------------------------------------------
    def connect(self, a: Host, b: Host, window: Optional[int] = None) -> Stream:
        """Open a stream (simulated TCP connection) between two hosts."""
        return Stream(self.net, a, b, window=window or self.cfg.stream_window)
