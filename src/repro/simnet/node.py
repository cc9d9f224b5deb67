"""Simulated hosts.

A :class:`Host` models one machine of the paper's testbed: a CPU with a
sustained compute rate, a disk and a network interface (the RAM and
swap budgets of the sender-based message log are ``cfg.cn_ram`` /
``cn_swap``).  The NIC is modelled by
two scalar "free at" times — transmit and receive — which serialize
transfers; :meth:`~repro.simnet.network.Network.transfer` reserves them.
A *half-duplex endpoint* (used for the MPICH-P4 driver, whose process does
not service receptions while pushing a message) holds both for its bulk
frames.

Crashing a host kills every simulated process registered on it and breaks
every attached stream; this is the fault model of the paper (fail-stop,
detected through socket disconnection).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from .kernel import Future, Process, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from .streams import Stream

__all__ = ["Host", "HostDown"]


class HostDown(Exception):
    """Raised by operations attempted on or against a crashed host."""


class Host:
    """One simulated machine."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cpu_flops: float = 3.0e8,
        disk_bw: float = 10e6,
        full_duplex: bool = True,
        reliable: bool = False,
        site: str = "site0",
    ) -> None:
        self.sim = sim
        self.name = name
        #: Grid deployments span several clusters: hosts on different
        #: sites communicate over the wide-area parameters of the link
        self.site = site
        self.cpu_flops = cpu_flops
        self.disk_bw = disk_bw
        self.full_duplex = full_duplex
        self.reliable = reliable

        self.failed = False
        #: bumped by every crash, before its processes die: work bound to
        #: an earlier value died with them (process-less stream consumers
        #: and flat-event handlers compare it instead of ``alive``)
        self.incarnation = 0
        # NIC serialization state (absolute simulated times), reserved
        # by ``Network.transfer``
        self._tx_free = 0.0
        self._rx_free = 0.0
        # cumulative NIC busy seconds (folded into the metrics registry
        # at job end; plain floats keep the reservation path allocation-free)
        self.nic_tx_busy_s = 0.0
        self.nic_rx_busy_s = 0.0
        # window stalls of writers here, same pattern (streams are gone
        # by the job-end fold)
        self.stall_s = 0.0
        self.stall_count = 0
        # what a crash takes down, live entries only: a process leaves
        # when it ends, a stream when it breaks.  A stream maps to the
        # service that accepted it here (None: a client-side end).
        self._processes: dict[Future, Process] = {}
        self._streams: dict["Stream", Any] = {}
        self.on_crash: list[Callable[["Host"], None]] = []

    #: bulk frames below this size never couple tx/rx on a half-duplex
    #: endpoint: the P4 driver's read starvation only matters while it is
    #: busy pushing bulk payload chunks, not for small control frames
    HALF_DUPLEX_MIN_BYTES = 8192

    # -- process / stream registry ---------------------------------------
    def register(self, proc: Process) -> None:
        """Bind a simulated process to this machine (dies with it)."""
        if self.failed:
            raise HostDown(self.name)
        proc.register_in(self._processes)

    def attach_stream(self, stream: "Stream", owner: Any = None) -> None:
        """Track a stream so a crash (or ``owner`` stopping) can break it."""
        self._streams[stream] = owner

    # -- failure ---------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop: kill all local processes and break all streams."""
        if self.failed:
            return
        if self.reliable:
            raise HostDown(f"reliable host {self.name} cannot be crashed")
        self.failed = True
        self.incarnation += 1
        for p in list(self._processes.values()):
            p.kill()
        for s in list(self._streams):
            s.break_both(self)
        for cb in list(self.on_crash):
            cb(self)

    def restart(self) -> None:
        """Bring the machine back up (empty, a fresh boot)."""
        if not self.failed:
            return
        self.failed = False
        self._tx_free = self.sim.now
        self._rx_free = self.sim.now

    # -- compute ---------------------------------------------------------
    def compute_seconds(self, flops: float) -> float:
        """Wall time for ``flops`` floating point operations."""
        return flops / self.cpu_flops

    def __repr__(self) -> str:  # pragma: no cover
        state = "down" if self.failed else "up"
        return f"<Host {self.name} {state}>"
