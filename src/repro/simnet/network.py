"""The switched-Ethernet network model.

The paper's testbed is a 48-port 100 Mbit/s switch: a non-blocking fabric
where only the per-port NICs serialize traffic.  A segment transfer of
``nbytes`` from host A to host B costs::

    tx_start = when A's transmit side is free
    duration = (nbytes + frame_overhead) / bandwidth + per_segment_gap
    arrival  = B's receive side free after (tx_start + wire_latency),
               plus the same duration (store-and-forward at the endpoint)

plus fixed per-segment CPU costs at both endpoints (protocol stack
traversal), which dominate small-message latency: the P4 0-byte one-way
latency of ~77 microseconds is reproduced as
``send_cpu + wire_latency + frame_time + recv_cpu``.

:meth:`Network.transfer` is the one place this is computed: it reads
and advances both hosts' "free at" times itself (the NIC reservation)
and schedules the caller's flat ``(slot, a, b)`` arrival event.

Loopback (A == B) transfers move at memory-copy speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from .kernel import Simulator
from .node import Host, HostDown
from .trace import Tracer

__all__ = ["LinkConfig", "Network", "PartitionWindow"]


@dataclass(frozen=True)
class LinkConfig:
    """Calibrated link parameters (defaults: the paper's Fast Ethernet)."""

    bandwidth: float = 11.42e6  # effective payload bytes/s on the wire
    wire_latency: float = 28e-6  # propagation + switch latency, seconds
    frame_overhead: int = 58  # header bytes charged per segment
    send_cpu: float = 4e-6  # per-segment NIC/DMA setup on the send side
    recv_cpu: float = 18e-6  # per-segment receiver stack traversal
    per_segment_gap: float = 4e-6  # interframe gap on the NIC
    loopback_bandwidth: float = 400e6  # same-host memcpy speed
    loopback_latency: float = 4e-6
    # wide-area parameters for Grid deployments (hosts on different sites):
    # a 2003-era inter-site path — a few ms one way, shared capacity below
    # the cluster's Fast Ethernet
    wan_latency: float = 2.5e-3
    wan_bandwidth: float = 6e6


@dataclass
class PartitionWindow:
    """A transient cut between two host groups.

    While active, segments crossing the cut are *deferred*, not lost —
    the simulated analogue of TCP retransmission riding out a switch
    hiccup: streams stay up, writers eventually stall on window credit,
    and the buffered traffic is released when the partition heals.
    """

    group_a: frozenset
    group_b: frozenset
    until: float
    healed: bool = False
    deferred: list = field(default_factory=list)

    def separates(self, a: str, b: str) -> bool:
        """Does the cut lie between hosts ``a`` and ``b``?"""
        if self.healed:
            return False
        return (a in self.group_a and b in self.group_b) or (
            a in self.group_b and b in self.group_a
        )


class Network:
    """Schedules segment transfers between hosts."""

    def __init__(
        self,
        sim: Simulator,
        link: LinkConfig,
        tracer: Tracer,
    ) -> None:
        self.sim = sim
        self.link = link
        self.tracer = tracer
        self.hosts: dict[str, Host] = {}
        self.bytes_moved = 0.0
        self.segments_moved = 0
        # link-level fault state (kept off the hot path: the list is empty
        # unless a fault plan has cut the fabric)
        self._partitions: list[PartitionWindow] = []
        self.partitions_injected = 0
        self.segments_deferred = 0
        self.links_broken = 0

    # -- topology ---------------------------------------------------------
    def add_host(self, host: Host) -> Host:
        """Attach a host to the switch (names must be unique)."""
        if host.name in self.hosts:
            raise ValueError(f"duplicate host {host.name!r}")
        self.hosts[host.name] = host
        return host

    def host(self, name: str) -> Host:
        """Look a host up by name."""
        return self.hosts[name]

    # -- transfers --------------------------------------------------------
    def transfer(
        self,
        src: Host,
        dst: Host,
        nbytes: int,
        slot: int,
        a: Any,
        b: Any,
        bulk: bool = False,
        segments: int = 1,
    ) -> float:
        """Schedule a one-way frame; returns the arrival time.

        ``(slot, a, b)`` is the flat event scheduled on the kernel heap
        at arrival (``EV_CALL, fn, None`` runs a plain callable).

        ``segments`` models a coalesced frame: one transfer call moving
        what the wire carries as N segments.  Wire time is honest — the
        payload pays ``frame_overhead`` and ``per_segment_gap`` once per
        segment, exactly as N separate transfers would — but the endpoint
        CPU (``send_cpu``/``recv_cpu``) is paid once per *call*, which is
        the syscall-batching/scatter-gather win coalescing buys.

        The frame reserves ``src``'s transmit side, then ``dst``'s receive
        side, for its wire duration.  A ``bulk`` frame of at least
        ``Host.HALF_DUPLEX_MIN_BYTES`` on a half-duplex endpoint holds
        both of that endpoint's sides instead: it waits for the other
        direction and blocks it meanwhile.

        The caller is responsible for flow control (see ``streams``); the
        network itself never queues unboundedly per-stream because writers
        block on window credit.
        """
        if src.failed:
            raise HostDown(src.name)
        sim = self.sim
        now = sim.now
        link = self.link
        if src is dst:
            arrival = (
                now
                + link.loopback_latency
                + nbytes / link.loopback_bandwidth
            )
            sim.sched(arrival, slot, a, b)
            return arrival

        if self._partitions:
            win = self._crossing(src.name, dst.name)
            if win is not None:
                # hold the frame at the cut; it re-enters transfer()
                # when the partition heals (and re-checks the remaining
                # cuts, so overlapping partitions compose)
                self.segments_deferred += segments
                self.tracer.emit(
                    now, "net.defer", src=src.name, dst=dst.name,
                    nbytes=nbytes, until=win.until,
                )
                win.deferred.append(
                    lambda: self._retry_deferred(
                        src, dst, nbytes, slot, a, b, bulk, segments
                    )
                )
                return win.until

        if src.site == dst.site:
            bandwidth = link.bandwidth
            latency = link.wire_latency
        else:
            bandwidth = min(link.bandwidth, link.wan_bandwidth)
            latency = link.wan_latency
        duration = (
            (nbytes + link.frame_overhead * segments) / bandwidth
            + link.per_segment_gap * segments
        )
        # each NIC side is free after its last frame; a half-duplex host
        # moving a bulk frame waits for its other side too, and holds both
        hold = bulk and nbytes >= Host.HALF_DUPLEX_MIN_BYTES
        start = now + link.send_cpu  # once the sender's CPU has set it up
        tx_start = src._tx_free
        if hold and not src.full_duplex and src._rx_free > tx_start:
            tx_start = src._rx_free
        if start > tx_start:
            tx_start = start
        src._tx_free = tx_start + duration
        if hold and not src.full_duplex:
            src._rx_free = src._tx_free
        src.nic_tx_busy_s += duration
        start = tx_start + latency  # store-and-forward at the receiver
        rx_start = dst._rx_free
        if hold and not dst.full_duplex and dst._tx_free > rx_start:
            rx_start = dst._tx_free
        if start > rx_start:
            rx_start = start
        rx_end = dst._rx_free = rx_start + duration
        if hold and not dst.full_duplex:
            dst._tx_free = rx_end
        dst.nic_rx_busy_s += duration
        arrival = rx_end + link.recv_cpu

        self.bytes_moved += nbytes
        self.segments_moved += segments
        if self.tracer.hot:
            self.tracer.emit(
                now, "net.xfer",
                src=src.name, dst=dst.name, nbytes=nbytes, arrival=arrival,
            )
        sim.sched(arrival, slot, a, b)
        return arrival

    def _retry_deferred(
        self,
        src: Host,
        dst: Host,
        nbytes: int,
        slot: int,
        a: Any,
        b: Any,
        bulk: bool,
        segments: int,
    ) -> None:
        if src.failed or dst.failed:
            return  # the crash already broke the stream; the segment dies
        self.transfer(src, dst, nbytes, slot, a, b, bulk, segments)

    # -- link-level faults -------------------------------------------------
    def partition(
        self,
        group_a: Iterable[Host],
        group_b: Iterable[Host],
        duration: float,
    ) -> PartitionWindow:
        """Cut the fabric between two host groups for ``duration`` seconds.

        Hosts stay alive and streams stay connected; traffic crossing the
        cut is buffered and released at heal time.
        """
        names_a = frozenset(h.name for h in group_a)
        names_b = frozenset(h.name for h in group_b) - names_a
        win = PartitionWindow(names_a, names_b, self.sim.now + duration)
        self._partitions.append(win)
        self.partitions_injected += 1
        self.tracer.emit(
            self.sim.now, "net.partition",
            a=tuple(sorted(names_a)), b=tuple(sorted(names_b)),
            until=win.until,
        )
        self.sim.at(win.until, lambda: self._heal(win))
        return win

    def _heal(self, win: PartitionWindow) -> None:
        if win.healed:
            return
        win.healed = True
        if win in self._partitions:
            self._partitions.remove(win)
        self.tracer.emit(
            self.sim.now, "net.heal",
            a=tuple(sorted(win.group_a)), b=tuple(sorted(win.group_b)),
            released=len(win.deferred),
        )
        retries, win.deferred = win.deferred, []
        for retry in retries:
            retry()

    def _crossing(self, a: str, b: str) -> Optional[PartitionWindow]:
        for win in self._partitions:
            if win.separates(a, b):
                return win
        return None

    def partitioned(self, a: Host, b: Host) -> bool:
        """Is there an active cut between hosts ``a`` and ``b``?"""
        return a is not b and self._crossing(a.name, b.name) is not None

    def break_links(
        self, a: Host, b: Optional[Host] = None, cause: Any = "link-break"
    ) -> int:
        """Forcibly break live streams of ``a`` (to ``b`` only, if given).

        Models a link reset: every affected reader/writer raises
        :class:`~repro.simnet.streams.Disconnected` exactly as if the
        peer host crashed — but both hosts stay up, so the endpoints must
        reconnect and resynchronize.  Returns the number of streams broken.
        """
        broken = 0
        for stream in list(a._streams):
            if stream.dead:
                continue
            other = stream.b.host if stream.a.host is a else stream.a.host
            if b is not None and other is not b:
                continue
            stream.break_both(cause)
            broken += 1
        if broken:
            self.links_broken += broken
            self.tracer.emit(
                self.sim.now, "net.link_break",
                host=a.name, peer=None if b is None else b.name,
                streams=broken, cause=str(cause),
            )
        return broken

    def one_way_time(self, nbytes: int) -> float:
        """Analytic unloaded one-way time for a single segment (no queueing)."""
        return (
            self.link.send_cpu
            + self.link.wire_latency
            + (nbytes + self.link.frame_overhead) / self.link.bandwidth
            + self.link.per_segment_gap
            + self.link.recv_cpu
        )
