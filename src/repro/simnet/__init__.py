"""Discrete-event simulation substrate: kernel, hosts, network, streams.

This package replaces the paper's physical testbed (32-node Athlon cluster
on switched 100 Mbit/s Ethernet): everything above it -- the MPI stack, the
channel devices, the fault-tolerance runtime -- is implemented exactly as
the paper describes, but runs on simulated time.
"""

from .kernel import (
    DeadlockError,
    Future,
    Gate,
    Killed,
    Process,
    Queue,
    SimError,
    Simulator,
    all_of,
    any_of,
)
from .network import LinkConfig, Network, PartitionWindow
from .node import Host, HostDown
from .rng import RngRegistry
from .streams import DEFAULT_WINDOW, Disconnected, Stream, StreamEnd
from .trace import Tracer, TraceRecord

__all__ = [
    "DeadlockError",
    "Future",
    "Gate",
    "Killed",
    "Process",
    "Queue",
    "SimError",
    "Simulator",
    "all_of",
    "any_of",
    "LinkConfig",
    "Network",
    "PartitionWindow",
    "Host",
    "HostDown",
    "RngRegistry",
    "DEFAULT_WINDOW",
    "Disconnected",
    "Stream",
    "StreamEnd",
    "TraceRecord",
    "Tracer",
]
