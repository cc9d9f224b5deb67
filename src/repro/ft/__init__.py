"""The fault-tolerance runtime: dispatcher, checkpoint scheduler,
service deployment, failure injection, service supervision."""

from .ckpt_scheduler import POLICIES, CheckpointScheduler
from .dispatcher import Dispatcher
from .failure import (
    ChurnFaults,
    ComposedFaults,
    ExplicitFaults,
    FaultContext,
    LinkFlapFaults,
    PartitionFaults,
    RandomFaults,
    ServiceFaults,
)
from .services import ServiceSupervisor

__all__ = [
    "POLICIES",
    "CheckpointScheduler",
    "Dispatcher",
    "ChurnFaults",
    "ComposedFaults",
    "ExplicitFaults",
    "FaultContext",
    "LinkFlapFaults",
    "PartitionFaults",
    "RandomFaults",
    "ServiceFaults",
    "ServiceSupervisor",
]
