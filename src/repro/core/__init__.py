"""The paper's contribution: the MPICH-V2 pessimistic sender-based
message-logging protocol — clocks, sender log, event logger, the
daemon/device pair, and the replay engine."""

from .ckpt_client import CheckpointClient
from .clocks import ClockState, EventRecord
from .el_client import EventLogClient
from .event_logger import EventLoggerServer
from .peers import PeerLink, PeerManager
from .replay import CheckpointImage, DeliveryRecord, ReplayState
from .sender_log import LogOverflow, SenderLog
from .v2_device import V2Daemon, V2Device

__all__ = [
    "CheckpointClient",
    "ClockState",
    "EventRecord",
    "EventLogClient",
    "EventLoggerServer",
    "CheckpointImage",
    "DeliveryRecord",
    "ReplayState",
    "LogOverflow",
    "SenderLog",
    "PeerLink",
    "PeerManager",
    "V2Daemon",
    "V2Device",
]
