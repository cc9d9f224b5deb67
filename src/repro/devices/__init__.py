"""Channel devices: the MPICH-P4 baseline and the MPICH-V1
Channel-Memory logger.  (The MPICH-V2 device lives in ``repro.core``.)

``P4Device``/``V1Device``/``ChannelMemory`` are exposed lazily: each
device module also hosts its ``launch``, which pulls in the runtime.
"""

from .base import ChannelDevice, DeviceStats, segment_sizes

__all__ = [
    "ChannelDevice",
    "DeviceStats",
    "segment_sizes",
    "P4Device",
    "ChannelMemory",
    "V1Device",
]


def __getattr__(name):
    if name == "P4Device":
        from .p4 import P4Device

        return P4Device
    if name in ("ChannelMemory", "V1Device"):
        from . import v1

        return getattr(v1, name)
    raise AttributeError(name)
