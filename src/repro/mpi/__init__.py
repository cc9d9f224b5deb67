"""The MPICH-like layered MPI stack: channel interface -> protocol layer
-> ADI progress engine -> user API and collectives.

``MPI`` (the world communicator handed to programs) and ``Comm`` (every
communicator, the world and what ``split`` returns) are exposed lazily
to avoid a circular import with the channel devices.
"""

from .datatypes import ANY_SOURCE, ANY_TAG, Envelope, Message
from .requests import RecvRequest, Request, SendRequest
from .timing import CallTimer

__all__ = [
    "Comm",
    "MPI",
    "payload_nbytes",
    "ANY_SOURCE",
    "ANY_TAG",
    "Envelope",
    "Message",
    "RecvRequest",
    "Request",
    "SendRequest",
    "CallTimer",
]


def __getattr__(name):
    if name in ("Comm", "MPI", "payload_nbytes"):
        from . import api

        return getattr(api, name)
    raise AttributeError(name)
