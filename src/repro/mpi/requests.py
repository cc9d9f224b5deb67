"""Nonblocking-communication request objects."""

from __future__ import annotations

from typing import Optional

from ..simnet.kernel import Future, Simulator
from .datatypes import Envelope, Message

__all__ = ["Request", "SendRequest", "RecvRequest"]


class Request:
    """Base class for MPI requests; completion is a kernel future."""

    kind = "request"

    def __init__(self, sim: Simulator, name: str) -> None:
        self.done = Future(sim, name=name)

    @property
    def complete(self) -> bool:
        """Has the operation finished?"""
        return self.done.done

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {'done' if self.complete else 'pending'}>"


class SendRequest(Request):
    """Completes when the send buffer may be reused.

    For the P4 device this is when the payload has been pushed to the
    socket (eager) or transferred after the rendezvous handshake; for the
    V2 device it is as soon as the daemon holds the sender-based copy.
    """

    kind = "send"

    def __init__(self, sim: Simulator, env: Envelope) -> None:
        super().__init__(sim, name=f"send({env.src}->{env.dst} t{env.tag})")
        self.env = env


class RecvRequest(Request):
    """Completes at message delivery; resolves with a :class:`Message`."""

    kind = "recv"

    def __init__(
        self,
        sim: Simulator,
        src: int,
        tag: int,
        context: int,
        ranks: Optional[list[int]] = None,
    ) -> None:
        super().__init__(sim, name=f"recv(src={src} t{tag})")
        self.src = src  # world rank, like everything the ADI matches on
        self.tag = tag
        self.context = context
        self.ranks = ranks  # the posting communicator's group (None: world)
        self.message: Optional[Message] = None

    def fulfill(self, env: Envelope) -> None:
        """Deliver the matched envelope and resolve the request.

        ``Message.source`` is a rank of the communicator that posted the
        receive, so the application can reply to it there.
        """
        src = env.src if self.ranks is None else self.ranks.index(env.src)
        self.message = Message(src, env.tag, env.nbytes, env.data)
        self.done.resolve(self.message)
