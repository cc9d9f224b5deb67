"""The Abstract Device Interface: MPICH's progress engine.

Sits between the user-level API and a channel device.  Responsibilities:

* message matching (posted/unexpected queues, wildcards);
* the short/eager/rendezvous protocol state machines;
* the progress pump: blocking calls (wait/recv/probe) receive packets
  from the channel and advance protocol state until their own condition
  holds — exactly MPICH's single-threaded progress model, which is why
  a P4 rendezvous payload is transmitted during *a wait* rather than
  inside MPI_Isend;
* delivery notification: every application-level delivery is reported to
  the device (MPICH-V2 logs the reception event there) together with the
  count of unsuccessful probes since the previous delivery.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ..devices.base import ChannelDevice
from ..simnet.kernel import Future, Simulator
from ..simnet.trace import Tracer
from .datatypes import Envelope
from .matching import MatchEngine
from .protocol import Packet, PacketKind, inline_packet
from .requests import RecvRequest, SendRequest

__all__ = ["Adi"]


class Adi:
    """Per-rank progress engine over one channel device."""

    def __init__(
        self,
        sim: Simulator,
        device: ChannelDevice,
        rank: int,
        size: int,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.device = device
        self.rank = rank
        self.size = size
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.match = MatchEngine()
        # rendezvous state
        self._rndv_out: dict[tuple[int, int], tuple[Envelope, SendRequest]] = {}
        self._rndv_in: dict[tuple[int, int], RecvRequest] = {}
        self._unexpected_rts: set[tuple[int, int]] = set()
        # small control packets that could not be pushed without blocking
        self._ctrl_backlog: list[tuple[int, Packet]] = []
        # rendezvous DATA transmissions awaiting a blocking context
        self._data_backlog: list[tuple[Envelope, SendRequest]] = []
        self.probes_since_delivery = 0
        self.deliveries = 0
        # optional external packet filter (returns False to swallow)
        self.on_packet: Optional[Callable[[int, Packet], bool]] = None

    # -- sends ---------------------------------------------------------------
    def isend(self, env: Envelope) -> Generator[Future, Any, SendRequest]:
        """Start a send; returns a request (may block inside the device)."""
        req = SendRequest(self.sim, env)
        if env.dst == self.rank:
            self._arrived_payload(env)
            req.done.resolve(None)
            return req
        eager_limit = (
            float("inf") if self.device.eager_override else self.device.cfg.eager_threshold
        )
        if env.nbytes <= eager_limit:
            yield from self.device.pibsend(env.dst, inline_packet(env, self.device.cfg))
            req.done.resolve(None)
        else:
            pkt = Packet(PacketKind.RTS, env, payload_bytes=0)
            # register only after pibsend: the device stamps env.sclock (the
            # message id) inside the send, and no packet can be handled
            # while this coroutine holds the MPI process
            sent = yield from self.device.pibsend(env.dst, pkt)
            self._rndv_out[env.msgid] = (env, req)
            if sent is False:
                # suppressed (receiver already has it) or fast-forwarded:
                # the payload sits in the sender-based log; no CTS will come
                self._rndv_out.pop(env.msgid, None)
                req.done.resolve_if_pending(None)
        return req

    def peer_restarted(self, peer: int) -> None:
        """Repair rendezvous state after ``peer`` crashed and restarted.

        Outstanding sends to the peer complete (their payload lives in the
        sender-based log and the RESTART handshake re-delivers it); matched
        inbound rendezvous from the peer are re-posted, because the restarted
        sender will re-emit the message as an inline-payload replay packet.
        """
        for msgid in [m for m, (env, _) in self._rndv_out.items() if env.dst == peer]:
            env, sreq = self._rndv_out.pop(msgid)
            sreq.done.resolve_if_pending(None)
        for msgid in [m for m in self._rndv_in if m[0] == peer]:
            req = self._rndv_in.pop(msgid)
            self.match.posted.insert(0, req)
        # unexpected RTS envelopes from the peer are stale too: the payload
        # will re-arrive inline with the same message id
        stale = {m for m in self._unexpected_rts if m[0] == peer}
        if stale:
            self.match.unexpected = [
                e for e in self.match.unexpected if e.msgid not in stale
            ]
        self._unexpected_rts -= stale
        self._ctrl_backlog = [
            (dst, pkt) for dst, pkt in self._ctrl_backlog if dst != peer
        ]

    # -- receives ---------------------------------------------------------------
    def irecv(
        self, src: int, tag: int, context: int, ranks: Optional[list[int]] = None
    ) -> RecvRequest:
        """Post a receive (never blocks); ``ranks`` is the poster's group."""
        req = RecvRequest(self.sim, src, tag, context, ranks)
        env = self.match.post(req)
        if env is not None:
            self._matched(req, env)
        return req

    def _matched(self, req: RecvRequest, env: Envelope) -> None:
        """A receive paired with an envelope: deliver or clear-to-send."""
        if env.msgid in self._unexpected_rts:
            self._unexpected_rts.discard(env.msgid)
            self._rndv_in[env.msgid] = req
            cts = Packet(PacketKind.CTS, env, payload_bytes=0, ctrl=env.msgid)
            self._post_ctrl(env.src, cts)
        else:
            self._deliver(req, env)

    def _deliver(self, req: RecvRequest, env: Envelope) -> None:
        req.fulfill(env)
        self.deliveries += 1
        probes = self.probes_since_delivery
        self.probes_since_delivery = 0
        if env.src != self.rank:
            self.device.on_app_deliver(env, probes)
        if self.tracer.hot:
            self.tracer.emit(
                self.sim.now,
                "adi.deliver",
                rank=self.rank,
                src=env.src,
                tag=env.tag,
                nbytes=env.nbytes,
                sclock=env.sclock,
                probes=probes,
            )

    # -- probes ---------------------------------------------------------------
    def iprobe(self, src: int, tag: int, context: int) -> Optional[Envelope]:
        """Non-blocking probe; counts unsuccessful probes for the event log."""
        forced = self.device.force_probe()
        if forced is False:
            self.probes_since_delivery += 1
            return None
        self._progress_nonblocking()
        env = self.match.probe(src, tag, context)
        if env is None:
            self.probes_since_delivery += 1
        return env

    def probe_blocking(
        self, src: int, tag: int, context: int
    ) -> Generator[Future, Any, Envelope]:
        """Blocking probe: pump until a matching message is unexpected."""
        while True:
            self._progress_nonblocking()
            env = self.match.probe(src, tag, context)
            if env is not None:
                return env
            yield from self._pump_one()

    # -- progress ---------------------------------------------------------------
    def wait(self, req) -> Generator[Future, Any, Any]:
        """Pump the progress engine until ``req`` completes."""
        self._progress_nonblocking()
        while not req.complete:
            yield from self._pump_one(lambda: req.complete)
        return req.done.value

    def wait_all(self, reqs) -> Generator[Future, Any, None]:
        """Pump until every request completes."""
        self._progress_nonblocking()
        for req in reqs:
            while not req.complete:
                yield from self._pump_one(lambda: req.complete)

    def wait_any(self, reqs) -> Generator[Future, Any, int]:
        """Pump until at least one request completes; returns its index."""
        self._progress_nonblocking()
        while True:
            for i, req in enumerate(reqs):
                if req.complete:
                    return i
            yield from self._pump_one(lambda: any(r.complete for r in reqs))

    def _pump_one(self, stop: Optional[Callable[[], bool]] = None) -> Generator[Future, Any, None]:
        """Flush deferred work, then receive and handle one packet."""
        yield from self._flush_backlogs()
        if stop is not None and stop():
            return
        src, pkt = yield from self.device.pibrecv()
        yield from self._handle(src, pkt)
        self._progress_nonblocking()

    def _flush_backlogs(self) -> Generator[Future, Any, None]:
        """Push all deferred packets, blocking if the windows are full.

        Blocking here is deadlock-free: devices drain incoming segments
        while a send is window-blocked (the select() fallback).
        """
        while self._ctrl_backlog:
            dst, pkt = self._ctrl_backlog.pop(0)
            yield from self.device.pibsend(dst, pkt)
        while self._data_backlog:
            env, sreq = self._data_backlog.pop(0)
            data_pkt = Packet(PacketKind.DATA, env, payload_bytes=env.nbytes)
            yield from self.device.pibsend(env.dst, data_pkt)
            sreq.done.resolve_if_pending(None)

    def _progress_nonblocking(self) -> None:
        """Handle everything already arrived without blocking.

        CTS packets queue their DATA transmission on a backlog that is
        flushed by the next blocking call — small control replies are
        pushed immediately when the stream window allows.
        """
        self._flush_ctrl()
        for src, pkt in self.device.poll():
            self._handle_nonblocking(src, pkt)
        self._flush_ctrl()

    def _flush_ctrl(self) -> None:
        while self._ctrl_backlog:
            dst, pkt = self._ctrl_backlog[0]
            if self.device.try_send_now(dst, pkt):
                self._ctrl_backlog.pop(0)
            else:
                break

    def _post_ctrl(self, dst: int, pkt: Packet) -> None:
        if self._ctrl_backlog or not self.device.try_send_now(dst, pkt):
            self._ctrl_backlog.append((dst, pkt))

    # -- packet handling ------------------------------------------------------
    def _handle(self, src: int, pkt: Packet) -> Generator[Future, Any, None]:
        """Handle one packet in a blocking context (CTS sends DATA inline)."""
        if self.on_packet is not None and not self.on_packet(src, pkt):
            return
        if pkt.kind is PacketKind.CTS:
            entry = self._rndv_out.pop(pkt.ctrl, None)
            if entry is None:
                return  # duplicate CTS (recovery edge): already served
            env, sreq = entry
            data_pkt = Packet(PacketKind.DATA, env, payload_bytes=env.nbytes)
            yield from self.device.pibsend(env.dst, data_pkt)
            sreq.done.resolve_if_pending(None)
        else:
            self._handle_nonblocking(src, pkt)

    def _handle_nonblocking(self, src: int, pkt: Packet) -> None:
        if self.on_packet is not None and not self.on_packet(src, pkt):
            return
        kind = pkt.kind
        if kind in (PacketKind.SHORT, PacketKind.EAGER):
            self._arrived_payload(pkt.env)
        elif kind is PacketKind.RTS:
            req = self.match.arrived(pkt.env)
            if req is not None:
                self._rndv_in[pkt.env.msgid] = req
                cts = Packet(PacketKind.CTS, pkt.env, payload_bytes=0, ctrl=pkt.env.msgid)
                self._post_ctrl(pkt.env.src, cts)
            else:
                self._unexpected_rts.add(pkt.env.msgid)
        elif kind is PacketKind.DATA:
            req = self._rndv_in.pop(pkt.env.msgid, None)
            if req is None:
                self._arrived_payload(pkt.env)
            else:
                self._deliver(req, pkt.env)
        elif kind is PacketKind.CTS:
            entry = self._rndv_out.pop(pkt.ctrl, None)
            if entry is not None:
                self._data_backlog.append(entry)
        elif kind is PacketKind.CONTROL:
            pass  # device-internal traffic never reaches the ADI
        else:  # pragma: no cover
            raise RuntimeError(f"unhandled packet kind {kind}")

    def _arrived_payload(self, env: Envelope) -> None:
        req = self.match.arrived(env)
        if req is not None:
            self._deliver(req, env)
