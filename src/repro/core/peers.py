"""Peer-daemon links: adoption, epochs, reconnects, the tx loop and reader.

One :class:`PeerManager` per daemon incarnation owns the mesh of
daemon-to-daemon connections.  Each link is a :class:`PeerLink` — a
:class:`~repro.runtime.session.Session` carrying raw
:class:`~repro.mpi.protocol.Packet` payloads and control tuples — plus
the rules that make a volatile mesh converge:

* **crossed-stream tie-break** — two daemons restarting simultaneously
  cross-connect; both sides settle on the stream initiated by the lower
  rank (:meth:`PeerManager.adopt`);
* **lower-rank reconnect rule** — a flapped link restarts no daemon, so
  nobody would ever re-connect; the canonical initiator (the lower
  rank) actively retries with backoff while the other side listens;
* **epoch discipline** — every adoption bumps the link epoch; the tx
  loop and the reader carry the epoch they were started under and stop
  the moment it goes stale, so those of a replaced stream never touch
  the new one.  The tx loop is a process (it blocks on the WAITLOGGED
  gate and on window credit); the reader is a
  :class:`~repro.runtime.session.PushReader`, called at each segment's
  arrival, because all it does after a read is synchronous;
* **RESTART1 re-arming** — a link marked ``needs_restart1`` re-sends
  the handshake on every adoption until RESTART2 lands (a replaced
  stream may have swallowed an earlier RESTART1; handling is
  idempotent); until it lands, fresh first packets queue behind its
  re-sends, or the peer's duplicate watermark would drop an older one.

The protocol itself (control handling, duplicate discard, forwarding)
stays in the daemon core, reached through the ``core`` composition
interface documented on :class:`PeerManager`.
"""

from __future__ import annotations

from typing import Any

from ..mpi.protocol import FIRST_KINDS, Packet
from ..runtime.fabric import ConnectionRefused
from ..runtime.retry import RetryPolicy
from ..runtime.session import PushReader, ServiceBase, Session
from ..simnet.kernel import Queue
from ..simnet.node import HostDown
from ..simnet.streams import Disconnected, StreamEnd

__all__ = ["PeerLink", "PeerManager"]


class PeerLink(Session):
    """State of the connection from daemon ``core`` to peer ``rank``."""

    def __init__(self, core: Any, rank: int) -> None:
        cfg = core.cfg
        super().__init__(
            core.sim, core.fabric, core.host, f"daemon:{rank}",
            hello=("PEER", core.rank, core.incarnation),
            window=cfg.stream_window,
            policy=RetryPolicy.from_config(cfg, max_tries=cfg.peer_retry_tries),
            rng=core.rng, on_retry=core._note_outage_retry,
            tracer=core.tracer, metrics=core.metrics,
            scope="peer", payload_types=(Packet,),
            labels={"rank": core.rank, "peer": rank},
        )
        self.rank = rank
        self.tx: Queue = Queue(core.sim, name=f"d{core.rank}->d{rank}.tx")
        self.initiator = -1  # rank that initiated the current stream
        self.resends_due = False  # SAVED had messages to it at adoption
        self.held: list[Packet] = []  # fresh packets waiting for RESTART2


class PeerManager:
    """The daemon's mesh of peer links, their transmit loops and readers.

    Composes with the daemon core through an explicit interface: ``core``
    provides the handles every part of a
    :class:`~repro.core.v2_device.V2Daemon` reads (listed there) plus
    ``clock`` (for the RESTART1 watermark), ``saved``, ``cpu_tax_owed``,
    ``device`` (or None), ``el.wait_sendable()`` (the WAITLOGGED gate)
    and ``_handle_ctrl(q, msg)`` / ``delivery.handle_app_packet(q, pkt)``
    (protocol dispatch).
    """

    def __init__(self, core: Any) -> None:
        self.core = core
        self.sim = core.sim
        rank = core.rank
        self.links: dict[int, PeerLink] = {
            q: PeerLink(core, q) for q in range(core.size) if q != rank
        }
        self.needs_restart1: set[int] = set()
        self.tracer = core.tracer
        self._m_outage_reconnects = core.metrics.counter(
            "outage.reconnects", rank=rank
        )
        self.listener = _DaemonListener(
            self, core.sim, core.host, core.fabric, f"daemon:{rank}",
            tracer=core.tracer, metrics=core.metrics,
        )

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def connect_initial(self) -> None:
        """Dial the startup peer set: lower ranks only on a first launch
        (they listen first); a restarted daemon reconnects to everyone
        it can reach."""
        core = self.core
        targets = (
            list(self.links)
            if core.incarnation > 0
            else [q for q in self.links if q < core.rank]
        )
        for q in targets:
            link = self.links[q]
            try:
                end = link.connect_now(adopt=False)
            except ConnectionRefused:
                if core.incarnation > 0:
                    # the peer may be alive but partitioned away: unlike a
                    # crashed peer (which reconnects to us on restart), it
                    # will never initiate, so keep trying in the background
                    core._spawn(self._reconnect(q, link.epoch), f"re{q}")
                continue  # peer is down; it will connect to us when it returns
            self.adopt(q, end, initiator=core.rank)

    def adopt(self, q: int, end: StreamEnd, initiator: int) -> None:
        """Install (or replace) the connection to peer ``q``.

        Two daemons restarting simultaneously cross-connect; both sides
        must settle on the *same* stream or each would transmit on a
        stream the other is not reading.  Tie-break: the stream initiated
        by the lower rank is canonical.
        """
        core = self.core
        link = self.links[q]
        canonical = min(core.rank, q)
        if link.up() and link.initiator == canonical and initiator != canonical:
            return  # keep the canonical stream; ignore the crossed one
        link.adopt(end)
        link.initiator = initiator
        # drop whatever was queued for the old connection: every app packet
        # is in SAVED, and the RESTART handshake re-sends what is needed
        link.tx = Queue(self.sim, name=f"d{core.rank}->d{q}.tx.e{link.epoch}")
        link.held.clear()
        link.resends_due = core.saved.holds_any(q)
        epoch = link.epoch
        core._spawn(self._tx_loop(q, link, epoch), f"tx{q}e{epoch}")
        PushReader(
            link,
            lambda record: self._on_record(q, record),
            lambda: self.link_down(q, epoch),
            host=core.host, name=core.proc_name(f"rx{q}e{epoch}"),
            epoch=epoch,
        )
        if q in self.needs_restart1:
            # stays armed until RESTART2 arrives: a replaced stream may have
            # swallowed an earlier RESTART1 (handling is idempotent)
            self.enqueue_ctrl(q, ("RESTART1", core.clock.hr.get(q, 0)))

    def link_down(self, q: int, epoch: int) -> None:
        core = self.core
        link = self.links[q]
        if link.stale(epoch):
            return  # already replaced
        link.drop()
        if core.device is not None:
            core.device.notify_peer_restart_pending(q)
        # whatever stream comes next (the peer's restart connect, a link
        # re-establishment after a flap), both sides must resynchronize:
        # the symmetric RESTART1 exchange re-sends each direction's saved
        # messages past the other's delivery watermark and repairs pending
        # rendezvous state; duplicates die on the forwarded_hw discard
        self.needs_restart1.add(q)
        if core.rank < q:
            # one side must actively re-establish a flapped link (a mere
            # link break restarts no daemon, so nobody else would connect);
            # the canonical initiator retries, the other side listens.  If
            # the peer actually crashed, its restarted daemon's connect
            # simply wins the race (crossed-stream tie-break).
            core._spawn(self._reconnect(q, epoch), f"re{q}")

    def _reconnect(self, q: int, epoch0: int):
        """Re-establish the link to ``q`` with backoff (flap/partition)."""
        link = self.links[q]

        def settled() -> bool:
            return link.stale(epoch0) or link.up()

        end = yield from link.connect(giveup=settled, adopt=False)
        if end is None:
            return  # link already replaced, or a restarted peer will connect
        self._m_outage_reconnects.inc()
        self.tracer.emit(
            self.sim.now, "v2.peer_reconnect", rank=self.core.rank, peer=q
        )
        self.adopt(q, end, initiator=self.core.rank)

    # ------------------------------------------------------------------
    # transmit loop / reader
    # ------------------------------------------------------------------
    def enqueue_app(self, dst: int, pkt: Packet) -> None:
        """Queue one application packet on the per-peer transmit loop."""
        link = self.links[dst]
        if link.resends_due and dst in self.needs_restart1 and pkt.kind in FIRST_KINDS:
            link.held.append(pkt)
        else:
            link.tx.put(pkt)

    def release_held(self, dst: int) -> None:
        """RESTART2 landed: the held packets follow its re-sends."""
        link = self.links[dst]
        for pkt in link.held:
            link.tx.put(pkt)
        link.held.clear()

    def enqueue_ctrl(self, dst: int, ctrl: tuple) -> None:
        self.links[dst].tx.put(ctrl)

    def _tx_loop(self, q: int, link: PeerLink, epoch: int):
        core = self.core
        cfg = core.cfg
        myq = link.tx
        while not link.stale(epoch):
            ok, item = myq.try_get()
            if not ok:
                try:
                    item = yield myq.get()
                except Disconnected:
                    return
            if isinstance(item, tuple):  # control message, not gated
                end = link.end
                if end is None or link.stale(epoch):
                    return
                try:
                    yield from end.write(24, item)
                except (Disconnected, HostDown):
                    self.link_down(q, epoch)
                    return
                continue
            pkt: Packet = item
            yield from core.el.wait_sendable()  # WAITLOGGED
            end = link.end
            if end is None or link.stale(epoch):
                return  # packet dropped; SAVED + handshake recover it
            total = pkt.payload_bytes + cfg.packet_header_bytes
            if self.tracer.hot:
                self.tracer.emit(
                    self.sim.now,
                    "v2.tx",
                    rank=core.rank,
                    dst=q,
                    pkt_kind=pkt.kind.value,
                    sclock=pkt.env.sclock,
                )
            try:
                yield from end.write_frame(total, pkt, mtu=cfg.chunk_bytes)
            except (Disconnected, HostDown):
                self.link_down(q, epoch)
                return
            core.cpu_tax_owed += (
                cfg.daemon_cpu_per_msg
                + cfg.daemon_cpu_per_byte * pkt.payload_bytes
            )

    def _on_record(self, q: int, record: Any) -> None:
        """One record from peer ``q``'s reader: control or application."""
        if isinstance(record, tuple):
            self.core._handle_ctrl(q, record)
        else:
            self.core.delivery.handle_app_packet(q, record)


class _DaemonListener(ServiceBase):
    """The daemon's listening side, on the shared service lifecycle.

    The daemon listens *before* recovery (so its name is claimed) but
    accepts only once recovery is done — hence the split
    ``listen()`` / ``run_accept()`` phases instead of ``start()``.
    """

    metric_ns = "daemon"

    def __init__(self, mgr: PeerManager, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._mgr = mgr

    def on_accept(self, end: StreamEnd, hello: Any) -> None:
        kind, peer_rank, peer_inc = hello
        self._mgr.adopt(peer_rank, end, initiator=peer_rank)
