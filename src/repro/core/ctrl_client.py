"""The daemon's control-plane client: dispatcher and scheduler links.

Both links are best-effort under partitions — a daemon that cannot
reach the dispatcher still computes, it just cannot report
UNRECOVERABLE states; a daemon that cannot reach the checkpoint
scheduler still answers peers, it just takes no ordered checkpoints
until the link heals.  Each is a
:class:`~repro.runtime.session.Session` under the shared retry policy.

Composes with the daemon core through the usual explicit interface:
``core`` provides the handles every part of a
:class:`~repro.core.v2_device.V2Daemon` reads (both links come from its
:meth:`~repro.core.v2_device.V2Daemon.session`) plus ``device``,
``finalized`` and ``ckpt.order()`` (checkpoint orders).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..runtime.fabric import ConnectionRefused
from ..runtime.session import Session
from ..simnet.kernel import Future
from ..simnet.streams import Disconnected, StreamEnd

__all__ = ["ControlPlaneClient"]


class ControlPlaneClient:
    """One rank's links to the dispatcher and the checkpoint scheduler."""

    def __init__(self, core: Any, sched_name: Optional[str]) -> None:
        self.core = core
        self.sim = core.sim
        tries = core.cfg.peer_retry_tries
        hello = ("HELLO", core.rank, core.incarnation)
        self.disp = core.session("dispatcher", "disp", tries, hello=hello)
        self.sched: Optional[Session] = None
        if sched_name is not None:
            self.sched = core.session(sched_name, "sched", tries, hello=hello)

    @property
    def disp_end(self) -> Optional[StreamEnd]:
        return self.disp.end

    @property
    def sched_end(self) -> Optional[StreamEnd]:
        return self.sched.end if self.sched is not None else None

    # ------------------------------------------------------------------
    # startup
    # ------------------------------------------------------------------
    def connect_dispatcher(self) -> Generator[Future, Any, None]:
        """Dial the dispatcher with backoff (best-effort: may give up)."""
        yield from self.disp.connect()

    def connect_scheduler(self) -> None:
        """Single scheduler dial; a refused scheduler is simply absent."""
        if self.sched is not None:
            try:
                self.sched.connect_now()
            except ConnectionRefused:
                pass

    def start_sched_loop(self) -> None:
        if self.sched_end is not None:
            self.core._spawn(self._sched_loop(), "sched")

    def start_heartbeat(self, interval: float, timeout: float) -> None:
        """Start PINGing the dispatcher and draining its PONGs.

        The dispatcher link carries no other inbound traffic toward the
        daemon, so a dedicated reader just absorbs PONGs (inside
        :meth:`Session.read_record`) and exits when the link breaks."""
        if self.disp.end is None:
            return
        self.core._spawn(self._disp_reader(), "disp.rx")
        self.core._spawn(self.disp.heartbeat(interval, timeout), "disp.hb")

    def _disp_reader(self):
        sess = self.disp
        while True:
            end = sess.end
            if end is None:
                return
            try:
                yield from sess.read_record(end)
            except Disconnected:
                # best-effort link: no reconnect storm from the reader;
                # the heartbeat loop keeps skipping while it is down
                sess.drop(end)
                return

    # ------------------------------------------------------------------
    # dispatcher reports
    # ------------------------------------------------------------------
    def report_unrecoverable(self, q: int):
        if self.disp_end is not None:
            try:
                yield from self.disp_end.write(16, ("UNRECOVERABLE", q))
            except Disconnected:  # pragma: no cover
                pass

    def report_finalized(self) -> Generator[Future, Any, None]:
        """Tell the dispatcher this rank's MPI process completed."""
        if self.disp_end is not None:
            try:
                yield from self.disp_end.write(16, ("FINALIZED", self.core.rank))
            except Disconnected:
                pass
        else:
            yield self.sim.pause(0.0)

    # ------------------------------------------------------------------
    # scheduler protocol
    # ------------------------------------------------------------------
    def _sched_loop(self):
        core = self.core
        sess = self.sched
        while True:
            end = sess.end
            if end is None:
                return
            try:
                msg = yield from sess.read_record(end)
            except Disconnected:
                # a flapped control link: reconnect so checkpoint orders
                # keep flowing (the scheduler re-registers us on accept)
                sess.drop(end)
                yield from sess.connect()
                continue
            if msg[0] == "STATUS_REQ":
                # the adaptive policy's counters (§4.6.2)
                stats = core.device.stats if core.device else None
                status = ("STATUS", core.rank, {
                    "bytes_sent": stats.bytes_sent if stats else 0,
                    "bytes_received": stats.bytes_received if stats else 0,
                    "finalized": core.finalized,
                })
                try:
                    yield from end.write(32, status)
                except Disconnected:
                    continue  # the next read notices and reconnects
            elif msg[0] == "CKPT_ORDER":
                core.ckpt.order()
