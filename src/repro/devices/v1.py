"""The MPICH-V1 baseline: Channel-Memory-based pessimistic logging.

MPICH-V1 (the paper's first protocol, SC'02) associates every computing
node with a reliable **Channel Memory** (CM): "Every communication sent
to a process is stored and ordered on its associated Channel Memory. To
receive a message, a process sends a request to its associated Channel
Memory."  Every payload therefore crosses the network twice through the
CM's NIC, store-and-forward at message granularity — which is why V1's
bandwidth is about half of P4's and why it needs many reliable nodes
(the paper uses one CM per 4 computing nodes: 9 reliable nodes for 32
CNs, versus 1 for MPICH-V2).

Recovery is trivially uncoordinated: the CM keeps the full ordered
reception log, so a restarted process simply replays its receive stream
from the CM (no sender cooperation needed).  This module implements the
CM server, the V1 channel device, and :func:`launch`, V1's contribution
to the one launch path (:func:`repro.runtime.mpirun.start`): the
supervised Channel Memories and the restart-from-scratch rank slots.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..mpi.protocol import Packet
from ..obs.registry import Metrics
from ..runtime.config import TestbedConfig
from ..runtime.fabric import ConnectionRefused, Fabric
from ..runtime.mpirun import Deployment, RankSet, RankState
from ..runtime.retry import RetryPolicy
from ..runtime.session import ServiceBase, Session
from ..simnet.kernel import Future, Simulator
from ..simnet.node import Host, HostDown
from ..simnet.streams import Disconnected, StreamEnd
from ..simnet.trace import Tracer
from .base import ChannelDevice, segment_sizes

__all__ = ["ChannelMemory", "V1Device", "V1Ranks", "launch"]


class ChannelMemory(ServiceBase):
    """One reliable Channel Memory node serving a group of computing nodes.

    Stores every message addressed to its associated receivers, in
    arrival order, and serves them one per GET request.  The permanent
    log survives receiver crashes; a restarted receiver's GET cursor
    restarts from zero (or from its checkpoint position) and replays the
    stored stream in the original order.  On the shared service
    lifecycle a CM can be stopped and restarted without losing its log
    (the lost in-flight GET is re-issued by the receiver's next
    ``pibrecv``).
    """

    metric_ns = "cm"
    payload_types = (Packet,)

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        fabric: Fabric,
        cfg: TestbedConfig,
        name: str,
        tracer: Tracer,
        metrics: Metrics,
    ) -> None:
        super().__init__(sim, host, fabric, name, tracer=tracer, metrics=metrics)
        self.cfg = cfg
        # per destination rank: the full ordered reception log
        self.log: dict[int, list[Packet]] = {}
        # per destination rank: message ids already stored (re-executed
        # senders re-emit their history; the CM is the dedup point)
        self.seen: dict[int, set] = {}
        # per destination rank: cursor of the next message to serve
        self.cursor: dict[int, int] = {}
        # pending GET requests per rank (stream to answer on)
        self._waiting: dict[int, StreamEnd] = {}
        self._m_stores = self.metrics.counter("v1.cm_stores", cm=name)
        self._m_serves = self.metrics.counter("v1.cm_serves", cm=name)

    def on_stop(self, cause: Any) -> None:
        # pending GETs died with their streams (the receivers re-issue
        # them after reconnecting); the log, the msgid dedup set and the
        # serve cursors are the durable state the relaunch serves from
        self._waiting.clear()

    def _serve(self, end: StreamEnd, hello: Any = None):
        while True:
            try:
                msg = yield from self._read_record(end)
            except Disconnected:
                return
            if isinstance(msg, Packet):
                # STORE: a message for one of our receivers
                dst = msg.env.dst
                yield self.sim.pause(self.cfg.cm_store_cpu)
                ids = self.seen.setdefault(dst, set())
                if msg.env.msgid in ids:
                    yield from self._maybe_serve(dst)
                    continue  # duplicate from a re-executing sender
                ids.add(msg.env.msgid)
                self.log.setdefault(dst, []).append(msg)
                self._m_stores.inc()
                yield from self._maybe_serve(dst)
            elif msg[0] == "GET":
                # replies go back on the same stream the request came in on
                self._waiting[msg[1]] = end
                yield from self._maybe_serve(msg[1])
            elif msg[0] == "RESET":
                # a restarted receiver replays from its checkpoint cursor
                self.cursor[msg[1]] = msg[2]
            else:  # pragma: no cover
                raise RuntimeError(f"channel memory got {msg[0]!r}")

    def _maybe_serve(self, rank: int) -> Generator[Future, Any, None]:
        end = self._waiting.get(rank)
        if end is None:
            return
        cur = self.cursor.get(rank, 0)
        msgs = self.log.get(rank, ())
        if cur >= len(msgs):
            return
        pkt = msgs[cur]
        self.cursor[rank] = cur + 1
        del self._waiting[rank]
        self._m_serves.inc()
        total = pkt.payload_bytes + self.cfg.packet_header_bytes
        sizes = segment_sizes(total, self.cfg.chunk_bytes)
        try:
            for nbytes in sizes[:-1]:
                yield from end.write(nbytes, None)
            yield from end.write(sizes[-1], pkt)
        except Disconnected:
            # the receiver crashed mid-delivery: rewind so its replacement
            # replays this message too
            self.cursor[rank] = cur
            self._waiting.pop(rank, None)


class V1Device(ChannelDevice):
    """The V1 channel: all traffic through the receiver's Channel Memory."""

    #: the CM buffers everything reliably, so the rendezvous protocol is
    #: pointless: every message ships eagerly to the CM
    eager_override = True

    def __init__(
        self,
        sim: Simulator,
        cfg: TestbedConfig,
        rank: int,
        size: int,
        host: Host,
        tracer: Tracer,
        metrics: Metrics,
        fabric: Fabric,
        cm_of: dict[int, str],
        incarnation: int,
    ) -> None:
        super().__init__(sim, cfg, rank, size, host, tracer)
        self.cm_of = cm_of  # rank -> CM service name
        self.incarnation = incarnation
        self._metrics = metrics
        self.fabric = fabric
        self._sessions: dict[str, Session] = {}  # CM name -> session
        self._own: Optional[Session] = None  # session to our own CM
        self._get_outstanding = False
        self.replay_cursor = 0  # messages consumed (checkpointing hook)
        # per CM: every packet stored there by this incarnation.  A CM
        # service crash drops in-flight segments without telling the
        # writer (STOREs carry no acknowledgement), so after a reconnect
        # the whole history is re-emitted — exactly what a re-executed V1
        # sender does — and the CM's durable msgid set discards the bulk
        # of it as duplicates.
        self._sent_history: dict[str, list[Packet]] = {}
        self._dialed: set[str] = set()  # CMs connected at least once
        self._m_cm_reconnects = metrics.counter("v1.cm_reconnects")

    def _session_for_cm(self, cm: str) -> Session:
        """The session object for one Channel Memory (not yet dialled)."""
        sess = self._sessions.get(cm)
        if sess is None:
            sess = Session(
                self.sim, self.fabric, self.host, cm,
                hello=("CN", self.rank), tracer=self.tracer,
                metrics=self._metrics, scope="v1",
                policy=RetryPolicy.from_config(self.cfg),
                payload_types=(Packet,), labels={"rank": self.rank},
            )
            self._sessions[cm] = sess
        return sess

    def _cm_up(self, cm: str) -> Generator[Future, Any, Session]:
        """The live session to ``cm``, reconnecting with backoff.

        The fast path (CM up, or first dial of a running CM) is a single
        synchronous connect, as before.  A CM that is down — a supervised
        service crash — is retried under the session's backoff policy;
        exhausting the budget breaks the deployment contract (the
        supervisor restarts crashed CMs) and fails the run loudly."""
        sess = self._session_for_cm(cm)
        if sess.up():
            return sess
        redial = cm in self._dialed
        try:
            sess.connect_now()
        except ConnectionRefused:
            end = yield from sess.connect()
            if end is None:
                raise RuntimeError(
                    f"rank {self.rank}: channel memory {cm} unreachable "
                    f"after {sess.policy.max_tries} attempts"
                )
        self._dialed.add(cm)
        if redial:
            self._m_cm_reconnects.inc()
            yield from self._after_reconnect(cm, sess)
        return sess

    def _after_reconnect(
        self, cm: str, sess: Session
    ) -> Generator[Future, Any, None]:
        """Restore the state a broken CM stream carried.

        Our own CM's serve cursor may sit past a message whose delivery
        died in flight: rewind it to what we actually consumed, and
        forget the lost GET.  Then re-emit our store history (the CM
        dedups by msgid), covering any STORE dropped mid-transfer."""
        if cm == self.cm_of[self.rank]:
            yield from sess.write(16, ("RESET", self.rank, self.replay_cursor))
            self._get_outstanding = False
        for pkt in self._sent_history.get(cm, ()):
            total = pkt.payload_bytes + self.cfg.packet_header_bytes
            sizes = segment_sizes(total, self.cfg.chunk_bytes)
            last = len(sizes) - 1
            for i, nbytes in enumerate(sizes):
                yield from sess.end.write(nbytes, pkt if i == last else None)

    def piinit(self) -> Generator[Future, Any, None]:
        self._own = yield from self._cm_up(self.cm_of[self.rank])
        if self.incarnation > 0:
            # uncoordinated restart: replay the reception stream from the
            # beginning -- "a process re-execution is independent of the
            # other processes of the system" (Section 3.2)
            yield from self._own.write(16, ("RESET", self.rank, 0))
        yield self.sim.pause(0.0)

    @property
    def _own_end(self) -> StreamEnd:
        return self._own.end

    # -- sending: store on the receiver's CM ------------------------------------
    def pibsend(self, dst: int, pkt: Packet) -> Generator[Future, Any, bool]:
        """Store the message on the *receiver's* Channel Memory."""
        self.stamp(pkt.env)
        cm = self.cm_of[dst]
        total = pkt.payload_bytes + self.cfg.packet_header_bytes
        sizes = segment_sizes(total, self.cfg.chunk_bytes)
        last = len(sizes) - 1
        while True:
            sess = self._session_for_cm(cm)
            end = sess.end
            try:
                sess = yield from self._cm_up(cm)
                end = sess.end
                for i, nbytes in enumerate(sizes):
                    yield from end.write(nbytes, pkt if i == last else None)
            except (Disconnected, HostDown):
                # the CM went down mid-store: drop the link and redo the
                # whole STORE on the relaunched CM (msgid-deduped there)
                if end is not None:
                    sess.drop(end)
                continue
            break
        self._sent_history.setdefault(cm, []).append(pkt)
        self.stats.bytes_sent += pkt.payload_bytes
        self.stats.msgs_sent += 1
        return True

    def try_send_now(self, dst: int, pkt: Packet) -> bool:
        """V1 has no small control replies to push."""
        # V1 never sends CTS (eager_override): nothing small to push
        return False

    # -- receiving: pull from our own CM ------------------------------------------
    def pibrecv(self) -> Generator[Future, Any, tuple[int, Packet]]:
        """Pull the next stored message from our Channel Memory."""
        own_cm = self.cm_of[self.rank]
        while True:
            sess = self._sessions.get(own_cm)
            end = sess.end if sess is not None else None
            try:
                sess = yield from self._cm_up(own_cm)
                self._own = sess
                end = sess.end
                if not self._get_outstanding:
                    yield from sess.write(
                        self.cfg.cm_request_bytes, ("GET", self.rank)
                    )
                    self._get_outstanding = True
                payload = yield from sess.read_record(end)
            except (Disconnected, HostDown):
                # the CM crashed holding our GET; reconnect rewinds the
                # serve cursor to ``replay_cursor`` and we ask again
                self._get_outstanding = False
                if end is not None:
                    sess.drop(end)
                continue
            if isinstance(payload, Packet):
                self._get_outstanding = False
                self.replay_cursor += 1
                self._note_received(payload)
                return payload.env.src, payload
            raise RuntimeError(  # pragma: no cover
                f"unexpected CM reply {payload[0]!r}"
            )

    def poll(self) -> list[tuple[int, Packet]]:
        """Drain already-arrived CM replies without blocking."""
        out = []
        if self._own is None or not self._own.up():
            return out  # CM link down: pibrecv will reconnect and replay
        while True:
            ok, _n, payload = self._own_end.try_read()
            if not ok:
                break
            if isinstance(payload, Packet):
                self._get_outstanding = False
                self.replay_cursor += 1
                self._note_received(payload)
                out.append((payload.env.src, payload))
        return out

    def _wait_for_traffic(self) -> Generator[Future, Any, None]:
        if self._own is None or not self._own.up():
            # CM link down: poll until the supervised relaunch lets the
            # next pibrecv reconnect
            yield self.sim.pause(0.001)
            return
        try:
            yield self._own_end.when_readable()
        except Disconnected:
            pass  # link broke while we slept; the recv path reconnects


class V1Ranks(RankSet):
    """V1's rank slots: a crashed rank restarts from the beginning and
    replays its reception stream from its Channel Memory, with no
    cooperation from any other process (uncoordinated restart).
    Checkpoint images are not modelled for V1 (restart is always from
    scratch, the paper's Figure 10-style configuration)."""

    def __init__(
        self, dep: Deployment, program: Any, params: dict[str, Any],
        nprocs: int, cms: list[ChannelMemory], cns_per_cm: int,
    ) -> None:
        super().__init__(dep, program, params, nprocs)
        self.cms = cms
        # fault-driver helpers live on the first CM's (reliable) host
        self.host = cms[0].host
        self.cm_of = {r: f"cm:{r // cns_per_cm}" for r in range(nprocs)}

    def start(self) -> None:
        """Launch every rank on its computing node."""
        for st, host in zip(self.states, self.dep.cn_hosts):
            self._spawn_rank(st, host)

    def _spawn_rank(self, st: RankState, host: Host) -> None:
        inc = st.begin(host, self.sim.now)
        dev = V1Device(
            self.sim, self.cfg, st.rank, self.nprocs, host, self.tracer,
            self.metrics, fabric=self.dep.fabric, cm_of=self.cm_of,
            incarnation=inc,
        )
        self.spawn_app(st, dev)
        host.on_crash.append(lambda h: self._on_host_crash(st, inc))

    def _on_host_crash(self, st: RankState, inc: int) -> None:
        if st.incarnation == inc and not self.done.done:
            self.sim.spawn(self._restart(st, inc), name=f"v1.restart{st.rank}")

    def _restart(self, st: RankState, inc: int):
        yield self.sim.pause(
            self.cfg.restart_detect_delay + self.cfg.restart_spawn_delay
        )
        if self.done.done or st.incarnation != inc:
            return
        if st.host.failed:
            st.host.restart()
        self.total_restarts += 1
        self._spawn_rank(st, st.host)

    def components(self) -> dict[str, Any]:
        return {"channel_memories": self.cms}


def launch(
    dep: Deployment, program: Any, params: dict[str, Any], nprocs: int,
    *, cns_per_cm: int = 4,
) -> V1Ranks:
    """Start an MPICH-V1 job on ``dep``: one supervised Channel Memory
    (on a reliable machine of its own) per ``cns_per_cm`` nodes, then
    every rank."""
    from ..ft.services import ServiceSupervisor

    cluster = dep.cluster
    dep.supervisor = ServiceSupervisor(
        cluster.sim, cluster.cfg, tracer=dep.tracer, metrics=dep.metrics
    )
    cms = []
    for i in range(max(1, (nprocs + cns_per_cm - 1) // cns_per_cm)):
        cm = ChannelMemory(
            cluster.sim, cluster.add_aux(f"cm{i}"), dep.fabric, cluster.cfg,
            name=f"cm:{i}", tracer=dep.tracer, metrics=dep.metrics,
        )
        cm.start()
        dep.supervisor.register(cm.name, cm)
        cms.append(cm)
    ranks = V1Ranks(dep, program, params, nprocs, cms, cns_per_cm)
    ranks.start()
    return ranks
