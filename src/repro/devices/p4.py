"""The MPICH-P4 baseline device.

The reference TCP/IP channel: every computing node holds a direct stream
to every other node and the MPI process performs its own socket I/O.  Two
behaviours matter for the paper's results and are modelled explicitly:

* the payload of an eager message is pushed *inside* the MPI_(I)send call
  (the MPI process blocks on the socket) — this is where P4's 44.9 s of
  `MPI_(I)send` time in Table 1 comes from;
* the driver does not service incoming traffic while pushing a message:
  P4 computing nodes are built with half-duplex endpoints, so
  simultaneous bidirectional transfers serialize — the reason MPICH-V2
  reaches twice P4's bandwidth on the Figure 9 pattern.  To preserve
  liveness, a window-blocked send drains arrived segments before waiting
  (the select() fallback of the real implementation).

P4 has no fault tolerance: a broken stream surfaces as an exception in
the MPI process.  :func:`launch` is the device's whole deployment: a
static all-to-all mesh and one MPI process per computing node.
"""

from __future__ import annotations

from typing import Any, Generator

from ..mpi.protocol import Packet, PacketKind
from ..runtime.mpirun import Deployment, RankSet
from ..simnet.kernel import Future, any_of
from ..simnet.streams import StreamEnd
from .base import ChannelDevice, segment_sizes

__all__ = ["P4Device", "P4Ranks", "launch"]


class P4Device(ChannelDevice):
    """Direct-stream device; the non-fault-tolerant baseline."""

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.ends: dict[int, StreamEnd] = {}

    def wire(self, ends: dict[int, StreamEnd]) -> None:
        """Attach the pre-established streams (rank -> local endpoint)."""
        self.ends = dict(ends)
        self._by_end = {id(e): r for r, e in self.ends.items()}

    # -- sending -----------------------------------------------------------
    def pibsend(self, dst: int, pkt: Packet) -> Generator[Future, Any, bool]:
        """Push the packet straight into the peer's stream (may block)."""
        self.stamp(pkt.env)
        # the MPI process performs the socket write itself: the syscall and
        # kernel copy are charged to the calling MPI function (this is the
        # MPI_(I)send cost of Table 1, absent on V2 where a daemon writes)
        yield self.sim.pause(self.cfg.p4_send_cpu)
        end = self.ends[dst]
        total = pkt.payload_bytes + self.cfg.packet_header_bytes
        sizes = segment_sizes(total, self.cfg.chunk_bytes)
        last = len(sizes) - 1
        # eager payload pushes happen inside MPI_(I)send, where the P4
        # driver does not service its receive side: mark them bulk so a
        # half-duplex endpoint serializes them against reception.
        # Rendezvous DATA is pumped inside a wait, where the driver's
        # select loop interleaves both directions.
        bulk = pkt.kind in (PacketKind.SHORT, PacketKind.EAGER)
        for i, nbytes in enumerate(sizes):
            payload = pkt if i == last else None
            while not end.write_nowait(nbytes, payload, bulk=bulk):
                # window full: fall back to the select loop — drain what has
                # arrived, then sleep until credit or traffic shows up
                self._pump_ready()
                if end.write_nowait(nbytes, payload):
                    break
                waits = [end.when_writable(nbytes)]
                waits += [e.when_readable() for e in self.ends.values() if not e.readable]
                yield any_of(self.sim, waits)
        self.stats.bytes_sent += pkt.payload_bytes
        self.stats.msgs_sent += 1
        return True

    def try_send_now(self, dst: int, pkt: Packet) -> bool:
        """Single-chunk nonblocking write if the window allows."""
        total = pkt.payload_bytes + self.cfg.packet_header_bytes
        if total > self.cfg.chunk_bytes:
            return False
        return self.ends[dst].write_nowait(total, pkt)

    # -- receiving ----------------------------------------------------------
    def _pump_ready(self) -> None:
        for rank, end in self.ends.items():
            while True:
                ok, _nbytes, payload = end.try_read()
                if not ok:
                    break
                if payload is not None:
                    self._note_received(payload)
                    self.inbox.put((rank, payload))

    def _wait_for_traffic(self) -> Generator[Future, Any, None]:
        waits = [e.when_readable() for e in self.ends.values()]
        if not waits:
            raise RuntimeError("P4 device has no peers wired")
        yield any_of(self.sim, waits)


class P4Ranks(RankSet):
    """P4's ranks: nothing restarts, but the nodes ran half-duplex."""

    def stop(self, cause: Any) -> None:
        for host in self.dep.cn_hosts:
            host.full_duplex = True  # hand shared machines back as found


def launch(
    dep: Deployment, program: Any, params: dict[str, Any], nprocs: int
) -> P4Ranks:
    """Wire the all-to-all mesh over ``dep``'s nodes and start the ranks."""
    sim = dep.cluster.sim
    ranks = P4Ranks(dep, program, params, nprocs)
    devices = []
    for st, host in zip(ranks.states, dep.cn_hosts):
        # the P4 driver's process cannot service receptions while pushing
        host.full_duplex = False
        st.begin(host, sim.now)
        devices.append(
            P4Device(sim, dep.cluster.cfg, st.rank, nprocs, host, dep.tracer)
        )
    ends: list[dict[int, StreamEnd]] = [dict() for _ in range(nprocs)]
    for i in range(nprocs):
        for j in range(i + 1, nprocs):
            hi, hj = dep.cn_hosts[i], dep.cn_hosts[j]
            s = dep.cluster.connect(hi, hj)
            ends[i][j] = s.end_for(hi)
            ends[j][i] = s.end_for(hj)
    for st, dev in zip(ranks.states, devices):
        dev.wire(ends[st.rank])
        ranks.spawn_app(st, dev)
    return ranks
