"""Calibrated testbed configuration.

All performance constants of the simulated platform live here, calibrated
against the paper's measured baselines (Section 5):

* MPICH-P4 ping-pong: ~77 us 0-byte one-way latency, ~11.3 MB/s asymptotic
  bandwidth on 100 Mbit/s switched Ethernet;
* MPICH-V2 ping-pong: ~237 us latency (six TCP messages per exchange
  instead of two: payload + event-log + ack), ~10.7 MB/s bandwidth;
* computing nodes: Athlon XP 1800+ (1 GB RAM + 1 GB swap, IDE disk);
* auxiliary nodes (event loggers, checkpoint servers, scheduler,
  dispatcher): dual-PIII 500 MHz, assumed reliable.

Benchmarks are expected to reproduce the paper's *shapes* (who wins, by
what rough factor, where crossovers fall), not its absolute numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..simnet.network import LinkConfig

__all__ = ["TestbedConfig", "DEFAULT_TESTBED"]


@dataclass(frozen=True)
class TestbedConfig:
    """Every tunable of the simulated platform, in one place."""

    # -- network -----------------------------------------------------------
    link: LinkConfig = field(default_factory=LinkConfig)
    stream_window: int = 64 * 1024  # TCP receive window per direction
    chunk_bytes: int = 16 * 1024  # driver transmission chunk

    # -- MPICH protocol layer ------------------------------------------------
    short_threshold: int = 1024  # short protocol (piggybacked) limit
    eager_threshold: int = 128 * 1024  # eager->rendezvous switch (MPICH 1.2.5)
    packet_header_bytes: int = 32  # protocol header per packet on the wire

    # -- computing nodes -----------------------------------------------------
    cn_flops: float = 2.6e8  # sustained MFLOP/s of an Athlon XP 1800+
    cn_ram: int = 1 << 30  # 1 GB main memory
    cn_swap: int = 1 << 30  # 1 GB swap on IDE disk
    disk_bw: float = 8e6  # IDE disk sustained write bandwidth
    aux_flops: float = 1.2e8  # auxiliary (PIII 500) node compute rate

    # -- MPICH-P4 driver ---------------------------------------------------------
    p4_send_cpu: float = 15e-6  # synchronous socket-write syscall per packet

    # -- MPICH-V2 daemon -------------------------------------------------------
    unix_socket_bw: float = 500e6  # CN-local daemon<->process pipe
    unix_socket_latency: float = 9e-6  # per message across the UNIX socket
    log_copy_bw: float = 400e6  # sender-based in-RAM payload copy speed
    log_slab_bytes: int = 24 * 1024  # fixed allocation slab per logged message
    os_reserved_ram: int = 128 << 20  # RAM unavailable to the message log
    event_bytes: int = 20  # reception event record on the wire (paper: ~20 B)
    event_ack_bytes: int = 8
    el_cpu_per_event: float = 30e-6  # PIII-500 event-logger handling, per event
    daemon_cpu_per_msg: float = 6e-6  # daemon select-loop work per message
    daemon_cpu_per_byte: float = 1.1e-9  # daemon copy work per payload byte

    # -- MPICH-V1 channel memories ---------------------------------------------
    cm_request_bytes: int = 16  # receiver's GET request to its Channel Memory
    cm_store_cpu: float = 25e-6  # CM-side handling per message

    # -- checkpointing -----------------------------------------------------------
    ckpt_fork_cost: float = 20e-3  # fork + Condor library entry
    restart_detect_delay: float = 0.25  # dispatcher notices the broken socket
    restart_spawn_delay: float = 1.0  # rsh/ssh + launch + image load on the new node

    # -- failure model -------------------------------------------------------------
    reliable_aux: bool = True

    # -- volatile infrastructure ---------------------------------------------------
    # reconnect backoff shared by every client of a flaky service/link:
    # delay(attempt) = min(cap, base * factor**attempt), +/- jitter fraction
    reconnect_base: float = 0.05
    reconnect_factor: float = 2.0
    reconnect_cap: float = 2.0
    reconnect_jitter: float = 0.25
    reconnect_max_tries: int = 60  # EL budget: exhausting it is fatal
    peer_retry_tries: int = 40  # peer/dispatcher/scheduler links: give up quietly
    cs_fetch_tries: int = 6  # image fetch budget before restart-from-scratch
    svc_restart_delay: float = 0.5  # supervisor respawn delay for EL/CS crashes
    # session heartbeat: daemons PING the dispatcher every hb_interval;
    # a quiet link older than hb_timeout flags the peer as suspect
    # (catches partitioned-but-alive nodes the socket detector cannot).
    # Both must be positive: the heartbeat always runs.
    hb_interval: float = 0.25
    hb_timeout: float = 1.0

    # -- replicated checkpoint store (repro.store) ---------------------------------
    ckpt_servers: int = 1  # N: checkpoint-store replicas in the cluster
    ckpt_replicas: int = 1  # K: write quorum making a checkpoint durable
    ckpt_incremental: bool = False  # push only dirty/missing chunks
    ckpt_chunk_kib: int = 64  # content-addressed chunk size (KiB)
    ckpt_dirty_ops: int = 32  # ops per phase of the deterministic dirty model

    # -- replicated event logger ---------------------------------------------------
    # Ranks shard across el_servers logger groups (rank % el_servers); each
    # group keeps el_replicas in-memory copies of its shard's event tuples.
    # The WAITLOGGED gate clears on a majority quorum of replica acks, so a
    # replica crash costs a failover rather than a stalled job.
    el_servers: int = 1  # N: shards (logger groups) in the cluster
    el_replicas: int = 1  # K: replicas per shard (1 = the classic single EL)

    # -- multi-job control plane (repro.serve) -------------------------------------
    serve_starve_s: float = 30.0  # reserve capacity for a head job this starved
    serve_job_limit: float = 3600.0  # per-job simulated-seconds budget

    @property
    def el_quorum(self) -> int:
        """Majority write quorum per EL shard (K=3 -> 2; K=1 -> 1)."""
        return self.el_replicas // 2 + 1

    @property
    def ckpt_chunk_bytes(self) -> int:
        """Content-addressed chunk size in bytes."""
        return self.ckpt_chunk_kib << 10

    def with_(self, **changes) -> "TestbedConfig":
        """A modified copy (convenience for sweeps)."""
        return replace(self, **changes)


DEFAULT_TESTBED = TestbedConfig()
