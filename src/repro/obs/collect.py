"""End-of-job folding: simnet accounting → the metrics registry.

Hot-path components that move millions of segments (the network, the
NICs, the stream flow control) keep plain float attributes instead of
live metric handles — an attribute add is the cheapest accounting
possible.  :func:`repro.runtime.mpirun.collect` runs once when a job
completes and folds those floats, plus the per-rank device counters,
into the job's :class:`~repro.obs.registry.Metrics`: the one per-rank
view is ``metrics.by_label("rank")`` (or ``JobResult.stat(name, rank=r)``).

The two halves are separate because a shared cluster needs them
separately: :func:`fold_cluster` folds the *shared* accounting (network,
NICs, streams) exactly once per cluster — at job end on a private one,
at shutdown on a control plane's — while :func:`fold_device_stats` folds
one job's device counters into that job's own registry.
"""

from __future__ import annotations

from typing import Any

__all__ = ["fold_cluster", "fold_device_stats"]


def fold_cluster(cluster: Any) -> None:
    """Fold shared network/NIC/stream accounting into ``cluster.metrics``.

    Must run exactly once per cluster — the floats it drains are
    cumulative, so folding per job on a shared cluster would double
    count every byte the earlier jobs moved.
    """
    m = cluster.metrics
    net = cluster.net

    if net.bytes_moved:
        m.counter("net.bytes").inc(net.bytes_moved)
    if net.segments_moved:
        m.counter("net.segments").inc(net.segments_moved)
    if net.partitions_injected:
        m.counter("net.partitions").inc(net.partitions_injected)
    if net.segments_deferred:
        m.counter("net.deferred_segments").inc(net.segments_deferred)
    if net.links_broken:
        m.counter("net.links_broken").inc(net.links_broken)

    for host in net.hosts.values():
        if host.nic_tx_busy_s:
            m.counter("nic.tx_busy_s", host=host.name).inc(host.nic_tx_busy_s)
        if host.nic_rx_busy_s:
            m.counter("nic.rx_busy_s", host=host.name).inc(host.nic_rx_busy_s)
        if host.stall_s:
            m.counter("stream.stall_s", host=host.name).inc(host.stall_s)
            m.counter("stream.stalls", host=host.name).inc(host.stall_count)


def fold_device_stats(
    metrics: Any, device_stats: dict[int, Any], device: str
) -> None:
    """Fold one job's device counters into ``metrics`` as ``dev.<key>``."""
    for rank, dev_stats in device_stats.items():
        for key, value in dev_stats.snapshot().items():
            if value:
                metrics.counter(f"dev.{key}", rank=rank, device=device).inc(
                    value
                )
