"""Unit tests for hosts, the NIC serialization model and transfers."""

import pytest

from repro.simnet import Host, HostDown, LinkConfig, Network, Simulator
from repro.simnet.kernel import EV_CALL

#: an arrival event that does nothing: ``transfer``'s flat ``slot, a, b``
NOOP = (EV_CALL, lambda: None, None)


def make_net(**link_kw):
    sim = Simulator()
    net = Network(sim, LinkConfig(**link_kw))
    a = net.add_host(Host(sim, "a"))
    b = net.add_host(Host(sim, "b"))
    return sim, net, a, b


def test_duplicate_host_rejected():
    sim = Simulator()
    net = Network(sim)
    net.add_host(Host(sim, "x"))
    with pytest.raises(ValueError):
        net.add_host(Host(sim, "x"))


def test_single_transfer_arrival_time_matches_analytic():
    sim, net, a, b = make_net()
    arrivals = []
    t = net.transfer(a, b, 1000, EV_CALL, lambda: arrivals.append(sim.now), None)
    assert t == pytest.approx(net.one_way_time(1000))
    sim.run()
    assert arrivals == [pytest.approx(t)]


def test_zero_byte_transfer_has_fixed_latency():
    sim, net, a, b = make_net()
    t = net.transfer(a, b, 0, *NOOP)
    lk = net.link
    expected = (
        lk.send_cpu
        + lk.wire_latency
        + lk.frame_overhead / lk.bandwidth
        + lk.per_segment_gap
        + lk.recv_cpu
    )
    assert t == pytest.approx(expected)


def test_back_to_back_transfers_serialize_on_sender_nic():
    sim, net, a, b = make_net()
    t1 = net.transfer(a, b, 100_000, *NOOP)
    t2 = net.transfer(a, b, 100_000, *NOOP)
    dur = (100_000 + net.link.frame_overhead) / net.link.bandwidth
    assert t2 - t1 >= dur * 0.99  # second waits for the NIC


def test_transfers_from_two_sources_serialize_on_receiver_nic():
    sim = Simulator()
    net = Network(sim)
    a = net.add_host(Host(sim, "a"))
    b = net.add_host(Host(sim, "b"))
    c = net.add_host(Host(sim, "c"))
    t1 = net.transfer(a, c, 500_000, *NOOP)
    t2 = net.transfer(b, c, 500_000, *NOOP)
    dur = (500_000 + net.link.frame_overhead) / net.link.bandwidth
    assert t2 - t1 >= dur * 0.99


def test_full_duplex_host_overlaps_tx_and_rx():
    sim = Simulator()
    net = Network(sim)
    a = net.add_host(Host(sim, "a", full_duplex=True))
    b = net.add_host(Host(sim, "b", full_duplex=True))
    t_ab = net.transfer(a, b, 1_000_000, *NOOP)
    t_ba = net.transfer(b, a, 1_000_000, *NOOP)
    # both directions complete in roughly one transfer time
    assert t_ba == pytest.approx(t_ab, rel=0.05)


def test_half_duplex_host_serializes_bulk_tx_and_rx():
    sim = Simulator()
    net = Network(sim)
    a = net.add_host(Host(sim, "a", full_duplex=False))
    b = net.add_host(Host(sim, "b", full_duplex=False))
    t_ab = net.transfer(a, b, 1_000_000, *NOOP, bulk=True)
    t_ba = net.transfer(b, a, 1_000_000, *NOOP, bulk=True)
    # the second direction waits for the first: ~2x
    assert t_ba > 1.8 * t_ab


def test_half_duplex_host_overlaps_non_bulk():
    """Only bulk pushes couple the two directions (the P4 eager path)."""
    sim = Simulator()
    net = Network(sim)
    a = net.add_host(Host(sim, "a", full_duplex=False))
    b = net.add_host(Host(sim, "b", full_duplex=False))
    t_ab = net.transfer(a, b, 1_000_000, *NOOP)
    t_ba = net.transfer(b, a, 1_000_000, *NOOP)
    assert t_ba == pytest.approx(t_ab, rel=0.05)


def test_half_duplex_small_bulk_frames_uncoupled():
    sim = Simulator()
    net = Network(sim)
    a = net.add_host(Host(sim, "a", full_duplex=False))
    b = net.add_host(Host(sim, "b", full_duplex=False))
    t_ab = net.transfer(a, b, 4096, *NOOP, bulk=True)
    t_ba = net.transfer(b, a, 4096, *NOOP, bulk=True)
    assert t_ba == pytest.approx(t_ab, rel=0.05)


def test_loopback_is_fast():
    sim, net, a, b = make_net()
    t = net.transfer(a, a, 1_000_000, *NOOP)
    assert t < 0.01  # memcpy speed, not wire speed


def test_transfer_from_crashed_host_raises():
    sim, net, a, b = make_net()
    a.crash()
    with pytest.raises(HostDown):
        net.transfer(a, b, 10, *NOOP)


def test_reliable_host_cannot_crash():
    sim = Simulator()
    h = Host(sim, "el", reliable=True)
    with pytest.raises(HostDown):
        h.crash()


def test_crash_kills_registered_processes():
    sim = Simulator()
    h = Host(sim, "n1")

    def prog():
        yield sim.timeout(100.0)

    p = sim.spawn(prog(), "app")
    h.register(p)
    sim.after(1.0, h.crash)
    sim.run()
    assert not p.alive


def test_register_on_crashed_host_raises():
    sim = Simulator()
    h = Host(sim, "n1")
    h.crash()

    def prog():
        yield sim.timeout(1.0)

    p = sim.spawn(prog(), "app", supervised=True)
    with pytest.raises(HostDown):
        h.register(p)


def test_restart_increments_incarnation_and_resets_nic():
    sim = Simulator()
    h = Host(sim, "n1")
    h.crash()
    assert h.failed
    h.restart()
    assert not h.failed
    assert h.incarnation == 1


def test_crash_callbacks_fire_once():
    sim = Simulator()
    h = Host(sim, "n1")
    fired = []
    h.on_crash.append(lambda host: fired.append(host.name))
    h.crash()
    h.crash()
    assert fired == ["n1"]


def test_compute_seconds_scales_with_cpu():
    sim = Simulator()
    slow = Host(sim, "slow", cpu_flops=1e8)
    fast = Host(sim, "fast", cpu_flops=1e9)
    assert slow.compute_seconds(1e8) == pytest.approx(1.0)
    assert fast.compute_seconds(1e8) == pytest.approx(0.1)


def test_network_accounting():
    sim, net, a, b = make_net()
    net.transfer(a, b, 100, *NOOP)
    net.transfer(a, b, 200, *NOOP)
    assert net.bytes_moved == 300
    assert net.segments_moved == 2


def test_sustained_bandwidth_close_to_link_rate():
    """A long pipelined train of segments approaches the configured rate."""
    sim, net, a, b = make_net()
    n, size = 100, 16384
    done = []
    for _ in range(n):
        t = net.transfer(a, b, size, *NOOP)
        done.append(t)
    total_bytes = n * size
    elapsed = done[-1]
    rate = total_bytes / elapsed
    assert rate == pytest.approx(net.link.bandwidth, rel=0.05)
