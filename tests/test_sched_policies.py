"""Unit tests for the §4.6.2 checkpoint-scheduling study."""

import numpy as np
import pytest

from repro.ft.ckpt_scheduler import Adaptive, RoundRobin, make_policy
from repro.sched import SCHEMES, scheme, simulate


def test_scheme_shapes_and_diagonals():
    for name in SCHEMES:
        sc = scheme(name, 8)
        assert sc.rate.shape == (8, 8)
        assert np.all(np.diag(sc.rate) == 0)


def test_broadcast_is_root_heavy():
    sc = scheme("broadcast", 8)
    send = sc.send_rate()
    assert send[0] == pytest.approx(7e6)
    assert np.all(send[1:] == 0)


def test_reduce_is_root_receiving():
    sc = scheme("reduce", 8)
    assert sc.recv_rate()[0] == pytest.approx(7e6)
    assert np.all(sc.recv_rate()[1:] == 0)


def test_round_robin_cycles():
    p = RoundRobin(4)
    picks = [p.pick(range(4)) for _ in range(8)]
    assert picks == [0, 1, 2, 3, 0, 1, 2, 3]


def test_round_robin_skips_ranks_that_are_not_live():
    p = RoundRobin(4)
    picks = [p.pick([0, 2, 3]) for _ in range(6)]
    assert picks == [0, 2, 3, 0, 2, 3]
    assert p.pick([]) is None


def test_adaptive_prefers_high_ratio():
    p = Adaptive()
    sent = [100.0, 1.0, 100.0, 100.0]
    recv = [1.0, 100.0, 1.0, 1.0]
    assert p.pick(range(4), sent, recv) == 1  # ratio 100, everyone else 0.01


def test_adaptive_degenerates_to_rotation_when_symmetric():
    p = Adaptive()
    flat = [10.0] * 4
    picks = [p.pick(range(4), flat, flat) for _ in range(8)]
    assert picks == [0, 1, 2, 3, 0, 1, 2, 3]


def test_adaptive_skips_pure_senders():
    p = Adaptive()
    sent = [100.0, 0.0, 0.0]
    recv = [0.0, 50.0, 50.0]
    picks = [p.pick(range(3), sent, recv) for _ in range(4)]
    assert 0 not in picks  # the pure sender is never checkpointed


def test_adaptive_ranks_only_at_a_cycle_start_and_skips_the_dead():
    p = Adaptive()
    assert p.wants_status
    assert p.pick([0, 1, 2], [1.0, 4.0, 2.0], [1.0, 1.0, 4.0]) == 2
    assert not p.wants_status  # the rest of the cycle needs no counters
    assert p.pick([0, 2]) == 0
    assert p.pick([0, 2]) is None  # rank 1 (ratio 0.25) is no longer live
    assert p.wants_status


def test_make_policy_rejects_unknown():
    with pytest.raises(ValueError):
        make_policy("greedy", 4)


def test_simulate_outcome_consistency():
    sc = scheme("point_to_point", 8)
    out = simulate(sc, "round_robin", horizon=100.0)
    assert out.checkpoints > 0
    assert out.ckpt_bytes > 0
    assert out.ckpt_bandwidth == pytest.approx(out.ckpt_bytes / out.horizon)
    assert out.peak_log >= out.mean_log > 0


def test_adaptive_never_worse_bandwidth():
    for name in SCHEMES:
        for n in (8, 16):
            sc = scheme(name, n, rate=2e6)
            rr = simulate(sc, "round_robin", footprint=4e6)
            ad = simulate(sc, "adaptive", footprint=4e6)
            assert ad.ckpt_bandwidth <= rr.ckpt_bandwidth * 1.001, (name, n)


def test_adaptive_beats_round_robin_on_broadcast():
    sc = scheme("broadcast", 16, rate=2e6)
    rr = simulate(sc, "round_robin", footprint=4e6)
    ad = simulate(sc, "adaptive", footprint=4e6)
    assert rr.ckpt_bandwidth / ad.ckpt_bandwidth > 1.5
    assert ad.peak_log < rr.peak_log


def test_broadcast_advantage_grows_with_n():
    def ratio(n):
        sc = scheme("broadcast", n, rate=2e6)
        rr = simulate(sc, "round_robin", footprint=4e6)
        ad = simulate(sc, "adaptive", footprint=4e6)
        return rr.ckpt_bandwidth / ad.ckpt_bandwidth

    assert ratio(32) > ratio(8)
