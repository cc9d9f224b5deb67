"""Unit tests: API helpers, protocol segmentation, reports, metrics."""

import numpy as np
import pytest

from repro.analysis.metrics import breakdown, mops
from repro.analysis.report import Report, format_table
from repro.devices.base import segment_sizes
from repro.mpi.api import payload_nbytes
from repro.mpi.datatypes import Envelope
from repro.mpi.protocol import PacketKind, inline_packet
from repro.mpi.timing import CallTimer
from repro.runtime.config import DEFAULT_TESTBED
from repro.runtime.mpirun import run_job


# -- payload size estimation ---------------------------------------------------


def test_payload_nbytes_none_is_zero():
    assert payload_nbytes(None) == 0


def test_payload_nbytes_bytes():
    assert payload_nbytes(b"abcd") == 4


def test_payload_nbytes_numpy():
    assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80


def test_payload_nbytes_scalars_and_containers():
    assert payload_nbytes(3.14) == 8
    assert payload_nbytes([1.0, 2.0]) == 16 + 16
    assert payload_nbytes(object()) == 64


# -- segmentation ----------------------------------------------------------------


def test_segment_sizes_small_single():
    assert segment_sizes(100, 16384) == [100]


def test_segment_sizes_exact_multiple():
    assert segment_sizes(32768, 16384) == [16384, 16384]


def test_segment_sizes_remainder_last():
    assert segment_sizes(40000, 16384) == [16384, 16384, 7232]


def test_segment_sizes_zero_is_one_byte():
    assert segment_sizes(0, 16384) == [1]


def test_segment_sizes_sum_preserved():
    for total in (1, 100, 16384, 16385, 999_999):
        assert sum(segment_sizes(total, 16384)) == total


# -- protocol packets -------------------------------------------------------------


def env(nbytes=100):
    return Envelope(0, 1, 0, 0, nbytes, 1)


def test_inline_packet_kind_follows_the_configured_short_threshold():
    cfg = DEFAULT_TESTBED
    at, over = env(cfg.short_threshold), env(cfg.short_threshold + 1)
    assert inline_packet(at, cfg).kind is PacketKind.SHORT
    assert inline_packet(over, cfg).kind is PacketKind.EAGER
    assert inline_packet(over, cfg).payload_bytes == over.nbytes
    # the field is read, not a literal: moving it moves the choice
    assert inline_packet(at, cfg.with_(short_threshold=64)).kind is PacketKind.EAGER


# -- call timer -------------------------------------------------------------------


def test_timer_accumulates_outermost_only():
    t = CallTimer()
    t.enter("send", 0.0)
    t.enter("isend", 0.1)  # nested: attributed to the outer category
    t.exit(0.5)
    t.exit(1.0)
    assert t.get("send") == pytest.approx(1.0)
    assert t.get("isend") == 0.0
    assert t.counts["send"] == 1


def test_timer_comm_total_excludes_compute():
    t = CallTimer()
    t.enter("compute", 0.0)
    t.exit(2.0)
    t.enter("wait", 2.0)
    t.exit(3.0)
    assert t.comm_total() == pytest.approx(1.0)
    assert t.total() == pytest.approx(3.0)


def test_timer_unbalanced_exit_raises():
    t = CallTimer()
    with pytest.raises(RuntimeError):
        t.exit(1.0)


# -- report tables ------------------------------------------------------------------


def test_format_table_aligns_and_renders_floats():
    out = format_table(["a", "bb"], [[1, 2.5], [10, 1234.0]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert "1,234" in out
    assert "2.500" in out


def test_report_render_contains_title_and_blocks():
    rep = Report("My Title").add("hello").table(["x"], [[1]])
    text = rep.render()
    assert "My Title" in text
    assert "hello" in text


# -- metrics ------------------------------------------------------------------------


def test_mops_and_breakdown():
    def prog(mpi):
        yield from mpi.compute(seconds=1.0)
        yield from mpi.barrier()
        return None

    res = run_job(prog, 2, device="p4")
    assert mops(1e9, res) == pytest.approx(1e3 / res.elapsed, rel=1e-6)
    b = breakdown(res)
    assert b["compute"] == pytest.approx(1.0, abs=0.01)
    assert b["comm"] > 0
    assert b["elapsed"] >= b["compute"]


# -- config -----------------------------------------------------------------------


def test_config_with_creates_modified_copy():
    cfg = DEFAULT_TESTBED.with_(cn_flops=1e9)
    assert cfg.cn_flops == 1e9
    assert DEFAULT_TESTBED.cn_flops != 1e9
    assert cfg.link is DEFAULT_TESTBED.link


# -- api odds and ends ----------------------------------------------------------------


def test_compute_requires_exactly_one_argument():
    def prog(mpi):
        with pytest.raises(ValueError):
            yield from mpi.compute()
        with pytest.raises(ValueError):
            yield from mpi.compute(seconds=1.0, flops=1.0)
        yield from mpi.compute(seconds=0.0)
        return "ok"

    assert run_job(prog, 1, device="p4").results == ["ok"]


def test_sendrecv_exchanges_both_ways():
    def prog(mpi):
        peer = 1 - mpi.rank
        msg = yield from mpi.sendrecv(
            peer, nbytes=64, tag=5, data=f"from{mpi.rank}",
            source=peer, recvtag=5,
        )
        return msg.data

    res = run_job(prog, 2, device="p4")
    assert res.results == ["from1", "from0"]


def test_test_advances_progress_without_blocking():
    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.compute(seconds=0.01)
            yield from mpi.send(1, nbytes=64, tag=1)
            return None
        req = yield from mpi.irecv(source=0, tag=1)
        polls = 0
        while True:
            done = yield from mpi.test(req)
            if done:
                break
            polls += 1
            yield from mpi.compute(seconds=0.002)
        return polls

    res = run_job(prog, 2, device="p4")
    assert res.results[1] > 0


def test_scatter_requires_values_on_root():
    def solo(mpi):
        with pytest.raises(ValueError):
            yield from mpi.scatter(root=0, values=[1, 2])  # wrong length
        out = yield from mpi.scatter(root=0, values=["only"])
        return out

    assert run_job(solo, 1, device="p4").results == ["only"]


def test_scatter_two_ranks():
    def prog(mpi):
        values = [10, 20] if mpi.rank == 0 else None
        out = yield from mpi.scatter(root=0, values=values)
        return out

    assert run_job(prog, 2, device="p4").results == [10, 20]


def test_jobresult_timer_sum():
    def prog(mpi):
        yield from mpi.compute(seconds=0.5)
        return None

    res = run_job(prog, 3, device="p4")
    total = sum(t.get("compute") for t in res.timers.values())
    assert total == pytest.approx(1.5, abs=0.01)


def test_waitany_returns_first_completed():
    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.compute(seconds=0.05)
            yield from mpi.send(1, nbytes=64, tag=1)
            yield from mpi.compute(seconds=0.05)
            yield from mpi.send(1, nbytes=64, tag=2)
            return None
        r1 = yield from mpi.irecv(source=0, tag=1)
        r2 = yield from mpi.irecv(source=0, tag=2)
        idx = yield from mpi.waitany([r2, r1])
        rest = yield from mpi.waitall([r1, r2])
        return idx

    res = run_job(prog, 2, device="p4")
    assert res.results[1] == 1  # tag-1 arrives first; it is reqs[1]


def test_waitsome_returns_completed_indices():
    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1, nbytes=64, tag=1)
            yield from mpi.send(1, nbytes=64, tag=2)
            yield from mpi.compute(seconds=0.2)
            yield from mpi.send(1, nbytes=64, tag=3)
            return None
        reqs = []
        for t in (1, 2, 3):
            r = yield from mpi.irecv(source=0, tag=t)
            reqs.append(r)
        yield from mpi.compute(seconds=0.05)  # let 1 and 2 arrive
        done = yield from mpi.waitsome(reqs)
        yield from mpi.waitall(reqs)
        return done

    res = run_job(prog, 2, device="p4")
    assert set(res.results[1]) >= {0, 1}
    assert 2 not in res.results[1]


@pytest.mark.parametrize("nprocs", [1, 2, 4, 5, 8])
def test_scan_inclusive_prefix(nprocs):
    def prog(mpi):
        out = yield from mpi.scan(value=mpi.rank + 1, nbytes=8)
        return out

    res = run_job(prog, nprocs, device="p4")
    for r in range(nprocs):
        assert res.results[r] == sum(range(1, r + 2))


def test_scan_on_v2_and_under_fault():
    from repro.ft.failure import ExplicitFaults

    def prog(mpi):
        yield from mpi.compute(seconds=0.05)
        out = yield from mpi.scan(value=float(mpi.rank + 1), nbytes=8)
        yield from mpi.compute(seconds=0.05)
        total = yield from mpi.allreduce(value=out, nbytes=8)
        return total

    clean = run_job(prog, 4, device="v2")
    faulty = run_job(prog, 4, device="v2",
                     faults=ExplicitFaults([(0.03, 2)]), limit=600.0)
    assert faulty.restarts == 1
    assert faulty.results == clean.results
