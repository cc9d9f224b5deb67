"""Tests for the NAS kernel proxies.

Class T (tiny) runs real numpy arithmetic through the same communication
pattern as the timing classes, so every kernel is checked for (a)
cross-device result identity (P4 vs V1 vs V2) and (b) fault/replay
result identity on V2 — the paper's consistency property applied to all
six kernels.
"""

import pytest

from repro.ft.failure import ExplicitFaults
from repro.runtime.mpirun import run_job
from repro.workloads import nas

ALL = sorted(nas.KERNELS)


def run_kernel(name, nprocs, device="p4", klass="T", **kw):
    prog = nas.KERNELS[name].program
    return run_job(prog, nprocs, device=device, params={"klass": klass}, **kw)


def nproc_for(name):
    return 4 if name in nas.SQUARE_ONLY else 4


@pytest.mark.parametrize("name", ALL)
def test_kernel_runs_and_returns_result(name):
    res = run_kernel(name, nproc_for(name))
    out = res.results[0]
    assert out.kernel == name
    assert out.nprocs == nproc_for(name)
    assert out.checksum is not None


@pytest.mark.parametrize("name", ALL)
def test_kernel_checksum_identical_across_devices(name):
    n = nproc_for(name)
    ref = run_kernel(name, n, device="p4").results[0].checksum
    for device in ("v1", "v2"):
        got = run_kernel(name, n, device=device).results[0].checksum
        assert got == ref, f"{name}: {device} diverged from p4"


@pytest.mark.parametrize("name", ALL)
def test_kernel_survives_fault_with_identical_result(name):
    n = nproc_for(name)
    ref = run_kernel(name, n, device="v2").results[0].checksum
    res = run_kernel(
        name, n, device="v2", faults=ExplicitFaults([(0.002, 1)]), limit=900.0
    )
    assert res.restarts >= 1
    assert res.results[0].checksum == ref


@pytest.mark.parametrize("name", ALL)
def test_kernel_timing_mode_advances_time(name):
    n = nproc_for(name)
    res = run_kernel(name, n, klass="S", limit=100000.0)
    assert res.elapsed > 0.2
    assert res.results[0].checksum is None


def test_bt_rejects_non_square():
    with pytest.raises(Exception):
        run_kernel("bt", 3)


def test_specs_have_classes():
    for name, mod in nas.KERNELS.items():
        for klass in ("T", "A", "B"):
            sp = mod.spec(klass)
            assert sp.total_flops > 0
            assert sp.iters > 0
            assert sp.footprint_per_proc(4) > 0


def test_cg_scales_with_procs():
    """More processes -> less computation per rank (the comm side grows)."""
    t2 = run_kernel("cg", 2, klass="S", limit=100000.0)
    t8 = run_kernel("cg", 8, klass="S", limit=100000.0)
    assert t8.timers[0].get("compute") < t2.timers[0].get("compute")


def test_v2_slower_than_p4_on_cg():
    """The latency-bound kernel: V2 communication cost shows (Fig 7)."""
    p4 = run_kernel("cg", 4, device="p4", klass="S", limit=100000.0).elapsed
    v2 = run_kernel("cg", 4, device="v2", klass="S", limit=100000.0).elapsed
    assert v2 > p4


def test_specs_include_class_c():
    for name, mod in nas.KERNELS.items():
        sp = mod.spec("C")
        assert sp.total_flops > mod.spec("B").total_flops
        assert sp.footprint_total > mod.spec("B").footprint_total


def test_integer_grid_helpers_match_their_float_reference():
    """The grid helpers use exact integer math; the float formulas they
    replaced (``np.sqrt``/``np.log2``) are the reference."""
    import numpy as np

    from repro.workloads.nas.bt import square_side
    from repro.workloads.nas.common import nearest_pow2_factors

    for p in range(1, 4097):
        best = (1, p)
        for rows in range(1, int(np.sqrt(p)) + 1):
            if p % rows == 0:
                best = (rows, p // rows)
        assert nearest_pow2_factors(p) == best, p
        side = int(round(np.sqrt(p)))
        if side * side == p:
            assert square_side(p) == side
        else:
            with pytest.raises(ValueError):
                square_side(p)
    for dim in nas.mg._DIM.values():
        assert dim.bit_length() - 1 == int(np.log2(dim))
