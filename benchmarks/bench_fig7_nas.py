"""Figure 7: NPB 2.3 performance, MPICH-P4 vs MPICH-V2.

Paper claims reproduced here:

* CG and MG (many small messages): "the higher latency of MPICH-V2 leads
  to a high performance penalty", growing with the process count;
* FT (all-to-all of large messages): V2 "reach[es] the performance of
  MPICH-P4"; FT class B exceeds the 2 GB message-log budget without
  checkpointing and cannot run — reported as LOG-OVERFLOW;
* LU (huge message count): poor on V2 — event-log gating per message
  plus the logging daemon competing for the CPU;
* BT and SP (large messages, nonblocking overlap): "MPICH-V2 can provide
  the same performance as MPICH-P4 or even better ones".

Default sweep is a representative subset; REPRO_BENCH_FULL=1 runs classes
A+B on process counts up to 32 (slow).
"""

from repro.analysis.metrics import mops
from repro.analysis.report import Report
from repro.core.sender_log import LogOverflow
from repro.runtime.mpirun import run_job
from repro.workloads import nas

from conftest import full_sweep, record_report

DEFAULT = {
    "cg": ("A", [8, 16]),
    "mg": ("A", [8, 16]),
    "ft": ("A", [4, 8]),
    "lu": ("A", [4, 8]),
    "bt": ("A", [4, 9]),
    "sp": ("A", [4, 9]),
}
FULL_PROCS = {
    "cg": [1, 2, 4, 8, 16, 32],
    "mg": [1, 2, 4, 8, 16, 32],
    "ft": [1, 2, 4, 8, 16, 32],
    "lu": [1, 2, 4, 8, 16, 32],
    "bt": [1, 4, 9, 16, 25],
    "sp": [1, 4, 9, 16, 25],
}


def run_kernel(name, klass, nprocs, device):
    prog = nas.KERNELS[name].program
    return run_job(prog, nprocs, device=device, params={"klass": klass}, limit=1e7)


def run_fig7():
    rows = []
    ratios = {}
    classes = ("A", "B") if full_sweep() else ("A",)
    for name in sorted(DEFAULT):
        klass_default, procs_default = DEFAULT[name]
        procs = FULL_PROCS[name] if full_sweep() else procs_default
        for klass in classes:
            sp = nas.KERNELS[name].spec(klass)
            for p in procs:
                t_p4 = run_kernel(name, klass, p, "p4")
                t_v2 = run_kernel(name, klass, p, "v2")
                rows.append(
                    [
                        f"{name.upper()}-{klass}",
                        p,
                        t_p4.elapsed,
                        t_v2.elapsed,
                        mops(sp.total_flops, t_p4),
                        mops(sp.total_flops, t_v2),
                        t_v2.elapsed / t_p4.elapsed,
                    ]
                )
                ratios[(name, klass, p)] = t_v2.elapsed / t_p4.elapsed
    return rows, ratios


def run_ft_b_overflow():
    """FT class B without checkpointing: the 2 GB log budget bursts."""
    try:
        run_kernel("ft", "B", 4, "v2")
    except LogOverflow as exc:
        return str(exc)
    return None


def bench_fig7_nas():
    rows, ratios = run_fig7()
    overflow = run_ft_b_overflow()
    rep = Report("Figure 7 - NPB 2.3, P4 vs V2")
    rep.table(
        ["kernel", "procs", "P4 s", "V2 s", "P4 Mop/s", "V2 Mop/s", "V2/P4"],
        rows,
    )
    rep.add(
        "paper shapes: CG/MG penalized on V2 (latency-bound, worsens with "
        "procs); FT ~equal; LU poor on V2; BT/SP equal or better on V2"
    )
    if overflow:
        rep.add(
            "FT-B on 4 procs without checkpointing: LOG-OVERFLOW as in the "
            f"paper ('memory size limitations') -> {overflow}"
        )
    record_report(rep)

    # latency-bound kernels: V2 pays, and pays more at scale
    assert ratios[("cg", "A", 16)] > 1.5
    assert ratios[("cg", "A", 16)] > ratios[("cg", "A", 8)]
    assert ratios[("mg", "A", 16)] > 1.05
    # bandwidth-bound: FT close to P4
    assert ratios[("ft", "A", 8)] < 1.25
    # LU: worse on V2
    assert ratios[("lu", "A", 8)] > 1.1
    # BT/SP: V2 matches or beats P4
    assert ratios[("bt", "A", 9)] < 1.05
    assert ratios[("sp", "A", 9)] < 1.05
    # FT class B exceeds the 2 GB log budget
    assert overflow is not None
