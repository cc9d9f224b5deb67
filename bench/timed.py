"""The untraced run: host clock by minimum, simulated clock exact.

One workload, one process, one thread.  An untimed warm-up repetition,
then timed repetitions of the same seeded input until the window is
spent, ``gc.collect()`` before each; after every timed repetition one
to three cold-start probes run, each in a fresh interpreter.

The noise of a shared box is additive, so host-clock metrics are minima.
A whole repetition (1-4 s) rarely fits inside a quiet moment, so each is
cut at ``SLICES`` fixed simulated times into slices that line up from one
repetition to the next, and ``host_s`` is the sum over slices of each
slice's minimum over the repetitions — 2.5x steadier than the minimum
over whole repetitions (README, "Why minima").  Probes are spread over
the window because a back-to-back burst of them does not outlive a slow
phase.  Simulated-clock metrics come from the warm-up repetition and
every later one must reproduce them bit for bit, else every op of the
run counts as failed.
"""

from __future__ import annotations

import gc
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from repro.simnet.kernel import SimError

from .contract import ROOT
from .workloads import Marks, Rep

SLICES = 256  # per repetition


def attempt(wl, inputs, observe: bool = False,
            marks: Optional[Marks] = None) -> Optional[Rep]:
    """One repetition; a simulation that hangs, deadlocks or crashes a
    rank is a failed repetition, not a failed benchmark."""
    try:
        return wl.run(inputs, observe=observe, marks=marks)
    except SimError:
        traceback.print_exc()
        return None


def cold_start_probe(workload: str) -> float:
    """Host seconds for a fresh interpreter to import ``repro``, build the
    workload's deployment, run a null job on it and exit."""
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-m", "bench", "--probe", workload],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    return perf_counter() - t0


@dataclass
class Timed:
    """The samples of one run's timed repetitions."""

    rep_s: list[float] = field(default_factory=list)  # whole repetitions
    slices_s: list[list[float]] = field(default_factory=list)  # one per rep
    setup_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digests: set[str] = field(default_factory=set)

    @property
    def host_s(self) -> float:
        """Sum over slices of the slice's minimum over repetitions."""
        return sum(min(column) for column in zip(*self.slices_s))


def timed_reps(wl, inputs, sim_s: float, seconds: float, quick: bool,
               probe: bool) -> Timed:
    """Timed repetitions until ``seconds`` are spent (at least one);
    ``sim_s`` is how long one lasts on the simulated clock."""
    out = Timed()
    deadline = perf_counter() + seconds
    while True:
        marks = Marks(sim_s / SLICES, limit=4 * SLICES)
        gc.collect()
        t0 = perf_counter()
        rep = attempt(wl, inputs, marks=marks)
        t1 = perf_counter()
        out.attempted += wl.ops
        if rep is None:
            out.failed += wl.ops
        else:
            cuts = [t0, *marks.stamps, t1]
            out.rep_s.append(t1 - t0)
            out.slices_s.append([b - a for a, b in zip(cuts, cuts[1:])])
            out.failed += rep.failed
            out.digests.add(rep.digest)
        del rep
        if probe:
            # as many samples for setup_s where repetitions are few and long
            for _ in range(min(3, max(1, round(t1 - t0)))):
                out.setup_s.append(cold_start_probe(wl.name))
        cycle = perf_counter() - t0
        if quick or perf_counter() + cycle > deadline:
            return out


def settle(timed: Timed, reference_digest: str) -> bool:
    """Hold the timed repetitions to the reference one: any difference in
    any simulated statistic (or in how many marks a repetition passed)
    fails every op.  Returns whether they agree."""
    identical = (
        timed.digests <= {reference_digest}
        and len({len(s) for s in timed.slices_s}) <= 1
    )
    if not identical:
        timed.failed = timed.attempted
    return identical


def measure(wl, seed: int, seconds: float, quick: bool):
    """The ``--trace 0`` run: (metric values, timed samples, detail)."""
    inputs = wl.inputs(seed)
    warm = attempt(wl, inputs)
    if warm is None:
        sys.exit(f"bench: the warm-up repetition of {wl.name} failed")
    sim_s, digest, own = warm.sim_s, warm.digest, warm.values
    del warm  # its thousand JobResults would sit in the timed heap
    timed = timed_reps(wl, inputs, sim_s, seconds, quick, probe=True)
    identical = settle(timed, digest)
    if not timed.rep_s:
        sys.exit(f"bench: no timed repetition of {wl.name} completed")
    values = {
        "host_s": timed.host_s,
        "sim_s": sim_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": min(timed.setup_s),
    }
    detail = {
        "reps_identical": identical,
        "digest": digest,
        "rep_s_samples": timed.rep_s,
        "setup_s_samples": timed.setup_s,
        "workload_values": own,
    }
    return values, timed, detail
