"""The whole set: every workload in a fresh process of its own, one at a
time; the correctness gates and pinned references printed beside the
numbers; ``--agree`` runs the set twice and holds the two to the bounds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Any, Optional

from . import contract

#: seed-1 figures of the legacy BENCH_*.json files, to three or four
#: digits, and how far the launch skew may move them.  Printed, never
#: gating: a change that means to move one says so.
REFERENCES = {
    ("pingpong_0b", "one_way_us"): (221.56, 0.001),
    ("cg_a8_churn", "core.recovery.mttr_s"): (1.469, 0.001),
    ("serve_storm", "sim_s"): (28.852, 0.05),  # chaotic: see README
    ("serve_storm", "jobs_completed"): (1000.0, 0.0),
    ("serve_storm", "kills_recovered"): (25.0, 0.0),
}


def child(workload: str, args, trace: int) -> Optional[tuple[dict, dict]]:
    """One workload in a fresh process: (detail, result), None if it died."""
    cmd = [sys.executable, "-m", "bench", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    if args.quick:
        cmd.append("--quick")
    done = subprocess.run(cmd, cwd=contract.ROOT, stdout=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        return None
    detail, result = done.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)


def run_set(spec: dict, args, trace: int) -> dict[str, Any]:
    """{workload: {"detail", "result"}}; exits if a workload dies."""
    out = {}
    for w in spec["workloads"]:
        print(f"# {w['name']} ...", file=sys.stderr, flush=True)
        pair = child(w["name"], args, trace)
        if pair is None:
            sys.exit(f"bench: {w['name']} exited without a result")
        out[w["name"]] = {"detail": pair[0], "result": pair[1]}
    return out


def _value(run: dict, name: str) -> Optional[float]:
    metric = run["result"]["metrics"].get(name)
    if metric is not None:
        return metric["value"]
    return run["detail"].get("workload_values", {}).get(name)


def _table(runs: dict, declared: list[dict]) -> None:
    names = list(runs)
    print(f"{'metric':38} {'unit':>6} " + " ".join(f"{n:>14}" for n in names))
    for m in declared:
        cells = " ".join(
            f"{runs[n]['result']['metrics'][m['name']]['value']:14.6g}"
            for n in names
        )
        print(f"{m['name']:38} {m['unit']:>6} {cells}")


def _gates(runs: dict) -> bool:
    ok = True
    for name, run in runs.items():
        res, det = run["result"], run["detail"]
        ok &= res["correct"]
        print(
            f"gate {name}: ops {res['attempted']} failed {res['failed']}, "
            f"repetitions identical: {det['reps_identical']} "
            f"(digest {det['digest'][:12]}), "
            f"{len(det['rep_s_samples'])} timed reps, "
            f"loadavg {det['host']['loadavg'][0]:.2f}"
            + (" [--quick: not comparable]" if det["quick"] else "")
        )
    for (workload, metric), (ref, tol) in REFERENCES.items():
        value = _value(runs[workload], metric)
        if value is None:  # the other kind of run reports this one
            continue
        state = "ok" if abs(value - ref) <= tol * ref + 1e-9 else "MOVED"
        print(f"ref  {workload}/{metric}: {value:.6g} vs {ref:g} "
              f"(+-{tol:.1%}) {state}")
    return ok


def _separation(runs: dict) -> bool:
    """The ledger must tell the workloads apart the way the README says."""
    def share(workload: str, *layers: str) -> float:
        shares = runs[workload]["detail"]["layer_share"]
        return sum(shares[name] for name in layers)

    def count(workload: str) -> float:
        return sum(
            _value(runs[workload], m)
            for m in ("store.push_bytes", "ft.faults", "core.recovery.replayed")
        )

    wire = ("simnet.streams", "simnet.network")
    checks = {
        "streams+network share: burst_1m >= 2 x pingpong_0b":
            share("burst_1m", *wire) >= 2 * share("pingpong_0b", *wire),
        "core.el_client share: pingpong_0b >= 3 x burst_1m":
            share("pingpong_0b", "core.el_client")
            >= 3 * share("burst_1m", "core.el_client"),
        "store+ft+core.recovery counts only on cg_a8_churn and serve_storm":
            count("pingpong_0b") == 0 and count("burst_1m") == 0
            and count("cg_a8_churn") > 0 and count("serve_storm") > 0,
    }
    for text, held in checks.items():
        print(f"ledger {text}: {'ok' if held else 'FAILED'}")
    print("share of profiled self time:")
    names = list(runs)
    for layer in runs[names[0]]["detail"]["layer_share"]:
        cells = " ".join(
            f"{runs[n]['detail']['layer_share'][layer]:14.1%}" for n in names
        )
        print(f"  {layer:36} {cells}")
    return all(checks.values())


def report(spec: dict, args, trace: int) -> int:
    runs = run_set(spec, args, trace)
    _table(runs, spec["per_layer" if trace else "end_to_end"])
    ok = _gates(runs)
    if trace:
        ok &= _separation(runs)
    path = contract.write_artifact("layers.json" if trace else "latest.json",
                                   runs)
    print(f"wrote {path.relative_to(contract.ROOT)}")
    return 0 if ok else 1


def agree(spec: dict, args) -> int:
    """Two sets of the same code on the same seed, against the bounds."""
    first = run_set(spec, args, 0)
    second = run_set(spec, args, 0)
    ok = _gates(first) & _gates(second)
    print(f"{'workload':14} {'metric':12} {'first':>12} {'second':>12} "
          f"{'diff':>8} {'bound':>7}")
    for name in first:
        for m in spec["end_to_end"]:
            a = _value(first[name], m["name"])
            b = _value(second[name], m["name"])
            diff = abs(b - a) / a
            # the same input simulates the same: any difference is a bug
            bound = 0.0 if m["unit"].startswith("sim_") else m["bound"]
            held = diff <= bound
            ok &= held
            print(f"{name:14} {m['name']:12} {a:12.6g} {b:12.6g} "
                  f"{diff:8.2%} {bound:7.1%}" + ("" if held else "  BREACH"))
    path = contract.write_artifact("agree.json",
                                   {"first": first, "second": second})
    print(f"wrote {path.relative_to(contract.ROOT)}")
    return 0 if ok else 1
