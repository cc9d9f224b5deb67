"""``python3 -m bench`` — see ``bench/README.md``.

With ``--workload`` this is one run of one workload in this process (the
form the driver calls); without, every workload runs in a fresh process
of its own, one after the other, and the results are tabulated.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import contract

if not (contract.ROOT / "src" / "repro").is_dir():
    sys.exit("bench: no src/repro beside bench/ — nothing to measure")
sys.path.insert(0, str(contract.ROOT / "src"))


def one_run(args: argparse.Namespace, spec: dict) -> int:
    """One workload, here: a detail line, then the contract's result line."""
    from .workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    if args.trace:
        from .layers import trace as run

        declared = spec["per_layer"]
    else:
        from .timed import measure as run

        declared = spec["end_to_end"]
    values, timed, detail = run(wl, args.seed, args.seconds, args.quick)
    correct = timed.failed == 0 and detail["reps_identical"]
    detail = {
        "workload": wl.name,
        "trace": args.trace,
        "quick": args.quick,  # a --quick run is a smoke test: not comparable
        "seconds": args.seconds,
        "host": contract.host_info(args.seed),
        **detail,
    }
    if args.trace:
        detail["ledger"] = str(contract.write_artifact(
            f"ledger-{wl.name}-seed{args.seed}.json",
            {**detail, "metrics": values},
        ).relative_to(contract.ROOT))
    print(json.dumps(detail))
    print(contract.result_line(
        declared, values, timed.attempted, timed.failed, correct
    ))
    return 0


def main() -> int:
    spec = contract.load()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measurement window per run (host seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the per-layer ledger instead of end-to-end")
    ap.add_argument("--layers", action="store_true",
                    help="whole set, traced (same as --trace 1)")
    ap.add_argument("--agree", action="store_true",
                    help="whole set twice; fail where the two disagree")
    ap.add_argument("--quick", action="store_true",
                    help="one repetition per run: a smoke test, not comparable")
    ap.add_argument("--probe", choices=names, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.probe:
        from .workloads import WORKLOADS

        WORKLOADS[args.probe].null_job()
        return 0
    if args.workload:
        return one_run(args, spec)
    from . import suite

    if args.agree:
        return suite.agree(spec, args)
    return suite.report(spec, args, trace=int(args.layers or args.trace))


if __name__ == "__main__":
    sys.exit(main())
