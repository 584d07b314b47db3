"""Command line: one run (the ``BENCHMARK.json`` contract), ``set`` and
``compare``."""

from __future__ import annotations

import argparse
import json
import sys

from benchmarks.layers import harness, layers, sets
from benchmarks.layers.workloads import WORKLOADS


def run_one(args: argparse.Namespace) -> int:
    """One workload, one process.  Prints every metric by name with its
    unit, then — as the last line — the result object the driver reads.
    Exits non-zero when the reference check failed anywhere."""
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        result = harness.run_traced(workload, args.seconds, args.spans)
        units = layers.units()
    else:
        result = harness.run_untraced(workload, args.seconds)
        units = harness.END_TO_END_UNITS
    for name, unit in units.items():
        value = result["metrics"][name]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{args.workload:12s} {name:46s} {shown:>12s} {unit}")
    # information only (p99, sample count, unresolved spans): one line
    # the ``set`` runner parses, ahead of the line the driver parses
    print(sets.INFO_PREFIX + json.dumps(result["info"]))
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.layers", description=__doc__
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=sets.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=sets.DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spans", help="with --trace 1: write the spans to this .jsonl"
    )
    commands = parser.add_subparsers(dest="command")

    run_set = commands.add_parser(
        "set", help="every workload, --reps fresh processes each, then "
        "one traced process each; medians into --out"
    )
    run_set.add_argument("--reps", type=int, default=3)
    run_set.add_argument("--seed", type=int, default=sets.DEFAULT_SEED)
    run_set.add_argument("--seconds", type=float, default=sets.DEFAULT_SECONDS)
    run_set.add_argument("--out", help="results file (default: "
                         "benchmarks/layers/results/latest.json)")
    run_set.add_argument(
        "--smoke", action="store_true",
        help="one round per pass, one rep; needs --out and refuses to "
        "write into benchmarks/layers/results/",
    )

    compare = commands.add_parser(
        "compare", help="two results files against BENCHMARK.json's bounds"
    )
    compare.add_argument("a")
    compare.add_argument("b")

    args = parser.parse_args(argv)
    if args.command == "set":
        return sets.run_set(args)
    if args.command == "compare":
        return sets.compare(args.a, args.b)
    if args.workload is None:
        parser.error("--workload is required (or use 'set' / 'compare')")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
