"""Sets of runs, and comparing two of them.

A *set* is every workload run ``--reps`` times untraced, each in a fresh
process, then once traced; every metric in the results file is the
median over reps.  ``compare`` holds two such files against the bounds
``BENCHMARK.json`` fixes.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.layers.workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
DEFAULT_SEED = 11
DEFAULT_SECONDS = 20.0
INFO_PREFIX = "# info "
#: two calibration readings further apart than this stamp a set noisy
CALIBRATION_TOLERANCE = 0.10


def calibration_ms() -> float:
    """A fixed pure-Python loop — sort 200 000 seeded ints, 200 000 dict
    inserts — timed so that a machine that shifted under a set shows.
    Best of twenty, because a single 80 ms reading moves by 10 to 30%
    on its own here.  It is written beside the results and feeds into no number."""
    rng = random.Random(0)
    seeded = [rng.randrange(1 << 30) for __ in range(200_000)]
    readings = []
    for __ in range(20):
        values = list(seeded)
        started = time.perf_counter()
        values.sort()
        table = {}
        for i, value in enumerate(values):
            table[value] = i
        readings.append((time.perf_counter() - started) * 1000.0)
    return min(readings)


def _run_process(workload: str, seed: int, seconds: float, trace: int,
                 spans_path=None) -> dict:
    command = [
        sys.executable, str(HERE / "__main__.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if spans_path is not None:
        command += ["--spans", str(spans_path)]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, check=False
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{workload}: no result (exit {done.returncode})\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    result["info"] = next(
        (json.loads(line[len(INFO_PREFIX):])
         for line in lines if line.startswith(INFO_PREFIX)),
        {},
    )
    return result


def _median_or_none(values: list):
    present = [v for v in values if v is not None]
    return statistics.median(present) if present else None


def _summarise(results: list[dict]) -> dict:
    """{metric: {unit, median, values}} over the reps."""
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        out[name] = {
            "unit": first["unit"],
            "median": _median_or_none(values),
            "values": values,
        }
    return out


def run_set(args) -> int:
    reps, seconds = args.reps, args.seconds
    out_path = Path(args.out) if args.out else RESULTS / "latest.json"
    spans_dir = RESULTS
    if args.smoke:
        # a smoke set is one round per pass and one rep; it must never
        # land where a full-size result (the baseline) is kept
        if not args.out or RESULTS in out_path.resolve().parents:
            print("--smoke needs --out outside benchmarks/layers/results/",
                  file=sys.stderr)
            return 2
        reps, seconds, spans_dir = 1, 0.0, out_path.resolve().parent
    out_path.parent.mkdir(parents=True, exist_ok=True)
    spans_dir.mkdir(parents=True, exist_ok=True)

    calibration = [calibration_ms()]
    workloads = {}
    all_correct = True
    for name, cls in WORKLOADS.items():
        untraced = [
            _run_process(name, args.seed, seconds, trace=0)
            for __ in range(reps)
        ]
        traced = _run_process(
            name, args.seed, seconds, trace=1,
            spans_path=spans_dir / f"spans-{name}.jsonl",
        )
        runs = [*untraced, traced]
        all_correct = all_correct and all(r["correct"] for r in runs)
        workloads[name] = {
            "why": cls.why,
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in untraced),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": _summarise(untraced),
            "per_layer": _summarise([traced]),
            "info": {
                "ops": [r["info"].get("ops") for r in untraced],
                "whole_run_op_ms_p99": [
                    r["info"].get("whole_run_op_ms_p99") for r in untraced
                ],
                "error_share": _median_or_none(
                    [r["info"].get("error_share") for r in untraced]
                ),
                "unresolved_spans": traced["info"].get("unresolved_spans", []),
            },
        }
        print(f"{name}: " + ", ".join(
            f"{metric}={entry['median']:.6g} {entry['unit']}"
            for metric, entry in workloads[name]["end_to_end"].items()
        ), flush=True)
    calibration.append(calibration_ms())
    drift = abs(calibration[1] - calibration[0]) / min(calibration)
    document = {
        "meta": {
            "seed": args.seed,
            "seconds": seconds,
            "reps": reps,
            "smoke": bool(args.smoke),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "calibration_ms": calibration,
            "noisy": drift > CALIBRATION_TOLERANCE,
        },
        "workloads": workloads,
    }
    out_path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out_path}"
          + (" (noisy: calibration drifted)" if document["meta"]["noisy"]
             else ""))
    return 0 if all_correct else 1


def _spread(entry: dict) -> float:
    values = [v for v in entry["values"] if v is not None]
    median = entry["median"]
    return (max(values) - min(values)) / abs(median) if median else 0.0


def compare(path_a: str, path_b: str) -> int:
    """One row per (workload, end-to-end metric): B against A.

    *worse* — B's median is worse than A's by more than the metric's
    bound; *better* — better by more than the bound; *same* — within
    it; *unresolved* — the reps of either side spread wider than the
    bound, so the files cannot tell.  Exit 1 on any *worse*."""
    bounds = {
        m["name"]: m
        for m in json.loads(
            (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
        )["end_to_end"]
    }
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))["workloads"]
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))["workloads"]
    worse = 0
    print(f"{'workload':12s} {'metric':24s} {'A (base)':>14s} {'B':>14s} "
          f"{'B/A':>8s} {'bound':>6s}  verdict")
    for workload in a:
        if workload not in b:
            continue
        for metric, spec in bounds.items():
            ea = a[workload]["end_to_end"][metric]
            eb = b[workload]["end_to_end"][metric]
            base, other, bound = ea["median"], eb["median"], spec["bound"]
            change = (other - base) / abs(base)
            if spec["better"] == "higher":
                change = -change
            if max(_spread(ea), _spread(eb)) > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
                worse += 1
            elif change < -bound:
                verdict = "better"
            else:
                verdict = "same"
            print(f"{workload:12s} {metric:24s} {base:14.6g} {other:14.6g} "
                  f"{other / base:8.4f} {bound:6.3f}  {verdict} "
                  f"[{ea['unit']}]")
    return 1 if worse else 0
