#!/usr/bin/env python
"""Differential query-correctness fuzzer CLI.

Runs the multi-oracle harness over seeded random federated workloads:
every generated query executes under each row of the oracle table
(``repro.testcheck.oracle.ORACLES``) that applies to it — the all-local
reference, the full distributed optimizer, the remote-rules-ablated
optimizer, fault injection with retries, tracing, parallel exchanges,
a plan-cache replay, a constrained workload group, and a degraded
partitioned view — and every answer must hold its row's comparator
against the reference.  On mismatches, the first recorded span tree is
written alongside the report (raw JSON + rendered), so the failure
artifact carries the distributed execution timeline.

Usage::

    python tools/diffcheck.py --seed 42 --n 50          # PR smoke
    python tools/diffcheck.py --seed 7 --n 500          # nightly fuzz
    python tools/diffcheck.py --repro 42:3              # replay one case
    python tools/diffcheck.py --seed 42 --n 50 --out d/ # write failure reports
    python tools/diffcheck.py --atomic 8                # 2PC crash fuzz

``--atomic N`` runs the table's ``atomic`` row: N seeds of crash-injected
DML through the distributed partitioned view (a random 2PC protocol-step
crash per statement, then in-doubt recovery), requiring every member to
stay all-or-nothing against a single-engine shadow.  Atomic case
ids are namespaced ``a<seed>:<index>``; ``--repro a<seed>:<i>`` replays
that seed's battery.

Every mismatch report carries the case id (``schema_seed:query_index``),
the SQL text, and the EXPLAIN of every configuration's plan; rerun the
exact case with ``--repro <case_id>``.  Exit status is nonzero when any
mismatch (or execution error) is found.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracereport  # noqa: E402

from repro.testcheck.oracle import (  # noqa: E402
    SELECTS,
    STATEMENTS,
    DiffReport,
    DifferentialRunner,
)


def _write_reports(out_dir: Path, report: DiffReport) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, mismatch in enumerate(report.mismatches):
        name = mismatch.case_id.replace(":", "_")
        files = {".txt": mismatch.describe()}
        if mismatch.trace_payload is not None:
            # the recorded span tree, as both raw JSON and a rendered
            # report — CI uploads these as artifacts
            files["_trace.json"] = json.dumps(
                mismatch.trace_payload, indent=2, default=str
            )
            files["_spans.txt"] = "\n".join(tracereport.render_span_tree(
                mismatch.trace_payload, include_events=True
            ))
        for suffix, text in files.items():
            path = out_dir / f"mismatch_{i:03d}_case_{name}{suffix}"
            path.write_text(text + "\n", encoding="utf-8")
            print(f"diffcheck: wrote {path}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42,
                        help="base seed for schema/query generation (default 42)")
    parser.add_argument("--n", type=int, default=50,
                        help="number of queries to check (default 50)")
    parser.add_argument("--repro", metavar="CASE_ID", default=None,
                        help="replay one case id (schema_seed:query_index) "
                             "from a failure report")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="write one report file per mismatch into DIR")
    parser.add_argument("--atomic", type=int, metavar="N", default=0,
                        help="run the 2PC crash-recovery atomicity oracle "
                             "over N seeds (instead of the query oracles)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-schema progress output")
    args = parser.parse_args()

    started = time.perf_counter()
    runner = DifferentialRunner(seed=args.seed)
    cases, n = (
        (STATEMENTS, args.atomic * STATEMENTS.battery) if args.atomic > 0
        else (SELECTS, args.n)
    )

    def progress(schema_seed: int, partial: DiffReport) -> None:
        if not args.quiet:
            print(
                f"diffcheck: schema seed {schema_seed} done — "
                f"{partial.cases_run}/{n} cases, "
                f"{len(partial.mismatches)} mismatch(es)",
                file=sys.stderr,
            )

    if args.repro is not None:
        report = runner.replay(args.repro)
    else:
        report = runner.run(n, progress=progress, cases=cases)

    elapsed = time.perf_counter() - started
    if report.ok:
        print(f"diffcheck: OK — {report.cases_run} case(s), "
              f"0 mismatches ({elapsed:.1f}s)")
        return 0

    print(report.describe(), file=sys.stderr)
    if args.out:
        _write_reports(Path(args.out), report)
    print(
        f"diffcheck: FAILED — {len(report.mismatches)} mismatch(es) in "
        f"{report.cases_run} case(s) ({elapsed:.1f}s)",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
