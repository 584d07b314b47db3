"""Shared builders for the experiment suite.

Each ``bench_*.py`` module reproduces one paper artifact (table/figure/
worked example); see the experiment index in docs/ARCHITECTURE.md.
Benchmarks both *time* the relevant operation (pytest-benchmark) and
*assert the shape* the paper reports (who wins, by roughly what factor), printing the
rows/series for EXPERIMENTS.md.

World construction is shared with the test suite and the differential
harness via :mod:`repro.testcheck.worlds`; ``build_fig4_world`` is
re-exported here for the bench modules that import it.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.errors import GovernorError
from repro.observability.metrics import Histogram
from repro.testcheck.worlds import build_fig4_world

__all__ = [
    "SMOKE",
    "Recorder",
    "SessionRun",
    "build_fig4_world",
    "print_table",
    "run_sessions",
    "statement_sim_ms",
]

#: ``BENCH_SMOKE=1`` selects the reduced CI-sized sweeps
SMOKE = os.environ.get("BENCH_SMOKE") == "1"


class Recorder:
    """One ``bench_*.py`` module's results file, rewritten as sections
    land: ``record = Recorder("throughput", meta)``, then
    ``record(section, payload)``.

    A full-size run writes the tracked ``BENCH_<name>.json`` at the
    repo root.  A ``BENCH_SMOKE=1`` run writes under ``$TMPDIR``
    instead: smoke numbers never overwrite a committed full-size
    baseline (CI checks ``git diff --exit-code -- 'BENCH_*.json'``).
    """

    def __init__(self, name: str, meta: dict):
        root = (
            Path(tempfile.gettempdir()) / "repro-bench-smoke"
            if SMOKE
            else Path(__file__).resolve().parents[1]
        )
        self.path = root / f"BENCH_{name}.json"
        self.results: dict = {"meta": {**meta, "smoke": SMOKE}}

    def __call__(self, section: str, payload: Any) -> None:
        self.results[section] = payload
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(
            json.dumps(self.results, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


def statement_sim_ms(result: Any) -> float:
    """Elapsed simulated network time of one statement, read off its
    own result: what its ledger charged, less what parallel exchanges
    overlapped.  Exact under concurrency — other sessions' traffic on
    the shared channels never lands on this statement's ledger."""
    return (
        sum(stats["simulated_ms"] for stats in result.network.values())
        - result.parallel_saved_ms
    )


@dataclass
class SessionRun:
    """What :func:`run_sessions` measured, per session where a list."""

    #: summed latency of the session's completed statements
    busy_ms: list
    completed: list
    #: statements the governor shed with a typed error
    shed: list
    #: per-statement simulated latency (percentiles)
    latency: Histogram
    wall_ms: float


def run_sessions(
    engine: Any,
    n_sessions: int,
    statements_each: int,
    pool: Sequence[str],
    workload_group: Optional[str] = None,
) -> SessionRun:
    """The threaded session driver of E18 and E20: ``n_sessions``
    sessions, one thread each behind a start barrier, each issuing
    ``statements_each`` statements round-robin from ``pool`` (offset by
    its index).  A statement's latency is simulated ms: admission wait
    + grant wait + :func:`statement_sim_ms`.  A ``GovernorError`` is a
    shed statement (counted, not timed); any other error fails the
    run."""
    run = SessionRun(
        [0.0] * n_sessions, [0] * n_sessions, [0] * n_sessions,
        Histogram("statement_sim_ms"), 0.0,
    )
    lock = threading.Lock()
    errors: list = []
    barrier = threading.Barrier(n_sessions)

    def worker(index: int) -> None:
        session = engine.create_session(f"s{index}")
        if workload_group is not None:
            session.execute(f"SET WORKLOAD GROUP '{workload_group}'")
        barrier.wait()
        try:
            for n in range(statements_each):
                try:
                    result = session.execute(pool[(index + n) % len(pool)])
                except GovernorError:
                    run.shed[index] += 1
                    continue
                statement_ms = (
                    result.admission_wait_ms
                    + result.grant_wait_ms
                    + statement_sim_ms(result)
                )
                with lock:
                    run.latency.observe(statement_ms)
                run.busy_ms[index] += statement_ms
                run.completed[index] += 1
        except Exception as error:  # noqa: BLE001
            errors.append(repr(error))

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(n_sessions)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    run.wall_ms = (time.perf_counter() - started) * 1000.0
    assert not errors, errors
    return run


def print_table(title: str, header: list[str], rows: list[tuple]) -> None:
    """Print one experiment's result table (captured into bench output)."""
    print(f"\n## {title}")
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows
        else len(str(header[i]))
        for i in range(len(header))
    ]
    print("  " + " | ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    print("  " + "-+-".join("-" * w for w in widths))
    for row in rows:
        print(
            "  " + " | ".join(str(v).ljust(w) for v, w in zip(row, widths))
        )
