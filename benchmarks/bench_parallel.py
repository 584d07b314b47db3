"""E17 — parallel distributed execution: the exchange speedup sweep.

The claim under test: a ``Gather``/``GatherMerge`` exchange above
independent remote branches hides per-member network latency, so a
federation scan at DOP=4 over a 4-member federation runs in roughly the
*busiest member's* simulated time instead of the *sum* — ≥2× faster on
symmetric members — while DOP=1 builds the identical serial plan (no
exchange, no overhead) and answers never change at any DOP.

Elapsed simulated time for a statement is
``sum(per-server simulated_ms) - parallel_saved_ms``: channel charges
are counters, so concurrency shows up as *credited overlap* rather than
wall-clock sleeps, keeping the sweep exactly reproducible.

Set ``BENCH_SMOKE=1`` for the reduced CI run.  Results accumulate in
``BENCH_parallel.json`` at the repo root.
"""

from benchmarks.conftest import SMOKE, Recorder, print_table
from repro.workloads.tpcc import build_federation

MEMBERS = 4
CUSTOMERS_PER_WAREHOUSE = 20 if SMOKE else 100
LATENCY_MS = 2.0
DOP_SWEEP = (1, 2, 4, 8)

_record = Recorder(
    "parallel",
    {
        "members": MEMBERS,
        "customers_per_warehouse": CUSTOMERS_PER_WAREHOUSE,
        "latency_ms": LATENCY_MS,
    },
)


def _build():
    return build_federation(
        member_count=MEMBERS,
        warehouses_per_member=1,
        customers_per_warehouse=CUSTOMERS_PER_WAREHOUSE,
        latency_ms=LATENCY_MS,
    )


SCAN_SQL = "SELECT c_w_id, c_id, c_name, c_balance FROM customer"
ORDERED_SQL = SCAN_SQL + " ORDER BY c_balance DESC, c_w_id, c_id"


def _run(coordinator, sql: str, dop: int) -> dict:
    """One statement at one DOP; returns simulated-time accounting."""
    coordinator.execute(f"SET PARALLEL_DOP {dop}")
    result = coordinator.execute(sql)
    network_ms = sum(
        stats["simulated_ms"] for stats in result.network.values()
    )
    return {
        "dop": dop,
        "rows": len(result.rows),
        "network_ms": round(network_ms, 3),
        "saved_ms": round(result.parallel_saved_ms, 3),
        "elapsed_ms": round(network_ms - result.parallel_saved_ms, 3),
        "result": result,
    }


def test_parallel_speedup_sweep(benchmark):
    """The E17 headline: DOP sweep over a 4-member federation scan."""
    federation = _build()
    coordinator = federation.coordinator
    coordinator.execute(SCAN_SQL)  # warm member metadata

    sequential = _run(coordinator, SCAN_SQL, 1)
    reference = sorted(sequential["result"].rows)
    cells = {1: sequential}
    for dop in DOP_SWEEP[1:]:
        cell = _run(coordinator, SCAN_SQL, dop)
        assert sorted(cell["result"].rows) == reference, (
            f"DOP={dop} changed the result multiset"
        )
        cells[dop] = cell

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    base = sequential["elapsed_ms"]
    rows = [
        (
            f"DOP={dop}",
            f"{cells[dop]['network_ms']:.2f}ms",
            f"{cells[dop]['saved_ms']:.2f}ms",
            f"{cells[dop]['elapsed_ms']:.2f}ms",
            f"x{base / cells[dop]['elapsed_ms']:.2f}",
        )
        for dop in DOP_SWEEP
    ]
    print_table(
        f"E17: exchange speedup, {MEMBERS}-member federation scan "
        f"({cells[1]['rows']} rows, {LATENCY_MS}ms links)",
        ["dop", "network", "hidden", "elapsed (sim)", "speedup"],
        rows,
    )

    # DOP=1 builds no exchange: identical serial plan, within 5%
    assert abs(sequential["elapsed_ms"] - sequential["network_ms"]) <= (
        0.05 * sequential["network_ms"]
    )
    assert sequential["saved_ms"] == 0.0
    # DOP=4 over 4 symmetric members: >= 2x simulated-latency speedup
    speedup = base / cells[4]["elapsed_ms"]
    assert speedup >= 2.0, (
        f"DOP=4 speedup x{speedup:.2f} below the 2x acceptance floor"
    )
    _record(
        "speedup_sweep",
        {
            str(dop): {
                key: value
                for key, value in cells[dop].items()
                if key != "result"
            }
            for dop in DOP_SWEEP
        },
    )


def test_parallel_ordered_sweep(benchmark):
    """GatherMerge keeps ORDER BY answers byte-identical at every DOP
    while still overlapping the branch fetches."""
    federation = _build()
    coordinator = federation.coordinator
    coordinator.execute(SCAN_SQL)  # warm member metadata

    sequential = _run(coordinator, ORDERED_SQL, 1)
    reference = sequential["result"].rows
    cells = {1: sequential}
    for dop in DOP_SWEEP[1:]:
        cell = _run(coordinator, ORDERED_SQL, dop)
        assert cell["result"].rows == reference, (
            f"DOP={dop} changed the row order"
        )
        cells[dop] = cell

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    base = sequential["elapsed_ms"]
    print_table(
        "E17: ordered (GatherMerge) sweep",
        ["dop", "elapsed (sim)", "speedup"],
        [
            (
                f"DOP={dop}",
                f"{cells[dop]['elapsed_ms']:.2f}ms",
                f"x{base / cells[dop]['elapsed_ms']:.2f}",
            )
            for dop in DOP_SWEEP
        ],
    )
    assert base / cells[4]["elapsed_ms"] >= 2.0
    _record(
        "ordered_sweep",
        {
            str(dop): {
                key: value
                for key, value in cells[dop].items()
                if key != "result"
            }
            for dop in DOP_SWEEP
        },
    )
