"""E16 — observability: tracing/Query Store overhead and plan-regression
detection.

Two claims under test:

* **Pay-for-what-you-use**: hierarchical span tracing and the Query
  Store are opt-in.  With both disabled, every producer site costs one
  ``is None`` test, so per-statement time stays within the CI budget;
  enabling them costs a bounded multiple, not an order of magnitude.
* **Regression detection works end-to-end**: ablating the remote-query
  rules mid-run (the Section 4.1.2 experiment, now *detected* rather
  than merely plotted) flips the active plan fingerprint from pushdown
  to fetch-and-filter; ``sys.query_store_regressions`` reports the
  flip with both fingerprints and before/after latency, and
  ``engine.force_plan`` pins the old plan back — the next execution
  replays it without re-exploration even though the rules that would
  re-derive it are still disabled.

Set ``BENCH_SMOKE=1`` for the reduced CI run (fails if the
all-disabled per-statement overhead exceeds the budget).  Results
accumulate in ``BENCH_observability.json`` at the repo root.
"""

import statistics
import time

from benchmarks.conftest import SMOKE, Recorder, print_table
from repro import Engine, NetworkChannel, ServerInstance

#: statements per mode in one round; the four modes take turns for
#: ROUNDS rounds, so a burst of machine noise hits every mode alike
STATEMENTS = 6 if SMOKE else 20
ROUNDS = 5 if SMOKE else 25
MODES = (
    ("disabled", False, False),
    ("tracing", True, False),
    ("query_store", False, True),
    ("both", True, True),
)
#: CI budget for the all-disabled path, per statement (generous: CI
#: runners are slow and the statement itself does real work — the
#: budget guards against observability hooks leaking onto the hot
#: path, not against the engine being an interpreter)
DISABLED_BUDGET_MS = 50.0

_record = Recorder(
    "observability", {"statements": STATEMENTS, "rounds": ROUNDS}
)


def build_observability_world(mb_per_second: float = 0.2):
    """One remote server with a byte-heavy table: pushdown vs fetch is
    a large, deterministic simulated-network difference."""
    remote = ServerInstance("remote0")
    remote.execute(
        "CREATE TABLE orders (o_id int PRIMARY KEY, "
        "o_status varchar(1), o_comment varchar(60))"
    )
    for key in range(200):
        status = "OF"[key % 2]
        remote.execute(
            f"INSERT INTO orders VALUES ({key}, '{status}', "
            f"'order comment padding padding padding {key}')"
        )
    local = Engine("local")
    channel = NetworkChannel(
        "wan", latency_ms=1.0, mb_per_second=mb_per_second
    )
    local.add_linked_server("remote0", remote, channel)
    return local, remote, channel


PUSHDOWN_SQL = (
    "SELECT COUNT(*) FROM remote0.master.dbo.orders WHERE o_status = 'O'"
)


def _batch_ms(engine, tracing: bool, store: bool) -> float:
    """CPU ms per statement of one batch of STATEMENTS in one mode."""
    engine.tracing_enabled = tracing
    engine.query_store_enabled = store
    started = time.process_time()
    for __ in range(STATEMENTS):
        engine.execute(PUSHDOWN_SQL)
    return (time.process_time() - started) * 1000.0 / STATEMENTS


def _sweep(engine) -> dict:
    """Each mode's median and quartiles of per-statement CPU ms over
    ROUNDS rounds; every round runs one batch per mode, the order
    rotated so no mode always follows the same one."""
    samples: dict = {name: [] for name, __t, __s in MODES}
    for name, tracing, store in MODES:
        _batch_ms(engine, tracing, store)  # warm metadata and caches
    for index in range(ROUNDS):
        shift = index % len(MODES)
        for name, tracing, store in MODES[shift:] + MODES[:shift]:
            samples[name].append(_batch_ms(engine, tracing, store))
    cells = {}
    for name, tracing, store in MODES:
        q1, median, q3 = statistics.quantiles(samples[name], n=4)
        cells[name] = {
            "tracing": tracing,
            "query_store": store,
            "ms_per_statement": median,
            "ms_per_statement_q1": q1,
            "ms_per_statement_q3": q3,
        }
    return cells


def test_observability_overhead(benchmark):
    """Per-statement CPU cost of each observability mode."""
    local, __, __ch = build_observability_world(mb_per_second=50.0)
    cells = _sweep(local)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    base = cells["disabled"]["ms_per_statement"]
    rows = [
        (
            name,
            f"{cell['ms_per_statement']:.3f}ms",
            f"{cell['ms_per_statement_q3'] - cell['ms_per_statement_q1']:.3f}ms",
            f"x{cell['ms_per_statement'] / base:.2f}",
        )
        for name, cell in cells.items()
    ]
    print_table(
        f"E16: observability overhead (median of {ROUNDS} rounds x "
        f"{STATEMENTS} statements/mode, CPU time)",
        ["mode", "ms/statement", "IQR", "vs disabled"],
        rows,
    )
    # hard CI gate: with everything off, the hooks must stay off the
    # hot path
    assert base < DISABLED_BUDGET_MS, (
        f"disabled-path per-statement time {base:.3f}ms exceeds the "
        f"{DISABLED_BUDGET_MS}ms budget — an observability hook is "
        f"doing work while disabled"
    )
    # enabling everything costs a bounded multiple (trace + store do
    # real per-operator work; they must not be an order of magnitude)
    assert cells["both"]["ms_per_statement"] < base * 10
    _record("overhead", cells)


def test_regression_detection_and_plan_forcing(benchmark):
    """Ablate remote rules mid-run; the store must detect the plan
    regression and ``force_plan`` must restore the pushdown plan."""
    local, __, __ch = build_observability_world()
    local.query_store_enabled = True
    runs = 3 if SMOKE else 8

    local.execute(PUSHDOWN_SQL)  # warm metadata
    for __r in range(runs):
        reference = local.execute(PUSHDOWN_SQL)
    baseline_rows = reference.rows

    # --- the ablation: the optimizer can no longer push the aggregate
    local.optimizer.options.enable_remote_query = False
    for __r in range(runs):
        regressed = local.execute(PUSHDOWN_SQL)
    assert regressed.rows == baseline_rows  # ablation must not change answers

    regressions = local.query_store.regressed_queries()
    assert regressions, "plan flip + slower latency must be detected"
    reg = regressions[0]

    view = local.execute(
        "SELECT query_hash, prior_plan_fingerprint, "
        "active_plan_fingerprint, prior_mean_latency_ms, "
        "active_mean_latency_ms, regression_ratio "
        "FROM sys.query_store_regressions"
    )
    assert len(view.rows) == 1
    assert view.rows[0][1] == reg.prior_fingerprint
    assert view.rows[0][2] == reg.active_fingerprint

    # --- force the prior (pushdown) plan back, rules still ablated
    local.force_plan(reg.query_hash, reg.prior_fingerprint)
    forced = local.execute(PUSHDOWN_SQL)
    entry = local.query_store.lookup(PUSHDOWN_SQL)
    assert forced.rows == baseline_rows
    assert entry.active_fingerprint == reg.prior_fingerprint

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_table(
        "E16: seeded plan regression (remote-rules ablation)",
        ["query_hash", "prior plan", "active plan", "prior ms",
         "active ms", "ratio"],
        [(
            reg.query_hash,
            reg.prior_fingerprint,
            reg.active_fingerprint,
            f"{reg.prior_mean_latency_ms:.2f}",
            f"{reg.active_mean_latency_ms:.2f}",
            f"x{reg.ratio:.2f}",
        )],
    )
    _record(
        "regression_detection",
        {
            "query_hash": reg.query_hash,
            "prior_fingerprint": reg.prior_fingerprint,
            "active_fingerprint": reg.active_fingerprint,
            "prior_mean_latency_ms": round(reg.prior_mean_latency_ms, 3),
            "active_mean_latency_ms": round(reg.active_mean_latency_ms, 3),
            "ratio": round(reg.ratio, 3),
            "forced_restores_plan": True,
            "runs_per_plan": runs,
        },
    )
