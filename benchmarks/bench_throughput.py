"""E18 — multi-session throughput over the shared compiled-plan cache.

The claim under test: a session layer plus a shared plan cache turns
the engine from a single-user library into a server.  N concurrent
sessions issuing a mixed statement stream should sustain roughly N×
the statement throughput of one session, because (a) per-session
simulated network time overlaps across sessions and (b) compilation —
the one *serialized* stage (the Cascades memo is single-threaded under
the engine's compile lock) — happens once per distinct statement shape
and is a cache hit everywhere else.

Accounting: each session's busy time is the simulated network time of
its own statements, read off each statement's result (the statement
ledger — charges are counters, not sleeps, so the sweep is
reproducible).  The workload makespan is the busiest session plus the
serialized compile penalty ``misses × mean_compile_ms`` (compiles queue
behind one lock).  A disabled-cache ablation pays that penalty for
*every* statement, which is exactly the scaling collapse the cache
exists to prevent.

Acceptance (gated here and recorded in ``BENCH_throughput.json``):
8 sessions ≥ 2× the 1-session throughput, with a warm-cache hit rate
≥ 90%.  Set ``BENCH_SMOKE=1`` for the reduced CI run.
"""

import time

from benchmarks.conftest import SMOKE, Recorder, print_table, run_sessions
from repro import Engine, NetworkChannel, ServerInstance

SESSION_SWEEP = (1, 2, 4, 8)
STATEMENTS_PER_SESSION = 24 if SMOKE else 96
ROWS_LOCAL = 60 if SMOKE else 240
ROWS_REMOTE = 40 if SMOKE else 160
LATENCY_MS = 1.0

_record = Recorder(
    "throughput",
    {
        "statements_per_session": STATEMENTS_PER_SESSION,
        "rows_local": ROWS_LOCAL,
        "rows_remote": ROWS_REMOTE,
        "latency_ms": LATENCY_MS,
    },
)


def _build(plan_cache: bool = True) -> Engine:
    engine = Engine("local")
    engine.execute("CREATE TABLE lt (id int, grp varchar(5), v int)")
    engine.execute(
        "INSERT INTO lt VALUES "
        + ", ".join(
            f"({i}, '{'abc'[i % 3]}', {i * 7 % 23})"
            for i in range(ROWS_LOCAL)
        )
    )
    for name, base in (("east", 10_000), ("west", 20_000)):
        server = ServerInstance(name)
        server.execute("CREATE TABLE rt (id int, grp varchar(5), v int)")
        server.execute(
            "INSERT INTO rt VALUES "
            + ", ".join(
                f"({base + i}, '{'xyz'[i % 3]}', {i * 5 % 19})"
                for i in range(ROWS_REMOTE)
            )
        )
        engine.add_linked_server(
            name,
            server,
            NetworkChannel(
                f"ch-{name}", latency_ms=LATENCY_MS, mb_per_second=50
            ),
        )
    engine.plan_cache_enabled = plan_cache
    return engine


#: the mixed statement pool: every shape compiles once, then hits
POOL = (
    "SELECT id, v FROM lt WHERE v > 5",
    "SELECT grp, COUNT(*) FROM lt GROUP BY grp",
    "SELECT id, v FROM east.master.dbo.rt WHERE v < 10",
    "SELECT COUNT(*) FROM west.master.dbo.rt WHERE grp = 'x'",
    "SELECT l.id, r.v FROM lt l, east.master.dbo.rt r WHERE l.v = r.v",
    "SELECT e.id FROM east.master.dbo.rt e WHERE e.grp = 'y' ORDER BY e.id",
    "SELECT TOP 5 id, v FROM west.master.dbo.rt ORDER BY v DESC, id",
    "SELECT w.grp, COUNT(*) FROM west.master.dbo.rt w GROUP BY w.grp",
)


def _mean_compile_ms(engine: Engine) -> float:
    """Measured serialized cost of one fresh compile (metadata warm)."""
    started = time.perf_counter()
    for sql in POOL:
        engine.plan(sql)
    return (time.perf_counter() - started) * 1000.0 / len(POOL)


def _run_point(n_sessions: int) -> dict:
    engine = _build()
    for sql in POOL:
        engine.execute(sql)  # warm remote metadata + the plan cache
    mean_compile_ms = _mean_compile_ms(engine)
    hits0, misses0 = engine.plan_cache.hits, engine.plan_cache.misses

    run = run_sessions(engine, n_sessions, STATEMENTS_PER_SESSION, POOL)
    busy, latency = run.busy_ms, run.latency

    hits = engine.plan_cache.hits - hits0
    misses = engine.plan_cache.misses - misses0
    total = n_sessions * STATEMENTS_PER_SESSION
    compile_penalty_ms = misses * mean_compile_ms
    makespan_ms = max(busy) + compile_penalty_ms
    return {
        "sessions": n_sessions,
        "statements": total,
        "hits": hits,
        "misses": misses,
        "hit_rate": round(hits / total, 4) if total else 1.0,
        "busiest_session_ms": round(max(busy), 3),
        "mean_compile_ms": round(mean_compile_ms, 3),
        "compile_penalty_ms": round(compile_penalty_ms, 3),
        "makespan_ms": round(makespan_ms, 3),
        "throughput_stmt_per_s": round(total / makespan_ms * 1000.0, 1),
        "latency_p50_ms": round(latency.percentile(50.0), 3),
        "latency_p95_ms": round(latency.percentile(95.0), 3),
        "latency_p99_ms": round(latency.percentile(99.0), 3),
    }


def _run_uncached_point(n_sessions: int) -> dict:
    """The ablation: same workload, plan cache off — every statement
    recompiles under the serialized compile lock."""
    engine = _build(plan_cache=False)
    for sql in POOL:
        engine.execute(sql)  # warm remote metadata only
    mean_compile_ms = _mean_compile_ms(engine)

    busy = run_sessions(
        engine, n_sessions, STATEMENTS_PER_SESSION, POOL
    ).busy_ms

    total = n_sessions * STATEMENTS_PER_SESSION
    compile_penalty_ms = total * mean_compile_ms  # one compile each
    makespan_ms = max(busy) + compile_penalty_ms
    return {
        "sessions": n_sessions,
        "statements": total,
        "compile_penalty_ms": round(compile_penalty_ms, 3),
        "makespan_ms": round(makespan_ms, 3),
        "throughput_stmt_per_s": round(total / makespan_ms * 1000.0, 1),
    }


def test_session_throughput_sweep(benchmark):
    """The E18 headline: session-count sweep over the shared cache."""
    cells = {n: _run_point(n) for n in SESSION_SWEEP}
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    base = cells[1]["throughput_stmt_per_s"]
    print_table(
        f"E18: multi-session throughput "
        f"({STATEMENTS_PER_SESSION} stmts/session, "
        f"{len(POOL)}-shape pool, {LATENCY_MS}ms links)",
        ["sessions", "stmt/s", "scaling", "hit rate", "makespan (sim)",
         "p50", "p95", "p99"],
        [
            (
                str(n),
                f"{cells[n]['throughput_stmt_per_s']:.0f}",
                f"x{cells[n]['throughput_stmt_per_s'] / base:.2f}",
                f"{cells[n]['hit_rate'] * 100.0:.1f}%",
                f"{cells[n]['makespan_ms']:.1f}ms",
                f"{cells[n]['latency_p50_ms']:.2f}ms",
                f"{cells[n]['latency_p95_ms']:.2f}ms",
                f"{cells[n]['latency_p99_ms']:.2f}ms",
            )
            for n in SESSION_SWEEP
        ],
    )

    # acceptance: 8 sessions >= 2x one session, hit rate >= 90%
    scaling = cells[8]["throughput_stmt_per_s"] / base
    assert scaling >= 2.0, (
        f"8-session scaling x{scaling:.2f} below the 2x acceptance floor"
    )
    for n in SESSION_SWEEP:
        assert cells[n]["hit_rate"] >= 0.90, (
            f"{n}-session hit rate {cells[n]['hit_rate']:.2%} below 90%"
        )
    _record(
        "session_sweep",
        {str(n): cells[n] for n in SESSION_SWEEP},
    )


def test_uncached_ablation(benchmark):
    """Cache off: serialized recompiles flatten the scaling curve."""
    cached = _run_point(8)
    uncached = _run_uncached_point(8)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    print_table(
        "E18: plan-cache ablation at 8 sessions",
        ["config", "stmt/s", "compile penalty"],
        [
            (
                "shared cache",
                f"{cached['throughput_stmt_per_s']:.0f}",
                f"{cached['compile_penalty_ms']:.1f}ms",
            ),
            (
                "no cache",
                f"{uncached['throughput_stmt_per_s']:.0f}",
                f"{uncached['compile_penalty_ms']:.1f}ms",
            ),
        ],
    )
    assert (
        cached["throughput_stmt_per_s"]
        > uncached["throughput_stmt_per_s"]
    ), "the shared plan cache failed to beat per-statement recompiles"
    _record("ablation_8_sessions", {"cached": cached, "uncached": uncached})
