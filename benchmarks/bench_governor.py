"""E20 — Resource Governor admission control under overload.

The claim under test: when concurrent sessions outnumber the memory a
machine can grant, an *ungoverned* engine degrades by unbounded FIFO
queueing — every waiter eventually runs, but tail latency grows with
the queue depth — while a *governed* engine holds tail latency flat by
bounding the wait (deadline + bounded queue) and shedding the excess
with fast typed errors the client can retry.

Both engines run on the same simulated "machine": a default pool whose
memory capacity fits ~2 concurrent hash-join grants (calibrated from
the workload's own estimates, so the experiment tracks the cost
model).  The *only* difference is policy:

* ungoverned — grant requests wait forever, no concurrency gate;
* governed  — a 2-slot admission gate with a bounded queue and a
  request deadline, plus reduced (pct-capped) grants.

Per-statement latency is simulated ms: admission wait + grant wait +
the statement's own network charges (read off its result — the same
accounting as E18).  Shed statements are excluded from latency
and counted separately; they cost the client one bounded deadline, not
a seat in an ever-deeper queue.

Acceptance (gated here and recorded in ``BENCH_governor.json``):
at 16 sessions the ungoverned p99 is >= 3x the governed p99; at 1-2
sessions (no contention) governed throughput is within 5% of
ungoverned — the governor's fast paths are free until the pool is
actually under pressure.  Set ``BENCH_SMOKE=1`` for the reduced CI
run.
"""

from benchmarks.conftest import SMOKE, Recorder, print_table, run_sessions
from repro import Engine, NetworkChannel, ServerInstance

SESSION_SWEEP = (1, 2, 16) if SMOKE else (1, 2, 4, 8, 16)
STATEMENTS_PER_SESSION = 8 if SMOKE else 16
MEMBERS = 4
ROWS_LOCAL = 120
ROWS_REMOTE = 100
LATENCY_MS = 1.0
#: pool capacity = this many times the workload's largest grant
CAPACITY_FACTOR = 2.2
#: governed policy: admission gate width, queue bound, deadline
GOVERNED_SLOTS = 2
GOVERNED_QUEUE = 4
GOVERNED_TIMEOUT_MS = 250.0

_record = Recorder(
    "governor",
    {
        "members": MEMBERS,
        "statements_per_session": STATEMENTS_PER_SESSION,
        "rows_local": ROWS_LOCAL,
        "rows_remote": ROWS_REMOTE,
        "latency_ms": LATENCY_MS,
        "capacity_factor": CAPACITY_FACTOR,
        "governed_slots": GOVERNED_SLOTS,
        "governed_queue": GOVERNED_QUEUE,
        "governed_timeout_ms": GOVERNED_TIMEOUT_MS,
    },
)


#: every shape needs workspace memory (hash joins, hash aggregates,
#: sorts) so every statement must win a grant before executing
POOL = tuple(
    sql.format(m=m)
    for m in range(MEMBERS)
    for sql in (
        "SELECT l.id, r.v FROM lt l, fed{m}.master.dbo.rt{m} r "
        "WHERE l.v = r.v",
        "SELECT r.grp, COUNT(*) FROM fed{m}.master.dbo.rt{m} r "
        "GROUP BY r.grp",
    )
)


def _build() -> Engine:
    engine = Engine("e20")
    engine.execute("CREATE TABLE lt (id int, grp varchar(5), v int)")
    engine.execute(
        "INSERT INTO lt VALUES "
        + ", ".join(
            f"({i}, '{'abc'[i % 3]}', {i * 7 % 23})"
            for i in range(ROWS_LOCAL)
        )
    )
    for m in range(MEMBERS):
        member = ServerInstance(f"fed{m}")
        member.execute(
            f"CREATE TABLE rt{m} (id int, grp varchar(5), v int)"
        )
        member.execute(
            f"INSERT INTO rt{m} VALUES "
            + ", ".join(
                f"({m * 10_000 + i}, '{'xyz'[i % 3]}', {i * 5 % 19})"
                for i in range(ROWS_REMOTE)
            )
        )
        engine.add_linked_server(
            f"fed{m}",
            member,
            NetworkChannel(
                f"ch-fed{m}", latency_ms=LATENCY_MS, mb_per_second=50
            ),
        )
    return engine


def _calibrate(engine: Engine) -> float:
    """Warm metadata + plan cache and return the workload's largest
    memory grant (KB) under an unbounded pool."""
    largest = 0.0
    for sql in POOL:
        result = engine.execute(sql)
        largest = max(largest, result.memory_grant_kb)
    assert largest > 0.0, "E20 workload produced no memory grants"
    return largest


def _configure(engine: Engine, governed: bool, capacity_kb: float) -> None:
    """Same machine, different policy (see module docstring)."""
    pool = engine.governor.pools["default"]
    pool.max_memory_kb = capacity_kb
    if governed:
        engine.governor.create_pool(
            "governed_pool",
            max_memory_kb=capacity_kb,
            max_concurrency=GOVERNED_SLOTS,
            max_queue_length=GOVERNED_QUEUE,
        )
        engine.governor.create_group(
            "governed",
            pool="governed_pool",
            max_memory_grant_pct=45.0,
            request_timeout_ms=GOVERNED_TIMEOUT_MS,
        )
    else:
        # grants at full size, waits unbounded: the naive policy
        engine.governor.groups["default"].max_memory_grant_pct = 100.0


def _run_point(engine: Engine, n_sessions: int, governed: bool) -> dict:
    run = run_sessions(
        engine, n_sessions, STATEMENTS_PER_SESSION, POOL,
        workload_group="governed" if governed else None,
    )
    total_completed = sum(run.completed)
    makespan_ms = max(run.busy_ms) if any(run.busy_ms) else 1.0
    return {
        "sessions": n_sessions,
        "completed": total_completed,
        "shed": sum(run.shed),
        "shed_rate": round(
            sum(run.shed) / (n_sessions * STATEMENTS_PER_SESSION), 4
        ),
        "p50_ms": round(run.latency.percentile(50.0), 3),
        "p95_ms": round(run.latency.percentile(95.0), 3),
        "p99_ms": round(run.latency.percentile(99.0), 3),
        "makespan_ms": round(makespan_ms, 3),
        "throughput_stmt_per_s": round(
            total_completed / makespan_ms * 1000.0, 1
        ),
        "wall_ms": round(run.wall_ms, 1),
    }


def _sweep(governed: bool) -> dict:
    cells = {}
    for n in SESSION_SWEEP:
        engine = _build()
        capacity_kb = CAPACITY_FACTOR * _calibrate(engine)
        _configure(engine, governed, capacity_kb)
        cells[n] = _run_point(engine, n, governed)
        cells[n]["capacity_kb"] = round(capacity_kb, 1)
        engine.close()
    return cells


def test_governed_overload_sweep(benchmark):
    """The E20 headline: tail latency under an overload sweep."""
    ungoverned = _sweep(governed=False)
    governed = _sweep(governed=True)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    print_table(
        f"E20: overload sweep ({MEMBERS}-member federation, "
        f"{STATEMENTS_PER_SESSION} stmts/session, ~2-grant pool)",
        ["sessions", "ungov p99", "gov p99", "ratio",
         "gov shed", "ungov stmt/s", "gov stmt/s"],
        [
            (
                str(n),
                f"{ungoverned[n]['p99_ms']:.0f}ms",
                f"{governed[n]['p99_ms']:.0f}ms",
                (
                    f"x{ungoverned[n]['p99_ms'] / governed[n]['p99_ms']:.1f}"
                    if governed[n]["p99_ms"]
                    else "-"
                ),
                f"{governed[n]['shed_rate'] * 100.0:.0f}%",
                f"{ungoverned[n]['throughput_stmt_per_s']:.0f}",
                f"{governed[n]['throughput_stmt_per_s']:.0f}",
            )
            for n in SESSION_SWEEP
        ],
    )

    # acceptance 1: under 16-session overload the ungoverned tail is
    # at least 3x the governed tail
    peak = max(SESSION_SWEEP)
    ratio = ungoverned[peak]["p99_ms"] / max(governed[peak]["p99_ms"], 0.001)
    assert ratio >= 3.0, (
        f"ungoverned p99 {ungoverned[peak]['p99_ms']:.0f}ms is only "
        f"x{ratio:.2f} the governed {governed[peak]['p99_ms']:.0f}ms "
        f"(need >= x3)"
    )
    # acceptance 2: overload is shed with typed errors, not absorbed
    assert governed[peak]["shed"] > 0, (
        "governed engine shed nothing under 16-session overload"
    )
    # acceptance 3: governance is free without contention — 1-2 session
    # throughput within 5% of ungoverned
    for n in (1, 2):
        gov = governed[n]["throughput_stmt_per_s"]
        ungov = ungoverned[n]["throughput_stmt_per_s"]
        assert gov >= 0.95 * ungov, (
            f"{n}-session governed throughput {gov:.0f} stmt/s is below "
            f"95% of ungoverned {ungov:.0f} stmt/s"
        )
    _record(
        "overload_sweep",
        {
            "ungoverned": {str(n): ungoverned[n] for n in SESSION_SWEEP},
            "governed": {str(n): governed[n] for n in SESSION_SWEEP},
            "p99_ratio_at_peak": round(ratio, 2),
        },
    )
