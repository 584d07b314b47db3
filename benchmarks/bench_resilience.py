"""E15 — availability under member failure (resilience sweep).

A distributed partitioned view stays *answerable* when members fail:

* transient faults are absorbed by retry/backoff, at a latency cost
  that grows with the fault rate;
* a hard-down member removes only the queries that must touch it —
  static pruning plus delayed schema validation (Section 4.1.5) keeps
  every other partition's queries alive;
* ``SET PARTIAL_RESULTS ON`` trades completeness for availability —
  federation-wide queries that fail-stop mode loses entirely come back
  as partial answers from the live members;
* an open circuit breaker stops re-paying retry/backoff for a member
  already known dead: wasted retry time collapses to near zero.

The sweep drives single-partition point queries against a 4-member
federation while the per-message transient-fault rate rises 0 → 50%,
then measures answer availability with one member hard-down.  Set
``BENCH_SMOKE=1`` to run a reduced sweep (CI).  Results accumulate in
``BENCH_resilience.json`` at the repo root.
"""

import random

import pytest

from benchmarks.conftest import SMOKE, Recorder, print_table
from repro import Engine, FaultInjector, NetworkChannel, ServerInstance
from repro.errors import NetworkError, TransactionInDoubtError
from repro.resilience.faults import TwoPCFaultPlan

MEMBERS = 4
QUERIES = 20 if SMOKE else 80
FAULT_RATES = (0.0, 0.10, 0.50) if SMOKE else (0.0, 0.10, 0.25, 0.50)
DOWN_COUNTS = (0, 1) if SMOKE else (0, 1, 2)
BASE_YEAR = 1992

# E19 (commit availability): crash-injection probability per DML
# statement, and statements per sweep cell
CRASH_RATES = (0.0, 0.5, 1.0) if SMOKE else (0.0, 0.25, 0.5, 1.0)
DML_STATEMENTS = 16 if SMOKE else 48

_record = Recorder(
    "resilience",
    {"members": MEMBERS, "queries_per_cell": QUERIES},
)


def build_resilience_federation(latency_ms: float = 1.0):
    """One partitioned view, one member server per year."""
    local = Engine("local")
    branches = []
    for i in range(MEMBERS):
        year = BASE_YEAR + i
        server = ServerInstance(f"srv{year}")
        server.execute(
            f"CREATE TABLE li_{year} (k int, y int NOT NULL "
            f"CHECK (y >= {year} AND y < {year + 1}))"
        )
        server.execute(
            f"INSERT INTO li_{year} VALUES "
            + ", ".join(f"({year * 100 + j}, {year})" for j in range(8))
        )
        local.add_linked_server(
            f"srv{year}", server, NetworkChannel(f"ch{year}", latency_ms)
        )
        branches.append(f"SELECT * FROM srv{year}.master.dbo.li_{year}")
    local.execute("CREATE VIEW li AS " + " UNION ALL ".join(branches))
    # compile once while every member is up: metadata caches warm here
    assert len(local.execute("SELECT * FROM li").rows) == MEMBERS * 8
    return local


def _channels(engine):
    return [
        engine.linked_server(f"srv{BASE_YEAR + i}").channel
        for i in range(MEMBERS)
    ]


def _sweep_point_queries(engine, rate: float, seed: int = 42):
    """QUERIES point queries round-robin over the partitions."""
    channels = _channels(engine)
    for i, channel in enumerate(channels):
        channel.fault_injector = (
            FaultInjector(seed=seed + i, transient_rate=rate)
            if rate > 0
            else None
        )
    engine.metrics.reset()
    answered = 0
    simulated_ms = 0.0
    for q in range(QUERIES):
        year = BASE_YEAR + (q % MEMBERS)
        before = sum(c.stats.simulated_ms for c in channels)
        try:
            result = engine.execute(f"SELECT * FROM li WHERE y = {year}")
            assert len(result.rows) == 8
            answered += 1
        except NetworkError:
            pass  # retries exhausted: the answer was unavailable
        simulated_ms += sum(c.stats.simulated_ms for c in channels) - before
    for channel in channels:
        channel.fault_injector = None
    return {
        "answered": answered,
        "availability": answered / QUERIES,
        "ms_per_query": simulated_ms / QUERIES,
        "retries": engine.metrics.value_of("network.retries"),
        "faults": engine.metrics.value_of("network.faults_injected"),
        "giveups": engine.metrics.value_of("network.retry_giveups"),
    }


def test_availability_under_transient_faults(benchmark):
    engine = build_resilience_federation()
    rows = []
    by_rate = {}
    for rate in FAULT_RATES:
        stats = _sweep_point_queries(engine, rate)
        by_rate[rate] = stats
        rows.append(
            (
                f"{rate:.0%}",
                f"{stats['availability']:.1%}",
                f"{stats['ms_per_query']:.2f}ms",
                int(stats["faults"]),
                int(stats["retries"]),
                int(stats["giveups"]),
            )
        )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_table(
        "E15: answer availability vs transient-fault rate "
        f"({MEMBERS} members, {QUERIES} point queries)",
        ["fault rate", "availability", "sim-ms/query", "faults",
         "retries", "giveups"],
        rows,
    )
    # fault-free baseline: everything answers, nothing retries
    assert by_rate[0.0]["availability"] == 1.0
    assert by_rate[0.0]["retries"] == 0
    # 10%: retry/backoff absorbs effectively every fault
    assert by_rate[0.10]["availability"] >= 0.95
    assert by_rate[0.10]["retries"] > 0
    # latency degrades monotonically-ish with the fault rate
    assert by_rate[0.50]["ms_per_query"] > by_rate[0.0]["ms_per_query"]
    _record(
        "transient_sweep", {f"{rate:.2f}": s for rate, s in by_rate.items()}
    )


def test_availability_with_member_down(benchmark):
    """Hard failure: only queries touching the dead member go dark."""
    engine = build_resilience_federation()
    down_year = BASE_YEAR + MEMBERS - 1
    engine.linked_server(f"srv{down_year}").channel.fault_injector = (
        FaultInjector(down=True)
    )

    def sweep():
        answered = 0
        for q in range(QUERIES):
            year = BASE_YEAR + (q % MEMBERS)
            try:
                engine.execute(f"SELECT * FROM li WHERE y = {year}")
                answered += 1
            except NetworkError:
                pass
        return answered

    answered = benchmark.pedantic(sweep, rounds=1, iterations=1)
    expected = QUERIES * (MEMBERS - 1) // MEMBERS
    print_table(
        "E15: availability with 1 of 4 members hard-down",
        ["queries", "answered", "availability", "expected"],
        [(QUERIES, answered, f"{answered / QUERIES:.1%}",
          f"{expected / QUERIES:.1%}")],
    )
    # pruning keeps exactly the other members' partitions answerable
    assert answered == expected
    _record(
        "member_down_point_queries",
        {"queries": QUERIES, "answered": answered, "expected": expected},
    )


def test_failstop_vs_degraded_availability(benchmark):
    """The tentpole trade: fail-stop loses every federation-wide query
    once any member dies; ``SET PARTIAL_RESULTS ON`` answers all of
    them from the live partitions, stamped incomplete."""

    def sweep_cell(down_count: int, partial: bool):
        engine = build_resilience_federation()
        channels = _channels(engine)
        for i in range(down_count):
            channels[MEMBERS - 1 - i].fault_injector = FaultInjector(
                down=True
            )
        if partial:
            engine.execute("SET PARTIAL_RESULTS ON")
        answered = rows_seen = partials = replans = 0
        simulated_ms = 0.0
        for __ in range(QUERIES):
            before = sum(c.stats.simulated_ms for c in channels)
            try:
                result = engine.execute("SELECT * FROM li")
                answered += 1
                rows_seen += len(result.rows)
                partials += 1 if result.is_partial else 0
                replans += result.replans
            except NetworkError:
                pass
            simulated_ms += (
                sum(c.stats.simulated_ms for c in channels) - before
            )
        total_rows = QUERIES * MEMBERS * 8
        return {
            "availability": answered / QUERIES,
            "rows_fraction": rows_seen / total_rows,
            "partial_fraction": partials / QUERIES,
            "replans": replans,
            "ms_per_query": simulated_ms / QUERIES,
        }

    cells = {}
    rows = []
    for down_count in DOWN_COUNTS:
        for mode in ("fail_stop", "partial"):
            stats = sweep_cell(down_count, partial=(mode == "partial"))
            cells[f"{down_count}_down/{mode}"] = stats
            rows.append(
                (
                    down_count,
                    mode,
                    f"{stats['availability']:.1%}",
                    f"{stats['rows_fraction']:.1%}",
                    f"{stats['partial_fraction']:.1%}",
                    stats["replans"],
                    f"{stats['ms_per_query']:.2f}ms",
                )
            )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_table(
        "E15: fail-stop vs degraded mode, federation-wide queries "
        f"({MEMBERS} members, {QUERIES} queries/cell)",
        ["down", "mode", "availability", "rows seen", "partial",
         "replans", "sim-ms/query"],
        rows,
    )
    # no failures: identical, complete answers in both modes
    assert cells["0_down/fail_stop"]["availability"] == 1.0
    assert cells["0_down/partial"]["availability"] == 1.0
    assert cells["0_down/partial"]["partial_fraction"] == 0.0
    # one member down: fail-stop loses everything that touches it
    # (every federation-wide query), degraded mode answers them all
    # from the surviving partitions
    assert cells["1_down/fail_stop"]["availability"] == 0.0
    assert cells["1_down/partial"]["availability"] == 1.0
    assert cells["1_down/partial"]["partial_fraction"] == 1.0
    expected_rows = (MEMBERS - 1) / MEMBERS
    assert cells["1_down/partial"]["rows_fraction"] == expected_rows
    # the first statement discovers the death mid-query and replans;
    # most later statements pre-prune on the open breaker, with a
    # periodic probe-due statement re-admitting (and re-degrading via
    # replan) the dead member so recovery stays possible
    assert 1 <= cells["1_down/partial"]["replans"] < QUERIES // 2
    _record("failstop_vs_degraded", cells)


def test_breaker_cuts_wasted_retry_time(benchmark):
    """An open breaker stops re-spending retry/backoff on a member
    already known unhealthy — the per-query wasted time collapses.

    A *hung* member is the expensive failure: a hard-down one is
    refused instantly and free, but every attempt against a hung one
    waits out the full timeout and then backs off before retrying.
    The amnesiac baseline (breaker state wiped before each statement)
    re-pays that in full, every time."""
    engine = build_resilience_federation()
    down_year = BASE_YEAR + MEMBERS - 1
    down_channel = engine.linked_server(f"srv{down_year}").channel
    down_channel.timeout_ms = 25.0
    down_channel.fault_injector = FaultInjector(timeout_rate=1.0)
    sweep_n = QUERIES // 2

    def wasted_ms_per_query(breaker_enabled: bool) -> float:
        engine.health.reset()
        total = 0.0
        for __ in range(sweep_n):
            if not breaker_enabled:
                # amnesiac baseline: forget the trip before every
                # statement, so each one re-pays full retry/backoff
                engine.health.reset()
            before = (
                down_channel.stats.simulated_ms
                + down_channel.stats.backoff_ms
            )
            try:
                engine.execute(f"SELECT * FROM li WHERE y = {down_year}")
            except NetworkError:
                pass
            total += (
                down_channel.stats.simulated_ms
                + down_channel.stats.backoff_ms
                - before
            )
        return total / sweep_n

    without = wasted_ms_per_query(breaker_enabled=False)
    with_breaker = wasted_ms_per_query(breaker_enabled=True)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    trips = engine.metrics.value_of("health.breaker_trips")
    fast_fails = engine.metrics.value_of("health.fast_fails")
    print_table(
        "E15: wasted retry time per query against a dead member "
        f"({sweep_n} queries)",
        ["breaker", "wasted ms/query", "trips", "fast-fails"],
        [
            ("off (amnesiac)", f"{without:.2f}ms", "-", "-"),
            ("on", f"{with_breaker:.2f}ms", int(trips), int(fast_fails)),
        ],
    )
    assert fast_fails > 0
    # "measurably reduces": at least half the wasted time disappears
    # (in practice nearly all of it, minus the periodic half-open probe)
    assert with_breaker < without * 0.5
    _record(
        "breaker_retry_savings",
        {
            "queries": sweep_n,
            "wasted_ms_per_query_no_breaker": without,
            "wasted_ms_per_query_with_breaker": with_breaker,
            "fast_fails": fast_fails,
        },
    )


def build_dml_federation(latency_ms: float = 1.0):
    """Three-member partitioned view (two remote + one local) for the
    E19 distributed-write sweep."""
    local = Engine("local")
    for name, (low, high) in (("r1", (0, 10)), ("r2", (10, 20))):
        server = ServerInstance(name)
        server.execute(
            f"CREATE TABLE p_{name} (k int NOT NULL CHECK "
            f"(k >= {low} AND k < {high}), v int)"
        )
        local.add_linked_server(
            name, server, NetworkChannel(f"ch-{name}", latency_ms)
        )
    local.execute(
        "CREATE TABLE p_loc (k int NOT NULL CHECK "
        "(k >= 20 AND k < 30), v int)"
    )
    local.execute(
        "CREATE VIEW pv AS SELECT * FROM r1.master.dbo.p_r1 "
        "UNION ALL SELECT * FROM r2.master.dbo.p_r2 "
        "UNION ALL SELECT * FROM p_loc"
    )
    local.execute("INSERT INTO pv VALUES (1, 0), (11, 0), (21, 0)")
    return local


def test_commit_availability_under_crash_injection(benchmark):
    """E19 — commit availability under 2PC crash injection.

    Multi-member UPDATEs run while a seeded :class:`TwoPCFaultPlan`
    arms a random protocol-step crash (coordinator crash points plus
    per-branch delivery faults) on a swept fraction of statements.
    Availability is the fraction of statements whose effects are
    eventually durable on every member: first-try commits plus in-doubt
    transactions that recovery re-drives to the logged decision.  After
    every statement the view must be uniform at the last committed
    marker — a torn write on any member fails the bench."""

    def sweep_cell(rate: float, seed: int = 7):
        engine = build_dml_federation()
        engine.metrics.reset()
        rng = random.Random(seed)
        first_try = in_doubt = rec_commit = rec_abort = 0
        expected = 0
        for i in range(1, DML_STATEMENTS + 1):
            if rng.random() < rate:
                plan = TwoPCFaultPlan(seed=seed * 1_000 + i)
                plan.arm_random(("r1", "r2", "local"))
                engine.dtc.crash_plan = plan
            try:
                engine.execute(f"UPDATE pv SET v = {i} WHERE v >= 0")
                first_try += 1
                expected = i
            except TransactionInDoubtError:
                in_doubt += 1
                report = engine.dtc.recover()
                # every in-doubt txn resolves to the logged decision
                assert not report.unresolved
                if report.committed:
                    rec_commit += 1
                    expected = i
                else:
                    rec_abort += 1
            finally:
                engine.dtc.crash_plan = None
            # atomicity: after resolution the view is uniform at the
            # last committed marker — no member kept a torn write
            lo = engine.execute("SELECT MIN(v) FROM pv").scalar()
            hi = engine.execute("SELECT MAX(v) FROM pv").scalar()
            assert lo == hi == expected
        assert rec_commit + rec_abort == in_doubt
        committed = first_try + rec_commit
        return {
            "statements": DML_STATEMENTS,
            "availability": committed / DML_STATEMENTS,
            "committed_first_try": first_try,
            "in_doubt": in_doubt,
            "recovered_commit": rec_commit,
            "recovered_abort": rec_abort,
            "fsyncs": engine.metrics.value_of("dtc.fsyncs"),
            "redeliveries": engine.metrics.value_of("dtc.redeliveries"),
            "recoveries": engine.metrics.value_of("dtc.recoveries"),
        }

    cells = {}
    rows = []
    for rate in CRASH_RATES:
        stats = sweep_cell(rate)
        cells[f"{rate:.2f}"] = stats
        rows.append(
            (
                f"{rate:.0%}",
                f"{stats['availability']:.1%}",
                stats["committed_first_try"],
                stats["in_doubt"],
                stats["recovered_commit"],
                stats["recovered_abort"],
                int(stats["fsyncs"]),
            )
        )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_table(
        "E19: commit availability under 2PC crash injection "
        f"(3-member PV, {DML_STATEMENTS} UPDATEs/cell)",
        ["crash rate", "availability", "1st-try", "in-doubt",
         "rec-commit", "rec-abort", "fsyncs"],
        rows,
    )
    # crash-free baseline: every commit lands first try, one forced
    # decision flush per transaction
    baseline = cells["0.00"]
    assert baseline["availability"] == 1.0
    assert baseline["in_doubt"] == 0
    assert baseline["fsyncs"] >= DML_STATEMENTS
    # full crash injection still parks + resolves rather than losing
    # statements: every in-doubt transaction recovered, and both
    # decision paths (re-driven commit, presumed abort) were exercised
    chaos = cells[f"{CRASH_RATES[-1]:.2f}"]
    assert chaos["in_doubt"] > 0
    assert chaos["recoveries"] == chaos["in_doubt"]
    total_rc = sum(c["recovered_commit"] for c in cells.values())
    total_ra = sum(c["recovered_abort"] for c in cells.values())
    assert total_rc > 0 and total_ra > 0
    _record("commit_availability_2pc", cells)


def test_retry_latency_cost(benchmark):
    """Single query under a scripted fault: latency = backoff + rerun."""
    engine = build_resilience_federation()
    channel = _channels(engine)[0]

    def one_query_with_fault():
        channel.fault_injector = FaultInjector(seed=0)
        channel.fault_injector.fail_next("transient")
        before = channel.stats.simulated_ms
        result = engine.execute(f"SELECT * FROM li WHERE y = {BASE_YEAR}")
        channel.fault_injector = None
        return len(result.rows), channel.stats.simulated_ms - before

    rows, cost_ms = benchmark(one_query_with_fault)
    assert rows == 8
    # one lost message + backoff + full re-run costs more than 2 RTTs
    assert cost_ms > 2.0
