"""Query Store: text normalization, plan fingerprints, runtime history,
regression detection, plan forcing, and the ``sys.query_store_*`` DMVs
(plus the satellite DMV upgrades that shipped with them)."""

import pytest

from repro import Engine, FaultInjector, NetworkChannel, ServerInstance
from repro.core.physical import plan_fingerprint, plan_shape
from repro.observability.querystore import (
    QueryStore,
    RuntimeStats,
    normalize_query_text,
    query_hash,
)
from repro.testcheck import worlds

pytestmark = pytest.mark.integration


# ----------------------------------------------------------------------
# fixtures: one remote server with a byte-heavy table (pushdown vs
# fetch-and-filter is a large, deterministic latency difference)
# ----------------------------------------------------------------------

PUSHDOWN_SQL = (
    "SELECT COUNT(*) FROM remote0.master.dbo.orders WHERE o_status = 'O'"
)


def build_orders_world(mb_per_second: float = 0.2):
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
    local.execute(PUSHDOWN_SQL)  # warm metadata before the store watches
    return local, remote, channel


@pytest.fixture
def orders_world():
    return build_orders_world()


def seed_regression(local, runs: int = 3):
    """Execute under pushdown, then ablate the remote rules: the plan
    flips to fetch-and-filter and gets slower on the simulated link."""
    local.query_store_enabled = True
    for __ in range(runs):
        baseline = local.execute(PUSHDOWN_SQL)
    local.optimizer.options.enable_remote_query = False
    for __ in range(runs):
        regressed = local.execute(PUSHDOWN_SQL)
    assert regressed.rows == baseline.rows  # semantics must survive
    return baseline.rows


# ----------------------------------------------------------------------
# query text normalization
# ----------------------------------------------------------------------

class TestNormalization:
    def test_whitespace_and_case_fold(self):
        a = "SELECT  id\n  FROM   T WHERE x = 1"
        b = "select id from t where x = 1"
        assert normalize_query_text(a) == normalize_query_text(b)
        assert query_hash(a) == query_hash(b)

    def test_string_literals_preserved_verbatim(self):
        a = "SELECT * FROM t WHERE name = 'Alice'"
        b = "SELECT * FROM t WHERE name = 'ALICE'"
        assert normalize_query_text(a) != normalize_query_text(b)
        assert query_hash(a) != query_hash(b)
        assert "'Alice'" in normalize_query_text(a)

    def test_escaped_quote_inside_literal(self):
        sql = "SELECT * FROM t WHERE name = 'O''Brien'  AND x   = 2"
        normalized = normalize_query_text(sql)
        assert "'O''Brien'" in normalized
        assert "  " not in normalized

    def test_different_literals_are_different_queries(self):
        assert query_hash("SELECT * FROM t WHERE s = 'a'") != (
            query_hash("SELECT * FROM t WHERE s = 'b'")
        )


# ----------------------------------------------------------------------
# plan fingerprints
# ----------------------------------------------------------------------

class TestFingerprints:
    def test_recompiling_same_strategy_is_same_fingerprint(
        self, orders_world
    ):
        local, __, __c = orders_world
        first = local.plan(PUSHDOWN_SQL).plan
        second = local.plan(PUSHDOWN_SQL).plan
        # fresh column ids are minted per compile; the fingerprint must
        # not see them
        assert plan_fingerprint(first) == plan_fingerprint(second)

    def test_plan_flip_changes_fingerprint(self, orders_world):
        local, __, __c = orders_world
        pushdown = local.plan(PUSHDOWN_SQL).plan
        local.optimizer.options.enable_remote_query = False
        fetched = local.plan(PUSHDOWN_SQL).plan
        assert plan_fingerprint(pushdown) != plan_fingerprint(fetched)
        assert plan_shape(pushdown) != plan_shape(fetched)

    def test_shape_names_remote_objects(self, orders_world):
        local, __, __c = orders_world
        shape = plan_shape(local.plan(PUSHDOWN_SQL).plan)
        assert "RemoteQuery" in shape
        assert "remote0" in shape


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------

class TestRecording:
    def test_disabled_by_default(self, orders_world):
        local, __, __c = orders_world
        local.execute(PUSHDOWN_SQL)
        assert len(local.query_store) == 0

    def test_per_plan_interval_aggregation(self, orders_world):
        local, __, __c = orders_world
        local.query_store_enabled = True
        for __ in range(3):
            local.execute(PUSHDOWN_SQL)
        entry = local.query_store.lookup(PUSHDOWN_SQL)
        assert entry is not None
        assert entry.execution_count == 3
        assert len(entry.plans) == 1
        fingerprint = entry.active_fingerprint
        stats = entry.stats[fingerprint]
        assert stats.execution_count == 3
        assert stats.total_rows == 3  # one COUNT(*) row per execution
        assert stats.total_round_trips > 0
        assert stats.total_bytes > 0
        assert stats.total_simulated_ms > 0
        assert stats.min_latency_ms <= stats.max_latency_ms
        assert stats.recent_mean_latency_ms > 0

    def test_active_fingerprint_transition(self, orders_world):
        local, __, __c = orders_world
        seed_regression(local)
        entry = local.query_store.lookup(PUSHDOWN_SQL)
        assert len(entry.plans) == 2
        assert entry.previous_fingerprint is not None
        assert entry.active_fingerprint != entry.previous_fingerprint

    def test_normalized_variants_share_one_entry(self, orders_world):
        local, __, __c = orders_world
        local.query_store_enabled = True
        local.execute(PUSHDOWN_SQL)
        variant = (
            "select  count(*)\nFROM remote0.master.dbo.orders "
            "WHERE  o_status = 'O'"
        )
        local.execute(variant)
        assert len(local.query_store) == 1

    def test_store_bounded(self):
        local = Engine("bounded")
        local.execute("CREATE TABLE t (id int)")
        local.query_store_enabled = True
        local.query_store.MAX_QUERIES = 5
        for i in range(12):
            local.execute(f"SELECT id FROM t WHERE id = {i}")
        assert len(local.query_store) <= 5


LATE_SQL = "SELECT 'recorded mid-iteration'"


def _record_late_on_first_call(monkeypatch, attribute, store, late):
    """Make the first use of ``RuntimeStats.<attribute>`` — which the
    store reaches from inside its loop over queries — record one new
    query, as a concurrent session's statement would."""
    original = getattr(RuntimeStats, attribute)
    entry = store.queries()[0]
    plan = entry.plans[entry.active_fingerprint].plan

    def late_record():
        if not late:
            late.append(store.record(LATE_SQL, plan, 0, 0.0, {}))

    if isinstance(original, property):
        def reading(stats):
            late_record()
            return original.fget(stats)

        monkeypatch.setattr(RuntimeStats, attribute, property(reading))
    else:
        def calling(stats, *args):
            late_record()
            return original(stats, *args)

        monkeypatch.setattr(RuntimeStats, attribute, calling)


# ----------------------------------------------------------------------
# regression detection + plan forcing (the tentpole end-to-end)
# ----------------------------------------------------------------------

class TestRegressionDetection:
    def test_seeded_regression_is_detected(self, orders_world):
        local, __, __c = orders_world
        seed_regression(local)
        regressions = local.query_store.regressed_queries()
        assert len(regressions) == 1
        reg = regressions[0]
        assert reg.query_hash == query_hash(PUSHDOWN_SQL)
        assert reg.prior_fingerprint != reg.active_fingerprint
        assert reg.active_mean_latency_ms > reg.prior_mean_latency_ms
        assert reg.ratio > local.query_store.REGRESSION_THRESHOLD

    def test_faster_plan_change_is_not_a_regression(self, orders_world):
        local, __, __c = orders_world
        local.query_store_enabled = True
        # run the slow plan first, then the fast one: a *improvement*
        local.optimizer.options.enable_remote_query = False
        for __ in range(3):
            local.execute(PUSHDOWN_SQL)
        local.optimizer.options.enable_remote_query = True
        for __ in range(3):
            local.execute(PUSHDOWN_SQL)
        assert local.query_store.regressed_queries() == []

    def test_min_executions_guard(self, orders_world):
        local, __, __c = orders_world
        local.query_store_enabled = True
        local.execute(PUSHDOWN_SQL)
        local.optimizer.options.enable_remote_query = False
        local.execute(PUSHDOWN_SQL)
        # one execution per plan: not enough evidence
        assert local.query_store.regressed_queries(min_executions=2) == []

    def test_regressed_queries_iterates_a_snapshot(
        self, orders_world, monkeypatch
    ):
        # another session records a new query while this one looks
        # for regressions
        local, __, __c = orders_world
        seed_regression(local)
        store = local.query_store
        late = []
        _record_late_on_first_call(
            monkeypatch, "recent_mean_latency_ms", store, late
        )
        assert len(store.regressed_queries()) == 1
        assert late and store.lookup(LATE_SQL) is not None

    def test_as_dict_iterates_a_snapshot(self, orders_world, monkeypatch):
        local, __, __c = orders_world
        seed_regression(local)
        store = local.query_store
        late = []
        _record_late_on_first_call(monkeypatch, "as_dict", store, late)
        dumped = store.as_dict()["query_store"]
        assert [q["query_text"] for q in dumped["queries"]] == [PUSHDOWN_SQL]
        assert late and store.lookup(LATE_SQL) is not None

    def test_force_plan_restores_pushdown(self, orders_world):
        local, __, __c = orders_world
        baseline_rows = seed_regression(local)
        reg = local.query_store.regressed_queries()[0]
        local.force_plan(reg.query_hash, reg.prior_fingerprint)
        # the remote rules are STILL ablated: only the pinned plan can
        # bring the pushdown strategy back
        result = local.execute(PUSHDOWN_SQL)
        assert result.rows == baseline_rows
        entry = local.query_store.lookup(PUSHDOWN_SQL)
        assert entry.active_fingerprint == reg.prior_fingerprint
        assert entry.forced_fingerprint == reg.prior_fingerprint

    def test_unforce_returns_to_search(self, orders_world):
        local, __, __c = orders_world
        seed_regression(local)
        reg = local.query_store.regressed_queries()[0]
        local.force_plan(reg.query_hash, reg.prior_fingerprint)
        local.execute(PUSHDOWN_SQL)
        local.unforce_plan(reg.query_hash)
        local.execute(PUSHDOWN_SQL)
        entry = local.query_store.lookup(PUSHDOWN_SQL)
        # with rules still ablated, search re-derives the fetch plan
        assert entry.active_fingerprint == reg.active_fingerprint

    def test_force_unknown_fingerprint_raises(self, orders_world):
        local, __, __c = orders_world
        local.query_store_enabled = True
        local.execute(PUSHDOWN_SQL)
        qhash = query_hash(PUSHDOWN_SQL)
        with pytest.raises(KeyError):
            local.force_plan(qhash, "ffffffff")
        with pytest.raises(KeyError):
            local.force_plan("00000000", "ffffffff")

    def test_forced_plan_ignored_for_different_literal(self, orders_world):
        local, __, __c = orders_world
        local.query_store_enabled = True
        for __ in range(2):
            local.execute(PUSHDOWN_SQL)
        entry = local.query_store.lookup(PUSHDOWN_SQL)
        local.force_plan(entry.query_hash, entry.active_fingerprint)
        other = PUSHDOWN_SQL.replace("'O'", "'F'")
        assert local.query_store.forced_plan_for(other) is None
        result = local.execute(other)  # must plan + answer on its own
        assert result.scalar() == 100

    def test_forcing_traces_plan_forced_event(self, orders_world):
        local, __, __c = orders_world
        seed_regression(local)
        reg = local.query_store.regressed_queries()[0]
        local.force_plan(reg.query_hash, reg.prior_fingerprint)
        local.tracing_enabled = True
        result = local.execute(PUSHDOWN_SQL)
        forced_events = [
            e for e in result.trace.events if e.name == "plan_forced"
        ]
        assert len(forced_events) == 1
        assert forced_events[0].attrs["fingerprint"] == (
            reg.prior_fingerprint
        )


# ----------------------------------------------------------------------
# the sys.query_store_* DMVs
# ----------------------------------------------------------------------

class TestQueryStoreViews:
    def test_query_and_plan_views(self, orders_world):
        local, __, __c = orders_world
        seed_regression(local)
        local.query_store_enabled = False
        queries = local.execute(
            "SELECT query_hash, execution_count, plan_count, "
            "active_plan_fingerprint FROM sys.query_store_query"
        )
        assert len(queries.rows) == 1
        qhash, executions, plan_count, active = queries.rows[0]
        assert qhash == query_hash(PUSHDOWN_SQL)
        assert executions == 6
        assert plan_count == 2

        plans = local.execute(
            "SELECT plan_fingerprint, is_active, is_forced "
            "FROM sys.query_store_plan"
        )
        assert len(plans.rows) == 2
        active_flags = {row[0]: row[1] for row in plans.rows}
        assert active_flags[active] == 1
        assert sum(active_flags.values()) == 1
        assert all(row[2] == 0 for row in plans.rows)  # nothing forced

    def test_runtime_stats_view(self, orders_world):
        local, __, __c = orders_world
        seed_regression(local)
        local.query_store_enabled = False
        stats = local.execute(
            "SELECT plan_fingerprint, execution_count, "
            "mean_latency_ms, total_round_trips, total_bytes "
            "FROM sys.query_store_runtime_stats"
        )
        assert len(stats.rows) == 2
        for __fp, executions, mean_ms, trips, nbytes in stats.rows:
            assert executions == 3
            assert mean_ms > 0
            assert trips > 0
            assert nbytes > 0

    def test_regressions_view_reports_the_flip(self, orders_world):
        local, __, __c = orders_world
        seed_regression(local)
        local.query_store_enabled = False
        result = local.execute(
            "SELECT query_hash, prior_plan_fingerprint, "
            "active_plan_fingerprint, prior_mean_latency_ms, "
            "active_mean_latency_ms, regression_ratio "
            "FROM sys.query_store_regressions"
        )
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row[0] == query_hash(PUSHDOWN_SQL)
        assert row[1] != row[2]
        assert row[4] > row[3]
        assert row[5] > 1.5

    def test_views_queryable_with_filters_and_joins(self, orders_world):
        local, __, __c = orders_world
        seed_regression(local)
        local.query_store_enabled = False
        result = local.execute(
            "SELECT q.query_text, s.mean_latency_ms "
            "FROM sys.query_store_query q, "
            "sys.query_store_runtime_stats s "
            "WHERE q.query_id = s.query_id "
            "AND s.plan_fingerprint = q.active_plan_fingerprint"
        )
        assert len(result.rows) == 1
        assert "count(*)" in result.rows[0][0].lower()

    def test_runtime_stats_after_mid_query_replan(self):
        local, __channels = worlds.build_pruning_world()
        local.execute("SELECT * FROM lineitem")  # warm metadata
        local.query_store_enabled = True
        local.execute("SET PARTIAL_RESULTS ON")
        local.linked_server("srv1993").channel.fault_injector = (
            FaultInjector(down=True)
        )
        result = local.execute("SELECT * FROM lineitem")
        assert result.replans == 1
        assert result.is_partial
        local.query_store_enabled = False
        stats = local.execute(
            "SELECT total_replans, partial_count, execution_count "
            "FROM sys.query_store_runtime_stats"
        )
        by_plan = [row for row in stats.rows if row[0] > 0]
        assert len(by_plan) == 1
        assert by_plan[0][1] == 1  # the degraded answer was partial


# ----------------------------------------------------------------------
# no observer effect
# ----------------------------------------------------------------------

class TestObserverEffect:
    def test_traced_oracle_agrees_with_reference(self):
        """The diffcheck matrix now includes a fully-traced
        configuration; a short seeded run must stay mismatch-free."""
        from repro.testcheck.oracle import CONFIGS, DifferentialRunner

        assert "traced" in CONFIGS
        report = DifferentialRunner(
            seed=20260808, collect_explains=False
        ).run(8)
        assert report.ok, report.describe()

    def test_tracing_and_store_do_not_change_rows(self, orders_world):
        local, __, __c = orders_world
        plain = local.execute(PUSHDOWN_SQL)
        local.tracing_enabled = True
        local.query_store_enabled = True
        observed = local.execute(PUSHDOWN_SQL)
        assert observed.rows == plain.rows
        assert observed.trace is not None
        local.tracing_enabled = False
        local.query_store_enabled = False
        after = local.execute(PUSHDOWN_SQL)
        assert after.rows == plain.rows
        assert after.trace is None


# ----------------------------------------------------------------------
# satellite DMV upgrades
# ----------------------------------------------------------------------

class TestSatelliteDmvUpgrades:
    def test_query_stats_min_max_elapsed(self, orders_world):
        local, __, __c = orders_world
        for __ in range(3):
            local.execute(PUSHDOWN_SQL)
        result = local.execute(
            "SELECT min_elapsed_ms, max_elapsed_ms, last_elapsed_ms "
            "FROM sys.dm_exec_query_stats WHERE query_text = "
            f"'{PUSHDOWN_SQL.replace(chr(39), chr(39) * 2)}'"
        )
        assert len(result.rows) == 1
        minimum, maximum, last = result.rows[0]
        assert 0 < minimum <= maximum
        assert minimum <= last <= maximum

    def test_connections_row_for_channelless_provider(self):
        local = Engine("local")
        remote = ServerInstance("r0")
        remote.execute("CREATE TABLE t (id int)")
        local.add_linked_server(
            "r0", remote, NetworkChannel("wan", latency_ms=1.0)
        )
        local.linked_server("r0").datasource.channel = None
        result = local.execute("SELECT * FROM sys.dm_exec_connections")
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row[0] == "r0"
        # type-consistent zeros: floats for float columns, ints for
        # counter columns
        assert row[2:] == (0.0, 0.0, 0, 0, 0, 0.0)
        assert isinstance(row[2], float) and isinstance(row[4], int)

    def test_performance_counter_percentile_rows(self, orders_world):
        local, __, __c = orders_world
        for value in (2.0, 4.0, 6.0, 8.0, 100.0):
            local.metrics.observe("test.latency_ms", value)
        result = local.execute(
            "SELECT counter_name, counter_type, cntr_value "
            "FROM sys.dm_os_performance_counters "
            "WHERE counter_name = 'test.latency_ms.p50'"
        )
        assert len(result.rows) == 1
        assert result.rows[0][1] == "histogram_percentile"
        assert result.rows[0][2] == 6.0
        p99 = local.execute(
            "SELECT cntr_value FROM sys.dm_os_performance_counters "
            "WHERE counter_name = 'test.latency_ms.p99'"
        ).scalar()
        assert 8.0 < p99 <= 100.0
        # the plain row (the mean) is still there for old consumers
        mean = local.execute(
            "SELECT cntr_value FROM sys.dm_os_performance_counters "
            "WHERE counter_name = 'test.latency_ms'"
        ).scalar()
        assert mean == pytest.approx(24.0)

    def test_histogram_percentile_unit(self):
        from repro.observability.metrics import Histogram

        h = Histogram("x")
        assert h.percentile(50) == 0.0
        h.observe(10.0)
        assert h.percentile(99) == 10.0
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50) == pytest.approx(50.5, abs=1.0)
        assert h.percentile(95) == pytest.approx(95.0, abs=1.5)
