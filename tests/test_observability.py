"""Engine-wide observability: metrics registry, query traces,
EXPLAIN ANALYZE actual-vs-estimated profiles, and DMV system views."""

import json

import pytest

from repro import (
    Engine,
    MetricsRegistry,
    NetworkChannel,
    PlanProfiler,
    QueryTrace,
    ServerInstance,
)
from repro.network import StatementLedger, bind_ledger, current_ledger
from repro.observability.views import system_view_names


# ----------------------------------------------------------------------
# fixtures: the Example 1 shape (customer+supplier remote, nation local)
# ----------------------------------------------------------------------

NATIONS = [(0, "FRANCE"), (1, "JAPAN"), (2, "PERU")]

PAPER_SQL = (
    "SELECT c.c_name FROM remote0.master.dbo.customer c, "
    "remote0.master.dbo.supplier s, nation n "
    "WHERE c.c_nationkey = n.n_nationkey "
    "AND n.n_nationkey = s.s_nationkey"
)
#: Example 1 with the customer-supplier join stated between the two
#: remote tables, so it is pushed: the cheapest plan ships one
#: RemoteQuery and joins its result to the local nation table
REMOTE_JOIN_SQL = (
    "SELECT c.c_name FROM remote0.master.dbo.customer c, "
    "remote0.master.dbo.supplier s, nation n "
    "WHERE c.c_nationkey = s.s_nationkey "
    "AND n.n_nationkey = s.s_nationkey"
)


def build_world():
    remote = ServerInstance("remote0")
    remote.execute(
        "CREATE TABLE customer (c_custkey int PRIMARY KEY, "
        "c_name varchar(30), c_nationkey int)"
    )
    remote.execute(
        "CREATE TABLE supplier (s_suppkey int PRIMARY KEY, s_nationkey int)"
    )
    for key in range(30):
        remote.execute(
            "INSERT INTO customer VALUES "
            f"({key}, 'Customer#{key}', {key % 3})"
        )
    for key in range(6):
        remote.execute(f"INSERT INTO supplier VALUES ({key}, {key % 2})")
    local = Engine("local")
    local.execute(
        "CREATE TABLE nation (n_nationkey int PRIMARY KEY, n_name varchar(25))"
    )
    for nationkey, name in NATIONS:
        local.execute(f"INSERT INTO nation VALUES ({nationkey}, '{name}')")
    channel = NetworkChannel("wan", latency_ms=1.0, mb_per_second=10.0)
    local.add_linked_server("remote0", remote, channel)
    return local, remote, channel


@pytest.fixture
def world():
    return build_world()


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry("test")
        registry.increment("queries", 2)
        registry.increment("queries")
        registry.set_gauge("depth", 7)
        registry.observe("latency_ms", 10.0)
        registry.observe("latency_ms", 30.0)
        assert registry.value_of("queries") == 3
        assert registry.value_of("depth") == 7
        histogram = registry.histogram("latency_ms")
        assert histogram.count == 2
        assert histogram.mean == 20.0
        assert histogram.minimum == 10.0
        assert histogram.maximum == 30.0

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.increment("x")
        with pytest.raises(TypeError):
            registry.set_gauge("x", 1)

    def test_snapshot_and_rows(self):
        registry = MetricsRegistry("ns")
        registry.increment("b")
        registry.increment("a", 5)
        assert registry.snapshot() == {"a": 5.0, "b": 1.0}
        rows = registry.rows()
        assert rows[0] == ("ns", "a", "counter", 5.0)
        assert len(registry) == 2

    def test_engine_maintains_statement_metrics(self, world):
        local, __, __c = world
        before = local.metrics.value_of("engine.statements")
        local.execute("SELECT n_name FROM nation")
        assert local.metrics.value_of("engine.statements") == before + 1
        assert local.metrics.histogram("engine.statement_ms").count >= 1
        assert local.metrics.value_of("executor.rows_produced") > 0


# ----------------------------------------------------------------------
# query tracing
# ----------------------------------------------------------------------

class TestQueryTrace:
    def test_tracing_off_by_default_no_events(self, world):
        local, __, __c = world
        result = local.execute(PAPER_SQL)
        assert local.tracing_enabled is False
        assert result.trace is None
        assert local.optimizer.trace is None
        assert result.context.trace is None

    def test_trace_spans_and_rule_firings(self, world):
        local, __, __c = world
        local.tracing_enabled = True
        result = local.execute(PAPER_SQL)
        trace = result.trace
        assert trace is not None
        span_names = [s.name for s in trace.spans()]
        for expected in ("parse", "bind", "optimize", "execute"):
            assert expected in span_names
        assert all(s.duration_ms >= 0.0 for s in trace.spans())
        firings = trace.rule_firings()
        assert firings, "optimizer must report rule applications"
        sample = firings[0]
        assert "rule" in sample.attrs and "phase" in sample.attrs
        assert "group" in sample.attrs

    def test_trace_network_attribution(self, world):
        local, __, __c = world
        local.tracing_enabled = True
        trace = local.execute(REMOTE_JOIN_SQL).trace
        events = trace.network_events()
        assert len(events) == 1
        event = events[0]
        assert event.attrs["server"] == "remote0"
        assert event.attrs["bytes_received"] > 0
        remote_events = [
            e for e in trace.events if e.name == "remote_query"
        ]
        assert remote_events, "remote dispatch must be traced"

    def test_trace_to_json_round_trips(self, world):
        local, __, __c = world
        local.tracing_enabled = True
        trace = local.execute(PAPER_SQL).trace
        payload = json.loads(trace.to_json())
        assert payload["statement"] == PAPER_SQL
        assert len(payload["events"]) == len(trace)


# ----------------------------------------------------------------------
# per-statement network attribution
# ----------------------------------------------------------------------

class TestNetworkAttribution:
    def test_remote_statement_attributes_traffic(self, world):
        local, __, channel = world
        result = local.execute(REMOTE_JOIN_SQL)
        assert "remote0" in result.network
        delta = result.network["remote0"]
        assert delta["bytes_sent"] > 0
        assert delta["bytes_received"] > 0
        assert delta["round_trips"] >= 1

    def test_local_statement_has_no_traffic(self, world):
        local, __, __c = world
        local.execute(PAPER_SQL)  # dirty the cumulative counters first
        result = local.execute("SELECT n_name FROM nation")
        assert result.network == {}

    def test_deltas_are_per_statement_not_cumulative(self, world):
        local, __, channel = world
        first = local.execute(PAPER_SQL).network["remote0"]
        second = local.execute(PAPER_SQL).network["remote0"]
        # cumulative channel totals keep growing, but each statement
        # sees only its own slice
        assert channel.stats.bytes_received >= (
            first["bytes_received"] + second["bytes_received"]
        )
        assert second["bytes_received"] <= channel.stats.bytes_received / 2 + 1


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE / VERBOSE
# ----------------------------------------------------------------------

class TestExplainAnalyze:
    def _text(self, result) -> str:
        return "\n".join(row[0] for row in result.rows)

    def test_plain_explain_unchanged(self, world):
        local, __, __c = world
        text = self._text(local.execute("EXPLAIN " + PAPER_SQL))
        assert "phase 0" in text
        assert "actual=" not in text

    def test_explain_analyze_actual_vs_estimated(self, world):
        local, __, __c = world
        result = local.execute("EXPLAIN ANALYZE " + PAPER_SQL)
        text = self._text(result)
        assert "actual=" in text and "est=" in text
        assert "open=" in text and "next=" in text and "close=" in text
        assert "-- network --" in text
        assert "remote0:" in text
        assert result.profile is not None
        assert len(result.profile) > 0
        # the root operator's actual row count matches the query result
        root_profile = result.profile.lookup(result.plan)
        expected_rows = len(local.execute(PAPER_SQL).rows)
        assert root_profile.actual_rows == expected_rows

    def test_explain_verbose_memo_statistics(self, world):
        local, __, __c = world
        text = self._text(local.execute("EXPLAIN VERBOSE " + PAPER_SQL))
        assert "-- memo --" in text
        assert "memo: groups=" in text
        assert "expressions=" in text
        assert "  rule " in text
        assert "phase 0" in text  # trailing phase rows stay

    def test_explain_parenthesized_options(self, world):
        local, __, __c = world
        text = self._text(
            local.execute("EXPLAIN (ANALYZE, VERBOSE) " + PAPER_SQL)
        )
        assert "actual=" in text
        assert "-- memo --" in text

    def test_explain_analyze_startup_filter_skip(self, world):
        local, __, __c = world
        result = local.execute(
            "SELECT n_name FROM nation WHERE @flag = 1",
            params={"flag": 0},
        )
        assert result.rows == []
        assert result.context.startup_filters_skipped == 1
        assert local.metrics.value_of("executor.startup_filters_skipped") >= 1

    def test_explain_analyze_with_params_marks_skipped_subtree(self, world):
        local, __, __c = world
        text = self._text(
            local.execute(
                "EXPLAIN ANALYZE SELECT n_name FROM nation WHERE @flag = 1",
                params={"flag": 0},
            )
        )
        assert "startup_skips=1" in text
        assert "[never executed]" in text

    def test_unknown_explain_option_named_in_error(self, world):
        local, __, __c = world
        from repro.errors import ParseError

        with pytest.raises(ParseError, match="FOO"):
            local.execute("EXPLAIN (FOO) SELECT n_name FROM nation")


# ----------------------------------------------------------------------
# per-operator profiling on ordinary SELECTs
# ----------------------------------------------------------------------

class TestProfiling:
    def test_profiling_disabled_by_default(self, world):
        local, __, __c = world
        result = local.execute(PAPER_SQL)
        assert result.profile is None
        assert result.context.profiler is None

    def test_profiling_enabled_collects_operator_stats(self, world):
        local, __, __c = world
        local.profiling_enabled = True
        result = local.execute(PAPER_SQL)
        profiler = result.profile
        assert isinstance(profiler, PlanProfiler)
        root = profiler.lookup(result.plan)
        assert root.actual_rows == len(result.rows)
        assert root.opens == 1
        rows = profiler.as_rows(result.plan)
        assert rows[0]["depth"] == 0
        assert all("open_ms" in entry for entry in rows)

    def test_result_to_json(self, world):
        local, __, __c = world
        local.profiling_enabled = True
        local.tracing_enabled = True
        result = local.execute(PAPER_SQL)
        payload = json.loads(result.to_json())
        assert payload["columns"] == ["c_name"]
        assert payload["rowcount"] == len(result.rows)
        assert "network" in payload
        assert "profile" in payload and "trace" in payload
        assert payload["profile"][0]["actual_rows"] == len(result.rows)


# ----------------------------------------------------------------------
# DMV-style system views
# ----------------------------------------------------------------------

class TestSystemViews:
    def test_view_names(self):
        assert system_view_names() == (
            "dm_exec_cached_plans",
            "dm_exec_connections",
            "dm_exec_query_memory_grants",
            "dm_exec_query_stats",
            "dm_exec_sessions",
            "dm_os_performance_counters",
            "dm_resource_governor_resource_pools",
            "dm_resource_governor_workload_groups",
            "dm_server_health",
            "dm_tran_active_transactions",
            "query_store_plan",
            "query_store_query",
            "query_store_regressions",
            "query_store_runtime_stats",
        )

    def test_dm_exec_connections_live_totals(self, world):
        local, __, channel = world
        local.execute(PAPER_SQL)  # generate traffic first
        result = local.execute("SELECT * FROM sys.dm_exec_connections")
        assert result.columns[:2] == ["server_name", "provider"]
        assert len(result.rows) == 1  # one row per linked server
        row = result.as_dicts()[0]
        assert row["server_name"] == "remote0"
        assert row["bytes_received"] == channel.stats.bytes_received
        assert row["round_trips"] == channel.stats.round_trips
        assert row["bytes_received"] > 0

    def test_dmv_supports_ordinary_sql(self, world):
        local, __, __c = world
        local.execute(PAPER_SQL)
        result = local.execute(
            "SELECT server_name FROM sys.dm_exec_connections c "
            "WHERE c.round_trips > 0"
        )
        assert result.rows == [("remote0",)]

    def test_dm_exec_query_stats(self, world):
        local, __, __c = world
        local.execute(PAPER_SQL)
        local.execute(PAPER_SQL)
        result = local.execute(
            "SELECT query_text, execution_count, total_bytes "
            "FROM sys.dm_exec_query_stats"
        )
        by_text = {row[0]: row for row in result.rows}
        assert PAPER_SQL in by_text
        assert by_text[PAPER_SQL][1] == 2
        assert by_text[PAPER_SQL][2] > 0

    def test_dm_os_performance_counters(self, world):
        local, __, __c = world
        local.execute(REMOTE_JOIN_SQL)
        result = local.execute(
            "SELECT counter_name, cntr_value "
            "FROM sys.dm_os_performance_counters"
        )
        counters = dict(result.rows)
        assert counters["engine.statements"] >= 1
        assert counters["executor.remote_queries"] >= 1

    def test_unknown_sys_table_still_errors(self, world):
        local, __, __c = world
        from repro.errors import BindError

        with pytest.raises(BindError):
            local.execute("SELECT * FROM sys.no_such_view")

    def test_query_stats_bounded(self):
        local = Engine("bounded")
        local.execute("CREATE TABLE t (id int)")
        local.MAX_QUERY_STATS = 10
        for i in range(25):
            local.execute(f"SELECT id FROM t WHERE id = {i}")
        assert len(local.query_stats) <= 10


# ----------------------------------------------------------------------
# hierarchical distributed spans
# ----------------------------------------------------------------------

class TestHierarchicalSpans:
    def _traced(self, world, sql=PAPER_SQL):
        local, __, __c = world
        local.tracing_enabled = True
        result = local.execute(sql)
        assert result.trace is not None
        return local, result

    def test_span_ids_and_parentage(self, world):
        __, result = self._traced(world)
        trace = result.trace
        spans = trace.spans()
        ids = [s.span_id for s in spans]
        assert len(ids) == len(set(ids))  # unique identities
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in by_id

    def test_operator_spans_mirror_plan_tree(self, world):
        __, result = self._traced(world)
        trace = result.trace
        operators = trace.spans("operator")
        labels = {s.attrs["operator"] for s in operators}
        plan_ops = set()

        def walk(node):
            plan_ops.add(type(node).__name__)
            for child in node.children:
                walk(child)

        walk(result.plan)
        assert labels == plan_ops
        # the root operator nests under the engine's execute phase span
        execute_span = next(s for s in trace.spans() if s.name == "execute")
        roots = [
            s for s in operators if s.parent_id == execute_span.span_id
        ]
        assert len(roots) == 1
        assert roots[0].attrs["operator"] == type(result.plan).__name__

    def test_remote_commands_nest_under_operators(self, world):
        __, result = self._traced(world)
        trace = result.trace
        by_id = {s.span_id: s for s in trace.spans()}
        remote = trace.remote_command_spans()
        assert remote  # the paper query ships work to remote0
        for span in remote:
            assert span.attrs["server"] == "remote0"
            parent = by_id[span.parent_id]
            assert parent.name in ("operator", "bind", "optimize")
            for attr in ("retries", "backoff_ms", "breaker_fast_fails",
                         "round_trips"):
                assert attr in span.attrs

    def test_span_network_ms_reconciles_with_result(self, world):
        __, result = self._traced(world, REMOTE_JOIN_SQL)
        trace = result.trace
        total_simulated = sum(
            d["simulated_ms"] for d in result.network.values()
        )
        # the execute phase span inclusively carries every charge made
        # while the statement ran
        execute_span = next(s for s in trace.spans() if s.name == "execute")
        assert execute_span.net_ms == pytest.approx(total_simulated)
        # each charge landed on exactly one span
        assert sum(s.self_net_ms for s in trace.spans()) == pytest.approx(
            total_simulated
        )
        # remote rowsets carry their own (non-zero) network time
        query_spans = [
            s for s in trace.remote_command_spans()
            if s.attrs["operation"].startswith("query:")
        ]
        assert query_spans
        assert sum(s.net_ms for s in query_spans) > 0
        for span in trace.spans():
            assert span.duration_ms >= 0.0

    @staticmethod
    def _parent_operator(trace, child_label):
        """The operator (or, outside the operator tree, the span name)
        that ``child_label``'s span is parented under."""
        by_id = {s.span_id: s for s in trace.spans()}
        child = next(
            s for s in trace.spans("operator")
            if s.attrs["operator"] == child_label
        )
        parent = by_id.get(child.parent_id)
        return None if parent is None else parent.attrs.get("operator", parent.name)

    @pytest.fixture
    def names(self):
        engine = Engine("local")
        engine.execute("CREATE TABLE t (id int, name varchar(20))")
        engine.execute(
            "INSERT INTO t VALUES "
            + ", ".join(f"({i}, 'n{i % 17}')" for i in range(300))
        )
        return engine

    def test_sort_span_holds_its_own_work(self, names):
        # the sort opens its child and sorts on its first pull, inside
        # its own span, so the scan it drains nests under it
        names.tracing_enabled = True
        result = names.execute("SELECT id FROM t ORDER BY name DESC, id")
        assert self._parent_operator(result.trace, "TableScan") == "PhysicalSort"

    def test_spool_span_holds_its_own_work(self, names):
        from repro.core import physical as P
        from repro.execution import ExecutionContext, execute_plan

        inner = names.execute("SELECT id, name FROM t").plan
        trace = QueryTrace("spooled")
        rows = execute_plan(P.Spool(inner), ExecutionContext(trace=trace))
        assert len(rows) == 300
        assert self._parent_operator(trace, type(inner).__name__) == "Spool"

    def test_retry_counts_reconcile_under_faults(self, world):
        from repro import FaultInjector, RetryPolicy

        local, __, channel = world
        local.execute(PAPER_SQL)  # warm metadata fault-free
        local.tracing_enabled = True
        channel.fault_injector = FaultInjector(seed=7, transient_rate=0.4)
        local.linked_server("remote0").retry_policy = RetryPolicy(
            max_attempts=12, base_backoff_ms=0.5, max_backoff_ms=4.0
        )
        result = local.execute(PAPER_SQL)
        trace = result.trace
        network_retries = sum(
            d["retries"] for d in result.network.values()
        )
        span_retries = sum(
            s.attrs["retries"] for s in trace.remote_command_spans()
        )
        assert network_retries > 0
        assert span_retries == network_retries
        span_backoff = sum(
            s.attrs["backoff_ms"] for s in trace.remote_command_spans()
        )
        total_backoff = sum(
            d["backoff_ms"] for d in result.network.values()
        )
        assert span_backoff == pytest.approx(total_backoff, abs=0.01)

    def test_breaker_fast_fail_lands_in_span(self):
        from repro.errors import CircuitOpenError

        local = Engine("local")
        remote = ServerInstance("r0")
        remote.execute("CREATE TABLE t (id int)")
        local.add_linked_server(
            "r0", remote, NetworkChannel("wan", latency_ms=1.0)
        )
        server = local.linked_server("r0")
        trace = QueryTrace("manual")
        ledger = StatementLedger(trace)
        local.health.breaker("r0").force_open()
        with bind_ledger(ledger):
            with pytest.raises(CircuitOpenError):
                server.run_with_retry(lambda: None, description="probe")
        assert current_ledger() is None
        spans = trace.remote_command_spans()
        assert len(spans) == 1
        assert spans[0].attrs["breaker_fast_fails"] == 1
        assert spans[0].attrs["round_trips"] == 0
        assert ledger.on(server.channel).breaker_fast_fails == 1

    def test_point_events_carry_current_span_id(self, world):
        __, result = self._traced(world, REMOTE_JOIN_SQL)
        trace = result.trace
        remote_events = [
            e for e in trace.events if e.name == "remote_query"
        ]
        assert remote_events
        span_ids = {s.span_id for s in trace.spans()}
        for event in remote_events:
            assert event.span_id in span_ids

    def test_explain_analyze_annotates_remote_operators(self, world):
        local, __, __c = world
        result = local.execute("EXPLAIN ANALYZE " + PAPER_SQL)
        text = "\n".join(row[0] for row in result.rows)
        assert "[remote remote0:" in text
        assert "retries=0" in text
        assert "net=" in text

    def test_tracereport_renders_span_tree(self, world):
        import json as json_mod
        import sys
        from pathlib import Path

        sys.path.insert(
            0, str(Path(__file__).resolve().parent.parent / "tools")
        )
        import tracereport

        __, result = self._traced(world)
        payload = json_mod.loads(result.to_json())
        lines = tracereport.render_payload(payload, include_events=True)
        text = "\n".join(lines)
        assert "== span tree ==" in text
        assert "remote_command -> remote0" in text
        assert "RemoteQuery" in text or "RemoteScan" in text


# ----------------------------------------------------------------------
# the operator meter: an operator's open-time work is its own
# ----------------------------------------------------------------------
POINT_READ = "SELECT c_id, c_balance FROM customer WHERE c_w_id = @w AND c_id = @c"
POINT = {"w": 2, "c": 3}  # warehouse 2 lives on fed1, as customer_1


def build_pv_world():
    from repro.workloads.tpcc import build_federation

    return build_federation(
        member_count=4,
        warehouses_per_member=1,
        customers_per_warehouse=25,
        latency_ms=2.0,
    )


def _walk(plan):
    yield plan
    for child in plan.children:
        yield from _walk(child)


class TestOperatorMeter:
    @pytest.fixture
    def fed(self):
        fed = build_pv_world()
        fed.coordinator.execute(POINT_READ, POINT)  # compile + cache
        return fed

    def test_remote_commands_nest_under_remote_query(self, fed):
        engine = fed.coordinator
        engine.tracing_enabled = True
        trace = engine.execute(POINT_READ, POINT).trace
        by_id = {s.span_id: s for s in trace.spans()}
        execute_span = trace.spans("execute")[0]

        def under_execute(span):
            while span is not None:
                if span is execute_span:
                    return True
                span = by_id.get(span.parent_id)
            return False

        commands = [
            s for s in trace.remote_command_spans() if under_execute(s)
        ]
        kinds = sorted(s.attrs["operation"].split(":")[0] for s in commands)
        # schema validation, then the pushed query
        assert kinds == ["query", "table_info"]
        for span in commands:
            parent = by_id[span.parent_id]
            assert parent.attrs.get("operator") == "RemoteQuery", (
                span.attrs["operation"], parent,
            )

    def test_member_time_is_charged_to_remote_query(self, fed, monkeypatch):
        import time

        engine = fed.coordinator
        engine.profiling_enabled = True
        for member in fed.members:
            def slow_execute(*args, _execute=member.execute, **kwargs):
                time.sleep(0.02)
                return _execute(*args, **kwargs)

            monkeypatch.setattr(member, "execute", slow_execute)
        result = engine.execute(POINT_READ, POINT)
        assert result.rows
        profiler = result.profile
        remote = [
            profiler.lookup(node) for node in _walk(result.plan)
            if type(node).__name__ == "RemoteQuery"
            and profiler.lookup(node) is not None
        ]
        assert len(remote) == 1  # startup filters skipped the others
        assert remote[0].total_ms >= 20.0
        concat = result.plan
        assert type(concat).__name__ == "Concat"
        below = sum(
            profiler.lookup(child).total_ms for child in concat.children
        )
        assert profiler.lookup(concat).total_ms - below < 20.0

    def test_explain_analyze_puts_schema_validation_on_remote_query(self, fed):
        result = fed.coordinator.execute(
            "EXPLAIN ANALYZE SELECT c_id, c_balance FROM customer "
            "WHERE c_w_id = 2 AND c_id = 3"
        )
        lines = [row[0] for row in result.rows]
        remote = [line for line in lines if "RemoteQuery(" in line]
        assert len(remote) == 1
        assert "[remote fed1: commands=2 " in remote[0]

    def test_open_time_error_surfaces_the_same_observed_or_not(self):
        from repro.errors import SchemaValidationError
        from repro.testcheck.oracle import quiesce_leaks

        def stale_plan_failure(observed):
            fed = build_pv_world()
            engine = fed.coordinator
            engine.execute(POINT_READ, POINT)  # compile + cache
            engine.tracing_enabled = observed
            engine.profiling_enabled = observed
            cached = {entry.key for entry in engine.plan_cache.entries()}
            member_table = fed.members[1].catalog.database().table("customer_1")
            member_table.schema_version += 1  # a member-side ALTER
            with pytest.raises(SchemaValidationError) as caught:
                engine.execute(POINT_READ, POINT)
            dropped = cached - {e.key for e in engine.plan_cache.entries()}
            engines = {"coordinator": engine}
            engines.update((member.name, member) for member in fed.members)
            assert quiesce_leaks(engines) == []
            return (
                type(caught.value),
                str(caught.value),
                dropped,
                dict(engine.plan_cache.invalidations_by_reason),
            )

        plain = stale_plan_failure(False)
        assert plain[2]  # the stale plan did not outlive the error
        assert stale_plan_failure(True) == plain
