"""Tests for the phased Cascades optimizer (Section 4.1)."""

import random

import pytest

from repro import Engine, NetworkChannel, OptimizerOptions, ServerInstance
from repro.core import physical as P
from repro.workloads import load_tpch


@pytest.fixture
def engine():
    e = Engine("local")
    e.execute("CREATE TABLE t (id int PRIMARY KEY, grp int, v float)")
    for i in range(200):
        e.execute(f"INSERT INTO t VALUES ({i}, {i % 10}, {i * 1.0})")
    e.execute("CREATE INDEX ix_grp ON t (grp)")
    return e


def plan_ops(plan, op_type):
    return [node for node in plan.walk() if isinstance(node, op_type)]


class TestLocalPlans:
    def test_point_query_uses_unique_index(self, engine):
        result = engine.plan("SELECT v FROM t WHERE id = 5")
        assert plan_ops(result.plan, P.IndexRange)

    def test_unselective_predicate_scans(self, engine):
        result = engine.plan("SELECT v FROM t WHERE v >= 0")
        assert plan_ops(result.plan, P.TableScan)

    def test_secondary_index_for_selective_group(self, engine):
        result = engine.plan("SELECT v FROM t WHERE grp = 3")
        kinds = plan_ops(result.plan, P.IndexRange)
        assert kinds and kinds[0].index_name == "ix_grp"

    def test_order_by_satisfied_by_index(self, engine):
        result = engine.plan("SELECT id FROM t ORDER BY id")
        # the unique index provides the order: no explicit sort needed
        assert not plan_ops(result.plan, P.PhysicalSort)

    def test_order_by_desc_requires_sort(self, engine):
        result = engine.plan("SELECT id FROM t ORDER BY id DESC")
        assert plan_ops(result.plan, P.PhysicalSort)

    def test_equi_join_prefers_hash(self, engine):
        engine.execute("CREATE TABLE g (grp int, label varchar(10))")
        for i in range(10):
            engine.execute(f"INSERT INTO g VALUES ({i}, 'g{i}')")
        result = engine.plan(
            "SELECT t.v, g.label FROM t, g WHERE t.grp = g.grp"
        )
        assert plan_ops(result.plan, P.HashJoin) or plan_ops(
            result.plan, P.MergeJoin
        )

    def test_aggregate_plan(self, engine):
        result = engine.plan(
            "SELECT grp, COUNT(*) FROM t GROUP BY grp"
        )
        assert plan_ops(result.plan, (P.HashAggregate, P.StreamAggregate))


class TestOrderedImplementations:
    """A required order is a parameter of each operator's one
    implementation, so an ordered Select costs its filter as an
    unordered one does."""

    @pytest.fixture
    def docs(self):
        e = Engine("local")
        e.execute("CREATE TABLE docs (id int PRIMARY KEY, body varchar(200))")
        words = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta",
                 "eta", "theta")
        rng = random.Random(29)
        table = e.catalog.database().table("docs")
        for i in range(2000):
            table.insert((i, " ".join(rng.choice(words) for __ in range(12))))
        e.create_fulltext_index("docs", "id", "body")
        return e

    def test_contains_under_order_by_keeps_the_fulltext_join(self, docs):
        sql = "SELECT id FROM docs WHERE CONTAINS(body, 'alpha')"
        plan = docs.plan(sql + " ORDER BY id").plan
        # the sort enforcer over the full-text semi-join, not a per-row
        # CONTAINS filter over an ordered index scan
        [sort] = plan_ops(plan, P.PhysicalSort)
        assert isinstance(sort.child, P.HashJoin) and sort.child.kind == "semi"
        assert plan_ops(plan, P.FullTextKeyLookup)
        assert not plan_ops(plan, P.Filter)
        ordered = docs.execute(sql + " ORDER BY id").rows
        assert ordered == sorted(docs.execute(sql).rows)


class TestPhases:
    def test_cheap_query_exits_early(self, engine):
        result = engine.plan("SELECT v FROM t WHERE id = 5")
        assert result.final_phase < 2

    def test_complex_query_reaches_full_optimization(self, engine):
        engine.execute("CREATE TABLE a (x int)")
        engine.execute("CREATE TABLE b (x int)")
        engine.execute("CREATE TABLE c (x int)")
        for table in "abc":
            t = engine.catalog.database().table(table)
            for i in range(2000):
                t.insert((i,))
        result = engine.plan(
            "SELECT a.x FROM a, b, c WHERE a.x = b.x AND b.x = c.x"
        )
        assert result.final_phase == 2

    def test_costs_monotonically_improve(self, engine):
        engine.execute("CREATE TABLE a (x int)")
        engine.execute("CREATE TABLE b (x int)")
        for table in "ab":
            for i in range(50):
                engine.execute(f"INSERT INTO {table} VALUES ({i})")
        result = engine.plan(
            "SELECT a.x FROM a, b, t WHERE a.x = b.x AND b.x = t.id"
        )
        costs = [ps.best_cost for ps in result.phase_stats]
        assert costs == sorted(costs, reverse=True)

    def test_max_phase_option(self, engine):
        engine.optimizer.options.max_phase = 0
        result = engine.plan("SELECT v FROM t WHERE grp = 3")
        assert result.final_phase == 0


class TestRemotePlans:
    @pytest.fixture
    def dist(self):
        local = Engine("local")
        remote = ServerInstance("r1")
        data = load_tpch(
            remote, customers=300, suppliers=30,
            tables=["customer", "supplier"],
        )
        load_tpch(local, data=data, tables=["nation", "region"])
        local.add_linked_server(
            "r1", remote, NetworkChannel("wan", latency_ms=2, mb_per_second=10)
        )
        return local, remote

    FIG4_SQL = (
        "SELECT c.c_name, c.c_address, c.c_phone "
        "FROM r1.master.dbo.customer c, r1.master.dbo.supplier s, nation n "
        "WHERE c.c_nationkey = n.n_nationkey AND n.n_nationkey = s.s_nationkey"
    )

    def test_figure4_chooses_local_join_order(self, dist):
        """The paper's headline plan choice: plan (b) over plan (a)."""
        local, __ = dist
        result = local.plan(self.FIG4_SQL)
        remote_queries = plan_ops(result.plan, P.RemoteQuery)
        # plan (a) would push the customer x supplier join as one query;
        # plan (b) moves base tables (or probes) separately
        for rq in remote_queries:
            assert not (
                "customer" in rq.sql_text and "supplier" in rq.sql_text
            ), f"optimizer pushed customer JOIN supplier remote: {rq.sql_text}"

    def test_figure4_crossover_with_selective_filter(self, dist):
        """With a highly selective nation filter, probing remotely per
        nation (parameterized) beats shipping whole tables."""
        local, __ = dist
        sql = self.FIG4_SQL + " AND n.n_name = 'JAPAN'"
        result = local.plan(sql)
        assert plan_ops(result.plan, (P.ParameterizedRemoteJoin, P.RemoteQuery))

    def test_remote_single_table_filter_pushed(self, dist):
        local, remote = dist
        result = local.plan(
            "SELECT c.c_name FROM r1.master.dbo.customer c "
            "WHERE c.c_acctbal > 9000"
        )
        remote_queries = plan_ops(result.plan, P.RemoteQuery)
        assert remote_queries
        assert "WHERE" in remote_queries[0].sql_text

    def test_disabling_remote_query_forces_scans(self, dist):
        local, __ = dist
        local.optimizer.options.enable_remote_query = False
        local.optimizer.options.enable_parameterization = False
        result = local.plan(
            "SELECT c.c_name FROM r1.master.dbo.customer c "
            "WHERE c.c_acctbal > 9000"
        )
        assert not plan_ops(result.plan, P.RemoteQuery)
        assert plan_ops(result.plan, P.RemoteScan)

    def test_results_identical_across_ablations(self, dist):
        """Metamorphic check: optimizer options change plans, never
        answers."""
        local, __ = dist
        sql = self.FIG4_SQL + " AND n.n_name = 'FRANCE'"
        baseline = sorted(local.execute(sql).rows)
        for flag in (
            "enable_remote_query",
            "enable_locality_grouping",
            "enable_parameterization",
            "enable_predicate_split",
            "enable_spool",
        ):
            options = OptimizerOptions()
            setattr(options, flag, False)
            local.optimizer.options = options
            assert sorted(local.execute(sql).rows) == baseline, flag
        local.optimizer.options = OptimizerOptions()

    def test_spool_used_for_rescanned_remote(self, dist):
        local, __ = dist
        local.optimizer.options.enable_remote_query = False
        local.optimizer.options.enable_parameterization = False
        result = local.plan(
            "SELECT n.n_name FROM nation n, r1.master.dbo.supplier s "
            "WHERE n.n_regionkey > s.s_suppkey"
        )
        # non-equi join over remote inner: NL join should spool the inner
        nls = plan_ops(result.plan, P.NLJoin)
        if nls:
            assert plan_ops(result.plan, P.Spool)


    def test_decoder_crash_during_predicate_split_propagates(
        self, remote_pair, monkeypatch
    ):
        """Only a DecoderError means "keep this conjunct local"; any
        other decoder exception is a bug and must not be masked as a
        worse plan with a right answer."""
        from repro.core.decoder import Decoder

        local, __, ___ = remote_pair
        original, calls = Decoder._expr, []

        def first_call_breaks(self, expr, column_sql):
            calls.append(expr)
            if len(calls) == 1:  # the predicate-split probe
                raise KeyError("decoder bug")
            return original(self, expr, column_sql)

        monkeypatch.setattr(Decoder, "_expr", first_call_breaks)
        with pytest.raises(KeyError, match="decoder bug"):
            local.execute(
                "SELECT item_id FROM remote0.master.dbo.items WHERE price > 2"
            )


class TestSearchTelemetry:
    def test_memo_counters(self, engine):
        result = engine.plan("SELECT v FROM t WHERE grp = 3")
        assert result.memo.group_count >= 2
        assert result.memo.expression_count >= result.memo.group_count

    def test_phase_stats_recorded(self, engine):
        result = engine.plan("SELECT v FROM t WHERE grp = 3")
        assert result.phase_stats
        assert all(ps.best_cost < float("inf") for ps in result.phase_stats)

    def test_memo_dump_readable(self, engine):
        result = engine.plan("SELECT v FROM t")
        dump = result.memo.dump()
        assert "group g0" in dump
