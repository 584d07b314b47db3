"""Tests for execution operators, exercised through engine plans and
directly where the operator has subtle semantics."""

import datetime as dt

import pytest

from repro import Engine, NetworkChannel, ServerInstance
from repro.core import physical as P
from repro.execution import ExecutionContext, execute_plan, open_plan


@pytest.fixture
def engine():
    e = Engine("local")
    e.execute("CREATE TABLE l (k int, lv varchar(10))")
    e.execute("CREATE TABLE r (k int, rv varchar(10))")
    e.execute(
        "INSERT INTO l VALUES (1, 'l1'), (2, 'l2'), (NULL, 'lnull'), (2, 'l2b')"
    )
    e.execute("INSERT INTO r VALUES (2, 'r2'), (3, 'r3'), (NULL, 'rnull')")
    return e


class TestJoinSemantics:
    def test_inner_join_null_keys_drop(self, engine):
        r = engine.execute(
            "SELECT l.lv, r.rv FROM l, r WHERE l.k = r.k"
        )
        assert sorted(r.rows) == [("l2", "r2"), ("l2b", "r2")]

    def test_left_outer_null_padding(self, engine):
        r = engine.execute(
            "SELECT l.lv, r.rv FROM l LEFT OUTER JOIN r ON l.k = r.k"
        )
        by_lv = {}
        for lv, rv in r.rows:
            by_lv.setdefault(lv, []).append(rv)
        assert by_lv["l1"] == [None]
        assert by_lv["lnull"] == [None]
        assert by_lv["l2"] == ["r2"]

    def test_semi_join_no_duplicates(self, engine):
        engine.execute("INSERT INTO r VALUES (2, 'r2again')")
        r = engine.execute(
            "SELECT l.lv FROM l WHERE EXISTS "
            "(SELECT * FROM r WHERE r.k = l.k)"
        )
        # each qualifying l row once, despite two matching r rows
        assert sorted(r.rows) == [("l2",), ("l2b",)]

    def test_anti_join_null_left_key_kept(self, engine):
        r = engine.execute(
            "SELECT l.lv FROM l WHERE NOT EXISTS "
            "(SELECT * FROM r WHERE r.k = l.k)"
        )
        # NULL = anything is UNKNOWN: the lnull row survives NOT EXISTS
        assert sorted(r.rows) == [("l1",), ("lnull",)]

    def test_merge_join_agrees_with_hash_join(self, engine):
        baseline = sorted(
            engine.execute(
                "SELECT l.lv, r.rv FROM l, r WHERE l.k = r.k"
            ).rows
        )
        # force merge join by disabling hash-friendly alternatives is
        # not directly possible; instead execute a MergeJoin manually
        from repro.core.optimizer import Optimizer
        from repro.sql.binder import Binder
        from repro.sql.parser import parse_sql
        from repro.core.rules.normalization import normalize
        from repro.core.memo import Memo

        bound = Binder(engine).bind_select(
            parse_sql("SELECT l.lv, r.rv FROM l, r WHERE l.k = r.k")
        )
        optimizer = engine.optimizer
        optimizer.phase = 2

        class _Stats:
            rules_fired = 0
            expressions_added = 0
            groups_optimized = 0
            best_cost = 0.0

        optimizer._stats = _Stats()
        memo = Memo()
        root_group = memo.insert_tree(normalize(bound.root))
        # find the join group and take a MergeJoin alternative
        from repro.algebra.logical import Join as LJoin

        join_group = next(
            g
            for g in memo.groups
            for e in g.expressions
            if isinstance(e.op, LJoin)
        )
        expr = next(
            e for e in join_group.expressions if isinstance(e.op, LJoin)
        )
        alternatives = optimizer._implement_join(
            expr.op, expr, join_group.properties
        )
        merge = [a for a in alternatives if isinstance(a, P.MergeJoin)]
        assert merge, "expected a merge join alternative in phase 2"
        rows = execute_plan(merge[0], ExecutionContext())
        lv_ordinal = list(merge[0].output_ids()).index(
            join_group.properties.output_ids[1]
        )
        assert len(rows) == len(baseline)


class TestSubquerySemantics:
    """WHERE and CASE subqueries under NULLs.  The differential
    harness's reference runs the same binder, so the expected rows here
    are worked out by hand from SQL's three-valued logic."""

    @pytest.fixture(params=["local", "linked"])
    def tu(self, request):
        """``t`` local; ``u`` local or behind a linked server."""
        e = Engine("local")
        e.execute("CREATE TABLE t (id int, v int)")
        e.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, NULL)")
        host = e
        if request.param == "linked":
            host = ServerInstance("r0")
            e.add_linked_server("r0", host, NetworkChannel("wan", latency_ms=1))
        host.execute("CREATE TABLE u (id int, w int)")
        host.execute("INSERT INTO u VALUES (1, 10), (2, NULL)")
        host.execute("CREATE TABLE empty (id int, w int)")
        prefix = "r0.master.dbo." if request.param == "linked" else ""
        return e, prefix

    @pytest.mark.parametrize(
        "where, expected",
        [
            # a NULL in the subquery makes NOT IN unknown for every v
            ("v NOT IN (SELECT w FROM {p}u)", []),
            # without it, only v = 20 is TRUE; v = NULL stays unknown
            ("v NOT IN (SELECT w FROM {p}u WHERE w IS NOT NULL)", [2]),
            ("v IN (SELECT w FROM {p}u)", [1]),
            # NOT IN over no rows is TRUE, even for v = NULL
            ("v NOT IN (SELECT w FROM {p}empty)", [1, 2, 3]),
            ("NOT EXISTS (SELECT * FROM {p}u x WHERE x.w = t.v)", [2, 3]),
        ],
    )
    def test_where_subquery_rows(self, tu, where, expected):
        e, prefix = tu
        rows = e.execute(
            "SELECT id FROM t WHERE " + where.format(p=prefix)
        ).rows
        assert sorted(id_ for (id_,) in rows) == expected

    def test_scalar_subquery_under_case(self):
        e = Engine("local")
        e.execute("CREATE TABLE t (id int)")
        e.execute("INSERT INTO t VALUES (1), (2)")
        rows = e.execute(
            "SELECT CASE WHEN id = (SELECT MAX(id) FROM t) THEN 1 ELSE 0 END "
            "FROM t"
        ).rows
        assert sorted(rows) == [(0,), (1,)]


class TestSpool:
    def test_spool_materializes_once(self, engine):
        counter = {"opens": 0}

        class CountingScan(P.PhysicalOp):
            def output_ids(self):
                return (1,)

        scan = CountingScan()

        from repro.execution import executor as ex

        original = ex.open_plan

        spool = P.Spool(scan)
        ctx = ExecutionContext()
        # monkeypatch open for the scan type
        import repro.execution.executor as executor_module

        def fake_open(plan, context):
            if plan is scan:
                counter["opens"] += 1
                return iter([(1,), (2,)])
            return original(plan, context)

        executor_module_open = executor_module.open_plan
        try:
            executor_module.open_plan = fake_open
            first = list(fake_open(spool, ctx)) if False else None
            # open the spool twice via the real spool runner
            from repro.execution.executor import _run_spool

            assert list(_run_spool(spool, ctx)) == [(1,), (2,)]
            assert list(_run_spool(spool, ctx)) == [(1,), (2,)]
        finally:
            executor_module.open_plan = executor_module_open
        assert counter["opens"] == 1
        assert ctx.spool_rescans == 1


class TestAccumulators:
    """Each aggregate keeps only its own function's state."""

    @pytest.fixture
    def wide(self):
        e = Engine("local")
        e.execute("CREATE TABLE t (id int, name varchar(40), d date, x float)")
        table = e.catalog.database().table("t")
        start = dt.date(2000, 1, 1)
        for i in range(20000):
            table.insert(
                (i, f"customer-{i:05d}-abcdefghijklmn",
                 start + dt.timedelta(days=i % 3000), i / 4)
            )
        return e

    def test_min_max_build_no_running_total(self, wide, monkeypatch):
        from repro.execution import aggregates

        made = []
        real = aggregates.accumulator_for

        def spy(call):
            accumulator = real(call)
            made.append(accumulator)
            return accumulator

        monkeypatch.setattr(aggregates, "accumulator_for", spy)
        row = wide.execute("SELECT MAX(name), MIN(d), MIN(name), MAX(d) FROM t").rows
        assert row == [(
            "customer-19999-abcdefghijklmn", dt.date(2000, 1, 1),
            "customer-00000-abcdefghijklmn", dt.date(2000, 1, 1)
            + dt.timedelta(days=2999),
        )]
        assert len(made) == 4
        assert all(getattr(a, "total", None) is None for a in made)

    def test_sum_and_avg_results_unchanged(self, engine):
        engine.execute("CREATE TABLE s (g int, n int, f float, v varchar(5))")
        engine.execute(
            "INSERT INTO s VALUES (1, 1, 0.5, 'a'), (1, 2, NULL, 'B'), "
            "(1, NULL, 1.5, NULL), (2, NULL, NULL, NULL)"
        )
        rows = engine.execute(
            "SELECT g, SUM(n), AVG(n), SUM(f), AVG(f), SUM(v), COUNT(v), "
            "COUNT(*) FROM s GROUP BY g ORDER BY g"
        ).rows
        # SUM over strings concatenates, in arrival order; an all-NULL
        # group sums and averages to NULL
        assert rows == [
            (1, 3, 1.5, 2.0, 1.0, "aB", 2, 3),
            (2, None, None, None, None, None, 0, 1),
        ]
        assert engine.execute(
            "SELECT SUM(DISTINCT n), COUNT(DISTINCT v) FROM s"
        ).rows == [(3, 2)]


class TestStartupFilter:
    def test_child_not_opened_when_false(self, engine):
        from repro.algebra.expressions import Literal

        class ExplodingScan(P.PhysicalOp):
            def output_ids(self):
                return (1,)

        # a plan whose child would raise if opened
        node = P.StartupFilter(ExplodingScan(), Literal(False))
        ctx = ExecutionContext()
        assert list(open_plan(node, ctx)) == []
        assert ctx.startup_filters_skipped == 1

    def test_child_opened_when_true(self, engine):
        r = engine.execute(
            "SELECT lv FROM l WHERE @flag = 1 AND k = 1",
            params={"flag": 1},
        )
        assert r.rows == [("l1",)]
        r2 = engine.execute(
            "SELECT lv FROM l WHERE @flag = 1 AND k = 1",
            params={"flag": 0},
        )
        assert r2.rows == []


class TestHalloweenProtection:
    def test_update_scan_is_materialized(self, engine):
        engine.execute("CREATE TABLE acc (id int PRIMARY KEY, bal int)")
        for i in range(10):
            engine.execute(f"INSERT INTO acc VALUES ({i}, {i * 10})")
        # give every row a raise; without protection a scan that sees
        # its own updates could double-apply
        n = engine.execute("UPDATE acc SET bal = bal + 1").rowcount
        assert n == 10
        total = engine.execute("SELECT SUM(bal) FROM acc").scalar()
        assert total == sum(i * 10 + 1 for i in range(10))

    def test_flag_exists_for_experiments(self, engine):
        assert engine.halloween_protection is True
        engine.halloween_protection = False
        engine.execute("CREATE TABLE t2 (v int)")
        engine.execute("INSERT INTO t2 VALUES (1)")
        engine.execute("UPDATE t2 SET v = v + 1")
        assert engine.execute("SELECT v FROM t2").scalar() == 2


class TestCollationSemantics:
    """Engine-level collation regressions: equality, grouping,
    DISTINCT, hash-join keys, and ORDER BY must all fold case the way
    Latin1_General_CI_AS does (and the way LIKE always did)."""

    @pytest.fixture
    def fruit(self, engine):
        engine.execute("CREATE TABLE fruit (id int, name varchar(20))")
        engine.execute(
            "INSERT INTO fruit VALUES "
            "(1, 'Apple'), (2, 'apple'), (3, 'APPLE'), "
            "(4, 'Banana'), (5, NULL)"
        )
        return engine

    def test_where_equality_folds_case(self, fruit):
        rows = fruit.execute(
            "SELECT id FROM fruit WHERE name = 'APPLE'"
        ).rows
        assert sorted(r[0] for r in rows) == [1, 2, 3]

    def test_group_by_folds_case(self, fruit):
        rows = fruit.execute(
            "SELECT COUNT(*) FROM fruit WHERE name IS NOT NULL "
            "GROUP BY name"
        ).rows
        assert sorted(r[0] for r in rows) == [1, 3]

    def test_select_distinct_folds_case(self, fruit):
        rows = fruit.execute(
            "SELECT DISTINCT name FROM fruit WHERE name IS NOT NULL"
        ).rows
        assert len(rows) == 2

    def test_count_distinct_folds_case(self, fruit):
        assert fruit.execute(
            "SELECT COUNT(DISTINCT name) FROM fruit"
        ).scalar() == 2

    def test_hash_join_keys_fold_case(self, engine):
        engine.execute("CREATE TABLE a1 (name varchar(10))")
        engine.execute("CREATE TABLE b1 (name varchar(10), v int)")
        engine.execute("INSERT INTO a1 VALUES ('ALPHA'), ('beta')")
        engine.execute("INSERT INTO b1 VALUES ('alpha', 1), ('Beta', 2)")
        rows = engine.execute(
            "SELECT b1.v FROM a1, b1 WHERE a1.name = b1.name"
        ).rows
        assert sorted(r[0] for r in rows) == [1, 2]

    def test_order_by_folds_case(self, fruit):
        rows = fruit.execute(
            "SELECT name FROM fruit WHERE id IN (2, 4) ORDER BY name"
        ).rows
        assert [r[0] for r in rows] == ["apple", "Banana"]

    def test_nulls_order_first_ascending(self, fruit):
        rows = fruit.execute(
            "SELECT name FROM fruit ORDER BY name ASC"
        ).rows
        assert rows[0][0] is None

    def test_nulls_order_last_descending(self, fruit):
        rows = fruit.execute(
            "SELECT name FROM fruit ORDER BY name DESC"
        ).rows
        assert rows[-1][0] is None


class TestDispatchTable:
    def test_unknown_operator_type_raises_execution_error(self):
        from repro.errors import ExecutionError

        class Mystery(P.PhysicalOp):
            def output_ids(self):
                return (1,)

        with pytest.raises(ExecutionError, match="no executor for Mystery"):
            open_plan(Mystery(), ExecutionContext())

    def test_every_operator_has_exactly_its_own_runner(self):
        """Lookup is by exact type: an exchange (a Concat subclass) can
        never run as its serial parent, whatever order the table is
        written in."""
        from repro.execution import executor
        from repro.execution.exchange import run_gather, run_gather_merge

        operators = {
            cls for cls in vars(P).values()
            if isinstance(cls, type) and issubclass(cls, P.PhysicalOp)
            and cls is not P.PhysicalOp
        }
        assert set(executor._RUNNERS) == operators
        assert executor._RUNNERS[P.Gather] is run_gather
        assert executor._RUNNERS[P.GatherMerge] is run_gather_merge
        assert executor._RUNNERS[P.Concat] is executor._run_concat
