"""Tests for normalization (simplification) and exploration rules."""

import pytest

from repro.algebra.expressions import (
    BinaryOp,
    ColumnRef,
    Literal,
    Parameter,
    conjuncts,
)
from repro.algebra.logical import (
    EmptyTable,
    Get,
    Join,
    JoinKind,
    Project,
    Select,
    UnionAll,
)
from repro.core.constraints import DomainTest
from repro.core.memo import Memo
from repro.core.optimizer import OptimizerOptions
from repro.core.rules.exploration import (
    JoinAssociate,
    JoinCommute,
    LocalityGrouping,
)
from repro.core.rules.base import RuleContext
from repro.core.rules.normalization import normalize
from repro.engine import ServerInstance
from repro.network import NetworkChannel
from repro.sql.binder import Binder
from repro.sql.parser import parse_sql


@pytest.fixture
def engine():
    e = ServerInstance("local")
    e.execute(
        "CREATE TABLE t (a int CHECK (a >= 0 AND a < 100), b int)"
    )
    e.execute("CREATE TABLE u (a int, c int)")
    for i in range(10):
        e.execute(f"INSERT INTO t VALUES ({i}, {i})")
        e.execute(f"INSERT INTO u VALUES ({i}, {i})")
    return e


def bind(engine, sql):
    return Binder(engine).bind_select(parse_sql(sql)).root


def find_ops(root, op_type):
    found = []

    def walk(node):
        if isinstance(node, op_type):
            found.append(node)
        for child in node.inputs:
            walk(child)

    walk(root)
    return found


class TestNormalization:
    def test_merge_stacked_selects(self, engine):
        root = bind(engine, "SELECT * FROM (SELECT * FROM t WHERE a > 1) d WHERE d.b > 2")
        normalized = normalize(root)
        selects = find_ops(normalized, Select)
        assert len(selects) <= 1

    def test_push_select_into_join_sides(self, engine):
        root = bind(
            engine,
            "SELECT t.a FROM t, u WHERE t.b = 5 AND u.c = 6 AND t.a = u.a",
        )
        normalized = normalize(root)
        joins = find_ops(normalized, Join)
        assert joins and joins[0].kind == JoinKind.INNER
        assert joins[0].condition is not None
        # per-side predicates sit below the join now
        left_selects = find_ops(joins[0].left, Select)
        right_selects = find_ops(joins[0].right, Select)
        assert left_selects and right_selects

    def test_cross_becomes_inner(self, engine):
        root = bind(engine, "SELECT t.a FROM t, u WHERE t.a = u.a")
        normalized = normalize(root)
        joins = find_ops(normalized, Join)
        assert joins[0].kind == JoinKind.INNER

    def test_static_pruning_to_empty(self, engine):
        # CHECK says a in [0, 100); a = 500 contradicts
        root = bind(engine, "SELECT t.b FROM t WHERE t.a = 500")
        normalized = normalize(root)
        assert find_ops(normalized, EmptyTable)

    def test_static_pruning_disabled(self, engine):
        root = bind(engine, "SELECT t.b FROM t WHERE t.a = 500")
        normalized = normalize(
            root, OptimizerOptions(enable_static_pruning=False)
        )
        assert not find_ops(normalized, EmptyTable)

    def test_constant_false_prunes(self, engine):
        root = bind(engine, "SELECT t.a FROM t WHERE 1 = 2")
        normalized = normalize(root)
        assert find_ops(normalized, EmptyTable)

    def test_constant_true_removed(self, engine):
        root = bind(engine, "SELECT t.a FROM t WHERE 1 = 1")
        normalized = normalize(root)
        assert not find_ops(normalized, Select)

    def test_select_pushes_into_union_branches(self, engine):
        engine.execute("CREATE TABLE p1 (k int CHECK (k < 10))")
        engine.execute("CREATE TABLE p2 (k int CHECK (k >= 10))")
        engine.execute(
            "CREATE VIEW pv AS SELECT * FROM p1 UNION ALL SELECT * FROM p2"
        )
        root = bind(engine, "SELECT k FROM pv WHERE k = 5")
        normalized = normalize(root)
        # branch p2 contradicts and the union collapses to one branch
        unions = find_ops(normalized, UnionAll)
        assert not unions

    def test_startup_test_derived_for_params(self, engine):
        root = bind(engine, "SELECT t.b FROM t WHERE t.a = @p")
        normalized = normalize(root)
        selects = find_ops(normalized, Select)
        assert selects
        kinds = [type(c) for c in conjuncts(selects[0].predicate)]
        assert DomainTest in kinds

    def test_startup_derivation_disabled(self, engine):
        root = bind(engine, "SELECT t.b FROM t WHERE t.a = @p")
        normalized = normalize(
            root, OptimizerOptions(enable_startup_filters=False)
        )
        selects = find_ops(normalized, Select)
        kinds = [type(c) for c in conjuncts(selects[0].predicate)]
        assert DomainTest not in kinds

    def test_anti_join_over_empty_inner_is_left(self, engine):
        root = bind(
            engine,
            "SELECT t.a FROM t WHERE NOT EXISTS "
            "(SELECT * FROM u WHERE u.a = t.a AND u.c = 999 AND u.c = 1)",
        )
        normalized = normalize(root)
        # inner contradicted -> anti-semi-join degenerates to left input
        assert not find_ops(normalized, Join)

    def test_identity_project_removed(self, engine):
        root = bind(engine, "SELECT * FROM t")
        normalized = normalize(root)
        assert not find_ops(normalized, Project)


class TestExplorationRules:
    def _memo_with_join(self, engine, sql):
        root = normalize(bind(engine, sql))
        memo = Memo()
        group = memo.insert_tree(root)
        return memo, group

    def _join_expr(self, memo):
        for group in memo.groups:
            for expr in group.expressions:
                if isinstance(expr.op, Join):
                    return expr
        return None

    def test_join_commute_adds_alternative(self, engine):
        memo, __ = self._memo_with_join(
            engine, "SELECT t.a FROM t, u WHERE t.a = u.a"
        )
        expr = self._join_expr(memo)
        from repro.core.optimizer import Optimizer

        context = RuleContext(memo, Optimizer())
        added = JoinCommute().apply(expr, context)
        assert added == 1
        assert len(expr.group.expressions) == 2
        # the new alternative refuses to commute back
        new = expr.group.expressions[1]
        assert "join_commute" in new.applied_rules

    def test_commute_is_idempotent_in_memo(self, engine):
        memo, __ = self._memo_with_join(
            engine, "SELECT t.a FROM t, u WHERE t.a = u.a"
        )
        expr = self._join_expr(memo)
        from repro.core.optimizer import Optimizer

        context = RuleContext(memo, Optimizer())
        JoinCommute().apply(expr, context)
        added_again = JoinCommute().apply(expr, context)
        assert added_again == 0  # duplicate detected by the memo

    def test_locality_grouping_produces_same_server_join(self, engine):
        remote = ServerInstance("r1")
        remote.execute("CREATE TABLE ra (x int)")
        remote.execute("CREATE TABLE rb (y int)")
        remote.execute("INSERT INTO ra VALUES (1)")
        remote.execute("INSERT INTO rb VALUES (1)")
        engine.add_linked_server("r1", remote, NetworkChannel("c"))
        # (ra x t) x rb: ra and rb share a server, t does not
        sql = (
            "SELECT ra.x FROM r1.master.dbo.ra ra, t, r1.master.dbo.rb rb "
            "WHERE ra.x = t.a AND t.a = rb.y"
        )
        root = normalize(bind(engine, sql))
        memo = Memo()
        group = memo.insert_tree(root)
        from repro.core.optimizer import Optimizer

        optimizer = Optimizer()
        optimizer.register_linked_server(engine.linked_server("r1"))
        context = RuleContext(memo, optimizer)
        top = self._join_expr(memo)
        # find the top-most join (its group contains the union of ids)
        top = max(
            (
                e
                for g in memo.groups
                for e in g.expressions
                if isinstance(e.op, Join)
            ),
            key=lambda e: len(e.group.properties.output_ids),
        )
        added = LocalityGrouping().apply(top, context)
        assert added >= 1
        # some group now joins ra with rb directly (single remote server)
        assert any(
            g.properties.single_server == "r1"
            and any(isinstance(e.op, Join) for e in g.expressions)
            for g in memo.groups
        )
