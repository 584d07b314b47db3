"""Tests for the memo structure and group property derivation."""

import pytest

from repro.algebra.expressions import BinaryOp, ColumnDef, ColumnRef, Literal
from repro.algebra.logical import Get, Join, JoinKind, Select, TableRef
from repro.core.memo import Memo
from repro.core.properties import LOCAL, derive_properties
from repro.engine import ServerInstance
from repro.sql.binder import Binder
from repro.sql.parser import parse_sql
from repro.types import INT, varchar


def bound_tree(engine, sql):
    stmt = parse_sql(sql)
    return Binder(engine).bind_select(stmt)


@pytest.fixture
def engine():
    e = ServerInstance("local")
    e.execute("CREATE TABLE a (x int, y int)")
    e.execute("CREATE TABLE b (x int, z int)")
    for i in range(20):
        e.execute(f"INSERT INTO a VALUES ({i}, {i % 4})")
    for i in range(10):
        e.execute(f"INSERT INTO b VALUES ({i}, {i % 2})")
    return e


class TestMemo:
    def test_insert_tree_creates_groups(self, engine):
        bound = bound_tree(engine, "SELECT a.x FROM a WHERE a.y = 1")
        memo = Memo()
        root = memo.insert_tree(bound.root)
        # Project -> Select -> Get = 3 groups
        assert memo.group_count == 3
        assert root.properties.output_ids

    def test_duplicate_insertion_dedups(self, engine):
        bound = bound_tree(engine, "SELECT a.x FROM a")
        memo = Memo()
        memo.insert_tree(bound.root)
        before = memo.expression_count
        memo.insert_tree(bound.root)
        assert memo.expression_count == before
        assert memo.duplicate_hits > 0

    def test_rule_output_lands_in_target_group(self, engine):
        bound = bound_tree(engine, "SELECT a.x, b.z FROM a, b WHERE a.x = b.x")
        memo = Memo()
        root = memo.insert_tree(bound.root)
        # find the join group and insert a commuted alternative
        join_expr = None
        for group in memo.groups:
            for expr in group.expressions:
                if isinstance(expr.op, Join):
                    join_expr = expr
        assert join_expr is not None
        flipped = Join(None, None, join_expr.op.kind, join_expr.op.condition)
        new_expr, group = memo.insert_expression(
            flipped,
            (join_expr.children[1], join_expr.children[0]),
            target=join_expr.group,
        )
        assert group is join_expr.group
        assert len(join_expr.group.expressions) == 2


class TestProperties:
    def test_get_cardinality_from_table(self, engine):
        bound = bound_tree(engine, "SELECT a.x FROM a")
        memo = Memo()
        memo.insert_tree(bound.root)
        get_group = next(
            g
            for g in memo.groups
            if any(isinstance(e.op, Get) for e in g.expressions)
        )
        assert get_group.properties.cardinality == 20

    def test_select_reduces_cardinality(self, engine):
        bound = bound_tree(engine, "SELECT a.x FROM a WHERE a.y = 1")
        memo = Memo()
        memo.insert_tree(bound.root)
        select_group = next(
            g
            for g in memo.groups
            if any(isinstance(e.op, Select) for e in g.expressions)
        )
        # y has 4 distinct values over 20 rows -> about 5
        assert 2 <= select_group.properties.cardinality <= 8

    def test_join_cardinality_uses_distincts(self, engine):
        from repro.core.rules.normalization import normalize

        bound = bound_tree(
            engine, "SELECT a.y FROM a, b WHERE a.x = b.x"
        )
        memo = Memo()
        root = memo.insert_tree(normalize(bound.root))
        # 20 * 10 / max(20 distinct, 10 distinct) = 10
        join_group = next(
            g
            for g in memo.groups
            if any(isinstance(e.op, Join) for e in g.expressions)
        )
        assert 5 <= join_group.properties.cardinality <= 20

    def test_local_server_marker(self, engine):
        bound = bound_tree(engine, "SELECT a.x FROM a")
        memo = Memo()
        root = memo.insert_tree(bound.root)
        assert root.properties.servers == frozenset({LOCAL})
        assert root.properties.single_server is None
