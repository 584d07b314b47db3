"""Seeded SQL generation over a :class:`~repro.testcheck.schema.SchemaSpec`.

Queries are built as :mod:`repro.sql.ast` trees — never raw strings —
so every generated query binds by construction: column references are
alias-qualified, literals match column types, join conditions follow
declared foreign keys, and ORDER BY uses output ordinals (the binder's
contract).  The AST renders to SQL text per *topology* through a name
map (``fact0`` → ``fact0`` locally, ``r1.master.dbo.fact0`` when that
table lives on a linked server), which is what lets one generated
query run under every oracle configuration.

Determinism guardrails (the comparator relies on these):

* ``TOP`` appears only with an ORDER BY whose final key is the single
  source table's primary key — a total order, so every plan returns
  the same prefix;
* ORDER BY without TOP is checked for *sortedness*, while row content
  is compared as a multiset, so plans remain free to break ties
  differently;
* no floating-point division, and aggregates over floats are compared
  with a tolerance downstream.
"""

from __future__ import annotations

import datetime as dt
import random
from typing import Optional, Union

from repro.sql import ast
from repro.testcheck.schema import (
    PV_YEARS,
    SchemaSpec,
    TableSpec,
    ViewSpec,
    WORDS,
)

Source = Union[TableSpec, ViewSpec]


class GeneratedQuery:
    """One generated SELECT: the AST plus what the checker must know."""

    __slots__ = ("stmt", "order_keys", "has_top", "tables", "seed")

    def __init__(
        self,
        stmt: ast.SelectStmt,
        order_keys: list[tuple[int, bool]],
        has_top: bool,
        tables: list[str],
        seed: int,
    ):
        self.stmt = stmt
        #: (output ordinal, ascending) pairs the result must be sorted by
        self.order_keys = order_keys
        self.has_top = has_top
        #: base table/view names the query touches
        self.tables = tables
        self.seed = seed

    def render(self, name_map: dict[str, str]) -> str:
        """SQL text with table names resolved for one topology."""
        return render_select(self.stmt, name_map)

    #: the statement a mismatch report EXPLAINs: the query itself
    explained = render

    def __repr__(self) -> str:
        return f"GeneratedQuery(seed={self.seed}, tables={self.tables})"


# ======================================================================
# AST -> SQL rendering
# ======================================================================

def _render_literal(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, (dt.date, dt.datetime)):
        return f"'{value.isoformat()}'"
    text = str(value).replace("'", "''")
    return f"'{text}'"


def render_expr(expr: ast.Expr) -> str:
    if isinstance(expr, ast.LiteralExpr):
        return _render_literal(expr.value)
    if isinstance(expr, ast.NameExpr):
        return ".".join(expr.parts)
    if isinstance(expr, ast.StarExpr):
        return f"{expr.qualifier}.*" if expr.qualifier else "*"
    if isinstance(expr, ast.BinaryExpr):
        return f"({render_expr(expr.left)} {expr.op} {render_expr(expr.right)})"
    if isinstance(expr, ast.UnaryExpr):
        return f"({expr.op}{render_expr(expr.operand)})"
    if isinstance(expr, ast.NotExpr):
        return f"(NOT {render_expr(expr.operand)})"
    if isinstance(expr, ast.IsNullExpr):
        suffix = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"({render_expr(expr.operand)} {suffix})"
    if isinstance(expr, ast.InExpr) and expr.items is not None:
        items = ", ".join(render_expr(item) for item in expr.items)
        keyword = "NOT IN" if expr.negated else "IN"
        return f"({render_expr(expr.operand)} {keyword} ({items}))"
    if isinstance(expr, ast.BetweenExpr):
        keyword = "NOT BETWEEN" if expr.negated else "BETWEEN"
        return (
            f"({render_expr(expr.operand)} {keyword} "
            f"{render_expr(expr.low)} AND {render_expr(expr.high)})"
        )
    if isinstance(expr, ast.LikeExpr):
        keyword = "NOT LIKE" if expr.negated else "LIKE"
        return (
            f"({render_expr(expr.operand)} {keyword} "
            f"{render_expr(expr.pattern)})"
        )
    if isinstance(expr, ast.FuncExpr):
        if expr.star:
            return f"{expr.name}(*)"
        inner = ", ".join(render_expr(a) for a in expr.args)
        if expr.distinct:
            inner = f"DISTINCT {inner}"
        return f"{expr.name}({inner})"
    if isinstance(expr, ast.CaseExpr):
        parts = ["CASE"]
        for cond, value in expr.whens:
            parts.append(f"WHEN {render_expr(cond)} THEN {render_expr(value)}")
        if expr.else_value is not None:
            parts.append(f"ELSE {render_expr(expr.else_value)}")
        parts.append("END")
        return " ".join(parts)
    raise TypeError(f"renderer does not support {type(expr).__name__}")


def _render_source(source: ast.TableSource, name_map: dict[str, str]) -> str:
    if isinstance(source, ast.NamedTable):
        base = source.parts[-1]
        full = name_map.get(base, base)
        if source.alias and source.alias != full:
            return f"{full} {source.alias}"
        return full
    if isinstance(source, ast.JoinSource):
        keyword = {
            "inner": "JOIN",
            "left_outer": "LEFT JOIN",
            "cross": "CROSS JOIN",
        }[source.kind]
        text = (
            f"{_render_source(source.left, name_map)} {keyword} "
            f"{_render_source(source.right, name_map)}"
        )
        if source.condition is not None:
            text += f" ON {render_expr(source.condition)}"
        return text
    raise TypeError(f"renderer does not support {type(source).__name__}")


def render_select(stmt: ast.SelectStmt, name_map: dict[str, str]) -> str:
    parts = ["SELECT"]
    if stmt.distinct:
        parts.append("DISTINCT")
    if stmt.top is not None:
        parts.append(f"TOP {stmt.top}")
    items = []
    for item in stmt.items:
        text = render_expr(item.expr)
        if item.alias:
            text += f" AS {item.alias}"
        items.append(text)
    parts.append(", ".join(items))
    parts.append("FROM")
    parts.append(
        ", ".join(_render_source(s, name_map) for s in stmt.sources)
    )
    if stmt.where is not None:
        parts.append(f"WHERE {render_expr(stmt.where)}")
    if stmt.group_by:
        parts.append(
            "GROUP BY " + ", ".join(render_expr(e) for e in stmt.group_by)
        )
    if stmt.having is not None:
        parts.append(f"HAVING {render_expr(stmt.having)}")
    if stmt.order_by:
        keys = []
        for item in stmt.order_by:
            text = render_expr(item.expr)
            if not item.ascending:
                text += " DESC"
            keys.append(text)
        parts.append("ORDER BY " + ", ".join(keys))
    return " ".join(parts)


# ======================================================================
# generation
# ======================================================================

def _col(alias: str, name: str) -> ast.NameExpr:
    return ast.NameExpr((alias, name))


def _lit(value: object) -> ast.LiteralExpr:
    return ast.LiteralExpr(value)


def _predicate_for(
    rng: random.Random, alias: str, column, table_rows: int
) -> ast.Expr:
    """One type-correct predicate over ``alias.column``."""
    kind = column.kind
    if kind.startswith("fk:") or kind == "pk":
        kind = "int"
    ref = _col(alias, column.name)
    if column.nullable and rng.random() < 0.15:
        return ast.IsNullExpr(ref, negated=rng.random() < 0.5)
    if kind == "int":
        roll = rng.random()
        bound = max(4, table_rows // 2)
        if roll < 0.4:
            op = rng.choice(["=", "<", "<=", ">", ">=", "<>"])
            return ast.BinaryExpr(op, ref, _lit(rng.randint(0, bound)))
        if roll < 0.7:
            lo = rng.randint(0, bound)
            return ast.BetweenExpr(ref, _lit(lo), _lit(lo + rng.randint(1, 8)))
        values = sorted({rng.randint(0, bound) for _ in range(rng.randint(2, 4))})
        return ast.InExpr(ref, items=[_lit(v) for v in values],
                          negated=rng.random() < 0.2)
    if kind == "float":
        op = rng.choice(["<", "<=", ">", ">="])
        return ast.BinaryExpr(op, ref, _lit(round(rng.uniform(-20, 300), 2)))
    if kind == "str":
        roll = rng.random()
        if roll < 0.45:
            word = rng.choice(WORDS)
            # random re-casing exercises CI-collation equality
            word = rng.choice([word, word.upper(), word.lower()])
            op = rng.choice(["=", "<>", "<", ">="])
            return ast.BinaryExpr(op, ref, _lit(word))
        pattern = rng.choice(
            ["A%", "a%", "%a%", "%ta", "_e%", "%m%", "Z%"]
        )
        return ast.LikeExpr(ref, _lit(pattern), negated=rng.random() < 0.25)
    if kind == "date":
        year = rng.choice(PV_YEARS + (1995,))
        edge = dt.date(year, rng.randint(1, 12), rng.randint(1, 27))
        roll = rng.random()
        if roll < 0.6:
            op = rng.choice(["<", "<=", ">", ">=", "="])
            return ast.BinaryExpr(op, ref, _lit(edge))
        hi = edge + dt.timedelta(days=rng.randint(30, 400))
        return ast.BetweenExpr(ref, _lit(edge), _lit(hi))
    raise AssertionError(kind)


def _where_clause(
    rng: random.Random,
    sources: list[tuple[Source, str]],
) -> Optional[ast.Expr]:
    """0-3 predicates over random columns, joined with AND/OR."""
    n = rng.choice([0, 1, 1, 2, 2, 3])
    predicates = []
    for _ in range(n):
        source, alias = rng.choice(sources)
        columns = source.columns_of_kind("int", "float", "str", "date", "fk")
        if not columns:
            continue
        column = rng.choice(columns)
        rows = len(source.rows) if isinstance(source, TableSpec) else 30
        predicate = _predicate_for(rng, alias, column, rows)
        if rng.random() < 0.1:
            predicate = ast.NotExpr(predicate)
        predicates.append(predicate)
    if not predicates:
        return None
    clause = predicates[0]
    for predicate in predicates[1:]:
        op = "AND" if rng.random() < 0.7 else "OR"
        clause = ast.BinaryExpr(op, clause, predicate)
    return clause


def _aggregate_items(
    rng: random.Random,
    sources: list[tuple[Source, str]],
    group_cols: list[tuple[str, object]],
) -> list[ast.SelectItem]:
    """Group-by columns followed by 1-3 aggregate calls."""
    items = [
        ast.SelectItem(_col(alias, column.name))
        for alias, column in group_cols
    ]
    n_aggs = rng.randint(1, 3)
    for i in range(n_aggs):
        roll = rng.random()
        if roll < 0.3:
            items.append(ast.SelectItem(
                ast.FuncExpr("COUNT", [], star=True), alias=f"agg{i}"
            ))
            continue
        source, alias = rng.choice(sources)
        numeric = source.columns_of_kind("int", "float", "fk", "pk")
        anycol = source.columns_of_kind("int", "float", "str", "date", "pk")
        if roll < 0.55 and numeric:
            column = rng.choice(numeric)
            func = rng.choice(["SUM", "AVG"])
            items.append(ast.SelectItem(
                ast.FuncExpr(func, [_col(alias, column.name)]),
                alias=f"agg{i}",
            ))
        elif roll < 0.8 and anycol:
            column = rng.choice(anycol)
            func = rng.choice(["MIN", "MAX"])
            items.append(ast.SelectItem(
                ast.FuncExpr(func, [_col(alias, column.name)]),
                alias=f"agg{i}",
            ))
        else:
            column = rng.choice(anycol)
            items.append(ast.SelectItem(
                ast.FuncExpr("COUNT", [_col(alias, column.name)],
                             distinct=rng.random() < 0.5),
                alias=f"agg{i}",
            ))
    return items


def generate_query(spec: SchemaSpec, seed: int) -> GeneratedQuery:
    """One deterministic query over the schema (valid by construction)."""
    rng = random.Random(seed)
    shape = rng.choice(
        ["single", "single", "join", "join", "aggregate", "aggregate", "pv"]
    )

    # ---- choose sources ---------------------------------------------------
    sources: list[tuple[Source, str]] = []
    join_conditions: list[ast.Expr] = []
    if shape == "pv" and spec.view is not None:
        sources.append((spec.view, "t0"))
        if rng.random() < 0.5:
            shape = "aggregate"
        else:
            shape = "single"
    elif shape == "join" or (shape == "aggregate" and rng.random() < 0.5):
        facts = spec.fact_tables
        fact = rng.choice(facts)
        sources.append((fact, "t0"))
        fk_columns = [c for c in fact.columns if c.fk_target]
        rng.shuffle(fk_columns)
        for fk in fk_columns[: rng.randint(1, 2)]:
            dim = spec.tables[fk.fk_target]
            alias = f"t{len(sources)}"
            join_conditions.append(
                ast.BinaryExpr(
                    "=", _col("t0", fk.name),
                    _col(alias, dim.columns[0].name),
                )
            )
            sources.append((dim, alias))
    else:
        pool = [t for t in spec.tables.values()
                if spec.view is None or t not in spec.view.members]
        sources.append((rng.choice(pool), "t0"))

    where = _where_clause(rng, sources)
    for condition in join_conditions:
        where = condition if where is None else ast.BinaryExpr(
            "AND", where, condition
        )

    single_table = len(sources) == 1 and isinstance(sources[0][0], TableSpec)
    order_keys: list[tuple[int, bool]] = []
    has_top = False

    # ---- shape the select list -------------------------------------------
    if shape == "aggregate":
        group_cols = []
        if rng.random() < 0.8:
            for _ in range(rng.randint(1, 2)):
                source, alias = rng.choice(sources)
                candidates = source.columns_of_kind("int", "str", "fk")
                if candidates:
                    column = rng.choice(candidates)
                    if not any(c is column for _a, c in group_cols):
                        group_cols.append((alias, column))
        items = _aggregate_items(rng, sources, group_cols)
        group_by = [_col(alias, column.name) for alias, column in group_cols]
        having = None
        if group_by and rng.random() < 0.3:
            having = ast.BinaryExpr(
                ">=", ast.FuncExpr("COUNT", [], star=True),
                _lit(rng.randint(1, 3)),
            )
        stmt = ast.SelectStmt(
            items, [t for t in _build_sources(sources)],
            where=where, group_by=group_by, having=having,
        )
        if group_by and rng.random() < 0.5:
            # order by the group-by columns (output ordinals 1..k)
            order_keys = [
                (i, rng.random() < 0.8) for i in range(len(group_by))
            ]
            stmt.order_by = [
                ast.OrderItem(_lit(ordinal + 1), ascending)
                for ordinal, ascending in order_keys
            ]
    else:
        n_cols = rng.randint(1, 4)
        picked: list[tuple[str, object]] = []
        for _ in range(n_cols):
            source, alias = rng.choice(sources)
            columns = source.columns_of_kind(
                "pk", "int", "float", "str", "date", "fk"
            )
            picked.append((alias, rng.choice(columns)))
        items = [
            ast.SelectItem(_col(alias, column.name))
            for alias, column in picked
        ]
        distinct = rng.random() < 0.25
        stmt = ast.SelectStmt(
            items, [t for t in _build_sources(sources)],
            where=where, distinct=distinct,
        )
        if rng.random() < 0.5:
            n_keys = rng.randint(1, min(2, len(picked)))
            ordinals = rng.sample(range(len(picked)), n_keys)
            order_keys = [(o, rng.random() < 0.75) for o in ordinals]
            if single_table and not distinct and rng.random() < 0.5:
                # TOP needs a total order: append the table's pk
                table, alias = sources[0]
                pk = table.columns[0]
                if all(
                    picked[o][1] is not pk for o, _asc in order_keys
                ):
                    items.append(ast.SelectItem(_col(alias, pk.name)))
                    order_keys.append((len(items) - 1, True))
                stmt.items = items
                stmt.top = rng.randint(1, 12)
                has_top = True
            stmt.order_by = [
                ast.OrderItem(_lit(ordinal + 1), ascending)
                for ordinal, ascending in order_keys
            ]

    return GeneratedQuery(
        stmt, order_keys, has_top,
        [s.name for s, _alias in sources], seed,
    )


def _build_sources(
    sources: list[tuple[Source, str]]
) -> list[ast.TableSource]:
    return [
        ast.NamedTable((source.name,), alias=alias)
        for source, alias in sources
    ]
