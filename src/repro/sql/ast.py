"""SQL abstract syntax tree nodes (pure syntax; binding happens later)."""

from __future__ import annotations

from typing import Any, Optional, Sequence


class Node:
    """Base AST node."""

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{k}={v!r}" for k, v in vars(self).items() if v is not None
        )
        return f"{type(self).__name__}({fields})"


# -- expressions ---------------------------------------------------------------

class Expr(Node):
    pass


class LiteralExpr(Expr):
    def __init__(self, value: Any):
        self.value = value


class NameExpr(Expr):
    """A possibly-qualified column name: parts like ('c', 'c_name')."""

    def __init__(self, parts: Sequence[str]):
        self.parts = tuple(parts)


class StarExpr(Expr):
    """``*`` or ``alias.*`` in a select list."""

    def __init__(self, qualifier: Optional[str] = None):
        self.qualifier = qualifier


class ParamExpr(Expr):
    def __init__(self, name: str):
        self.name = name


class UnaryExpr(Expr):
    def __init__(self, op: str, operand: Expr):
        self.op = op
        self.operand = operand


class BinaryExpr(Expr):
    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op
        self.left = left
        self.right = right


class NotExpr(Expr):
    def __init__(self, operand: Expr):
        self.operand = operand


class IsNullExpr(Expr):
    def __init__(self, operand: Expr, negated: bool = False):
        self.operand = operand
        self.negated = negated


class InExpr(Expr):
    """IN over a value list or a subquery."""

    def __init__(
        self,
        operand: Expr,
        items: Optional[Sequence[Expr]] = None,
        subquery: Optional["SelectStmt"] = None,
        negated: bool = False,
    ):
        self.operand = operand
        self.items = list(items) if items is not None else None
        self.subquery = subquery
        self.negated = negated


class BetweenExpr(Expr):
    def __init__(self, operand: Expr, low: Expr, high: Expr, negated: bool = False):
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated


class LikeExpr(Expr):
    def __init__(self, operand: Expr, pattern: Expr, negated: bool = False):
        self.operand = operand
        self.pattern = pattern
        self.negated = negated


class ExistsExpr(Expr):
    def __init__(self, subquery: "SelectStmt", negated: bool = False):
        self.subquery = subquery
        self.negated = negated


class ScalarSubqueryExpr(Expr):
    def __init__(self, subquery: "SelectStmt"):
        self.subquery = subquery


class FuncExpr(Expr):
    """Scalar function or aggregate call; ``star`` marks COUNT(*)."""

    def __init__(
        self,
        name: str,
        args: Sequence[Expr],
        distinct: bool = False,
        star: bool = False,
    ):
        self.name = name
        self.args = list(args)
        self.distinct = distinct
        self.star = star


class CaseExpr(Expr):
    """Searched CASE: WHEN cond THEN value ... [ELSE value] END."""

    def __init__(
        self,
        whens: Sequence[tuple[Expr, Expr]],
        else_value: Optional[Expr] = None,
    ):
        self.whens = list(whens)
        self.else_value = else_value


class ContainsExpr(Expr):
    """CONTAINS(column, 'query') or FREETEXT(column, 'text')."""

    def __init__(self, column: NameExpr, query_text: str, freetext: bool = False):
        self.column = column
        self.query_text = query_text
        #: FREETEXT: match any word, inflectional forms implied
        self.freetext = freetext


# -- table sources -----------------------------------------------------------------

class TableSource(Node):
    pass


class NamedTable(TableSource):
    """One- to four-part name, optional alias."""

    def __init__(self, parts: Sequence[str], alias: Optional[str] = None):
        self.parts = tuple(parts)
        self.alias = alias or self.parts[-1]


class DerivedTable(TableSource):
    """(SELECT ...) AS alias."""

    def __init__(self, subquery: "SelectStmt", alias: str):
        self.subquery = subquery
        self.alias = alias


class OpenRowsetSource(TableSource):
    """OPENROWSET('provider', 'datasource';'user';'password', 'query'|table)."""

    def __init__(
        self,
        provider: str,
        datasource: str,
        query_or_table: str,
        alias: str,
        user: str = "",
        password: str = "",
    ):
        self.provider = provider
        self.datasource = datasource
        self.query_or_table = query_or_table
        self.alias = alias
        self.user = user
        self.password = password


class OpenQuerySource(TableSource):
    """OPENQUERY(linked_server, 'native query')."""

    def __init__(self, server: str, query_text: str, alias: str):
        self.server = server
        self.query_text = query_text
        self.alias = alias


class MakeTableSource(TableSource):
    """MakeTable(Provider, path[, table]) — the paper's TVF (Section 2.4)."""

    def __init__(
        self,
        provider: str,
        path: str,
        table: Optional[str],
        alias: str,
    ):
        self.provider = provider
        self.path = path
        self.table = table
        self.alias = alias


class JoinSource(TableSource):
    """Explicit JOIN syntax."""

    def __init__(
        self,
        left: TableSource,
        right: TableSource,
        kind: str,
        condition: Optional[Expr],
    ):
        self.left = left
        self.right = right
        self.kind = kind  # "inner" | "left_outer" | "cross"
        self.condition = condition


# -- statements -----------------------------------------------------------------

class Statement(Node):
    pass


class SelectItem(Node):
    def __init__(self, expr: Expr, alias: Optional[str] = None):
        self.expr = expr
        self.alias = alias


class OrderItem(Node):
    def __init__(self, expr: Expr, ascending: bool = True):
        self.expr = expr
        self.ascending = ascending


class SelectStmt(Statement):
    def __init__(
        self,
        items: Sequence[SelectItem],
        sources: Sequence[TableSource],
        where: Optional[Expr] = None,
        group_by: Optional[Sequence[Expr]] = None,
        having: Optional[Expr] = None,
        order_by: Optional[Sequence[OrderItem]] = None,
        distinct: bool = False,
        top: Optional[int] = None,
        union_all: Optional[Sequence["SelectStmt"]] = None,
    ):
        self.items = list(items)
        self.sources = list(sources)
        self.where = where
        self.group_by = list(group_by) if group_by else []
        self.having = having
        self.order_by = list(order_by) if order_by else []
        self.distinct = distinct
        self.top = top
        #: further SELECTs combined with UNION ALL (partitioned views)
        self.union_all = list(union_all) if union_all else []


class InsertStmt(Statement):
    def __init__(
        self,
        table: NamedTable,
        columns: Optional[Sequence[str]],
        rows: Optional[Sequence[Sequence[Expr]]] = None,
        select: Optional[SelectStmt] = None,
    ):
        self.table = table
        self.columns = list(columns) if columns else None
        self.rows = [list(r) for r in rows] if rows else None
        self.select = select


class UpdateStmt(Statement):
    def __init__(
        self,
        table: NamedTable,
        assignments: Sequence[tuple[str, Expr]],
        where: Optional[Expr] = None,
    ):
        self.table = table
        self.assignments = list(assignments)
        self.where = where


class DeleteStmt(Statement):
    def __init__(self, table: NamedTable, where: Optional[Expr] = None):
        self.table = table
        self.where = where


class ColumnDefSyntax(Node):
    def __init__(
        self,
        name: str,
        type_name: str,
        type_arg: Optional[int] = None,
        not_null: bool = False,
        primary_key: bool = False,
        check: Optional[Expr] = None,
    ):
        self.name = name
        self.type_name = type_name
        self.type_arg = type_arg
        self.not_null = not_null
        self.primary_key = primary_key
        self.check = check


class CreateTableStmt(Statement):
    def __init__(
        self,
        table: NamedTable,
        columns: Sequence[ColumnDefSyntax],
        table_checks: Sequence[tuple[Optional[str], Expr]] = (),
    ):
        self.table = table
        self.columns = list(columns)
        #: (constraint name, expr) pairs for table-level CHECKs
        self.table_checks = list(table_checks)


class CreateIndexStmt(Statement):
    def __init__(
        self,
        index_name: str,
        table: NamedTable,
        columns: Sequence[str],
        unique: bool = False,
    ):
        self.index_name = index_name
        self.table = table
        self.columns = list(columns)
        self.unique = unique


class CreateViewStmt(Statement):
    def __init__(
        self, view: NamedTable, select_sql: str, select: SelectStmt
    ):
        self.view = view
        #: the raw SELECT text, kept for display
        self.select_sql = select_sql
        #: the parsed body, bound afresh at every use of the view
        self.select = select


class CreateDatabaseStmt(Statement):
    def __init__(self, name: str):
        self.name = name


class DropTableStmt(Statement):
    def __init__(self, table: NamedTable):
        self.table = table


class SetStmt(Statement):
    """``SET <option> ON|OFF``, ``SET <option> <integer>`` or
    ``SET <option> '<string>'`` — a session setting.

    The engine interprets the option name; the parser only validates
    the shape.  Recognized options are ``PARTIAL_RESULTS`` (boolean),
    ``PARALLEL_DOP`` (integer degree of parallelism) and ``WORKLOAD
    GROUP`` (string workload-group name, stored as
    ``workload_group``).
    """

    def __init__(self, option: str, value: "bool | int | str"):
        self.option = option.lower()
        self.value = value


class ExplainStmt(Statement):
    """EXPLAIN [ANALYZE] [VERBOSE] <select>, or the parenthesized
    option-list form ``EXPLAIN (ANALYZE, VERBOSE) <select>``.

    Plain EXPLAIN returns the chosen plan instead of rows; ANALYZE also
    executes the plan and annotates it with actual row counts and
    per-operator timings; VERBOSE appends memo/search statistics.
    """

    def __init__(
        self,
        select: SelectStmt,
        analyze: bool = False,
        verbose: bool = False,
    ):
        self.select = select
        self.analyze = analyze
        self.verbose = verbose
