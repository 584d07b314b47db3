"""The decoder: logical query trees → remote SQL text (Section 4.1.3).

"The decoder takes a logical query tree as its input and decodes it
into an equivalent SQL statement. ... When composing the SQL statement,
the decoder responds to different parameter settings of the connection
... e.g., the SQL dialect the remote sources support, data collation."

Operating over memo groups, the decoder implements Section 4.1.4's
framework extension: "not all logical alternatives in a specific group
may be remotable ... the implementation rule that transforms a logical
tree into a remote SQL statement requires special framework logic to
pick any remotable tree from the same group in the Memo."  Semi-joins,
for example, have "no direct SQL corollary" here and force the decoder
onto a sibling alternative.

Parameters decode to ``?`` markers; the corresponding expressions are
returned so the executor can bind them per execution (or per outer row
for parameterized remote joins).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.algebra.expressions import (
    AggregateCall,
    BinaryOp,
    ColumnId,
    ColumnRef,
    ContainsPredicate,
    FuncCall,
    InListOp,
    IsNullOp,
    LikeOp,
    Literal,
    NotOp,
    Parameter,
    ScalarExpr,
    ScalarSubquery,
)
from repro.algebra.logical import (
    Aggregate,
    EmptyTable,
    Get,
    Join,
    JoinKind,
    LogicalOp,
    Project,
    ProviderRowset,
    Select,
    Sort,
    Top,
    UnionAll,
    Values,
)
from repro.core.constraints import DomainTest
from repro.core.memo import Group
from repro.errors import DecoderError
from repro.oledb.properties import Operation, ProviderCapabilities


class DecodedQuery:
    """The decoder's output: SQL text + ordered parameter expressions."""

    __slots__ = ("sql_text", "params", "column_order", "tables")

    def __init__(
        self,
        sql_text: str,
        params: list[ScalarExpr],
        column_order: list[ColumnId],
        tables: list[str],
    ):
        self.sql_text = sql_text
        self.params = params
        self.column_order = column_order
        self.tables = tables

    def __repr__(self) -> str:
        return f"DecodedQuery({self.sql_text!r})"


class _FlatQuery:
    """One SELECT block being assembled."""

    def __init__(self) -> None:
        self.from_items: list[str] = []
        self.where: list[str] = []
        self.column_sql: Dict[ColumnId, str] = {}
        self.select_items: Optional[list[tuple[ColumnId, str]]] = None
        self.group_by: Optional[list[str]] = None
        self.order_by: Optional[list[str]] = None
        self.top: Optional[int] = None
        self.tables: list[str] = []

    @property
    def shaped(self) -> bool:
        """Has projection/grouping been fixed (further merging limited)?"""
        return self.select_items is not None or self.group_by is not None


class Decoder:
    """Decodes logical trees for one target provider."""

    def __init__(self, capabilities: ProviderCapabilities, server_name: str):
        self.capabilities = capabilities
        self.server_name = server_name
        self._params: list[ScalarExpr] = []
        self._derived_counter = 0

    # ==================================================================
    def decode_group(self, group: Group) -> DecodedQuery:
        """Decode a memo group, trying each alternative ("pick any
        remotable tree from the same group")."""
        self._params = []
        flat = self._group_to_flat(group)
        output_ids = list(group.properties.output_ids)
        sql = self._render(flat, output_ids)
        return DecodedQuery(sql, list(self._params), output_ids, flat.tables)

    def decode_tree(self, op: LogicalOp) -> DecodedQuery:
        """Decode a standalone logical tree (children are LogicalOps)."""
        self._params = []
        flat = self._op_to_flat(op, self._tree_child_to_flat)
        output_ids = list(op.output_ids())
        sql = self._render(flat, output_ids)
        return DecodedQuery(sql, list(self._params), output_ids, flat.tables)

    # ==================================================================
    # group plumbing
    # ==================================================================
    def _group_to_flat(self, group: Group) -> _FlatQuery:
        last_error: Optional[DecoderError] = None
        for expression in group.expressions:
            saved_params = list(self._params)
            try:
                return self._op_to_flat(
                    expression.op,
                    self._memo_child_to_flat,
                    expression.children,
                )
            except DecoderError as exc:
                self._params = saved_params
                last_error = exc
        raise last_error or DecoderError(
            f"group g{group.gid} has no remotable alternative"
        )

    def _memo_child_to_flat(self, child: Any) -> _FlatQuery:
        return self._group_to_flat(child)

    def _tree_child_to_flat(self, child: Any) -> _FlatQuery:
        return self._op_to_flat(child, self._tree_child_to_flat)

    # ==================================================================
    # per-operator decoding
    # ==================================================================
    def _op_to_flat(
        self,
        op: LogicalOp,
        child_fn,
        memo_children: Optional[tuple] = None,
    ) -> _FlatQuery:
        children = memo_children if memo_children is not None else op.inputs
        if isinstance(op, Get):
            return self._decode_get(op)
        if isinstance(op, Select):
            self._require(Operation.RESTRICT, "restriction")
            flat = child_fn(children[0])
            if flat.shaped:
                flat = self._wrap(flat)
            flat.where.append(self._expr(op.predicate, flat.column_sql))
            return flat
        if isinstance(op, Project):
            self._require(Operation.PROJECT, "projection")
            flat = child_fn(children[0])
            if flat.shaped and flat.group_by is None:
                flat = self._wrap(flat)
            items = []
            for cid, expr in op.outputs:
                items.append((cid, self._expr(expr, flat.column_sql)))
            flat.select_items = items
            for cid, text in items:
                flat.column_sql[cid] = text
            return flat
        if isinstance(op, Join):
            return self._decode_join(op, child_fn, children)
        if isinstance(op, Aggregate):
            return self._decode_aggregate(op, child_fn, children)
        if isinstance(op, Sort):
            self._require(Operation.SORT, "sorting")
            flat = child_fn(children[0])
            flat.order_by = [
                self._order_key(k.cid, k.ascending, flat) for k in op.keys
            ]
            return flat
        if isinstance(op, Top):
            self._require(Operation.TOP, "TOP")
            flat = child_fn(children[0])
            flat.top = op.count
            return flat
        if isinstance(op, UnionAll):
            return self._decode_union(op, child_fn, children)
        if isinstance(op, (Values, EmptyTable, ProviderRowset)):
            raise DecoderError(
                f"{type(op).__name__} has no remote SQL form"
            )
        raise DecoderError(f"cannot decode {type(op).__name__}")

    def _decode_get(self, op: Get) -> _FlatQuery:
        table = op.table
        if table.server != self.server_name:
            raise DecoderError(
                f"table {table.qualified_name} is not on server "
                f"{self.server_name}"
            )
        quote = self.capabilities.quote_identifier
        name_parts = []
        if table.database:
            name_parts.append(quote(table.database))
        if table.schema_name:
            name_parts.append(quote(table.schema_name))
        name_parts.append(quote(table.table_name))
        self._derived_counter += 1
        alias = f"t{self._derived_counter}_{table.alias}"
        flat = _FlatQuery()
        flat.from_items.append(f"{'.'.join(name_parts)} AS {quote(alias)}")
        flat.tables.append((table.database, table.table_name))
        for definition in table.columns:
            flat.column_sql[definition.cid] = (
                f"{quote(alias)}.{quote(definition.name)}"
            )
        return flat

    def _decode_join(self, op: Join, child_fn, children) -> _FlatQuery:
        if op.kind in (JoinKind.SEMI, JoinKind.ANTI_SEMI):
            # "the use of an abstract operator (such as a semi-join)
            # with no direct SQL corollary" — force a sibling alternative
            raise DecoderError("semi-join has no direct SQL corollary")
        self._require(Operation.JOIN, "join")
        left = child_fn(children[0])
        right = child_fn(children[1])
        if left.shaped or left.order_by or left.top:
            left = self._wrap(left)
        if right.shaped or right.order_by or right.top:
            right = self._wrap(right)
        flat = _FlatQuery()
        flat.tables = left.tables + right.tables
        flat.column_sql = {**left.column_sql, **right.column_sql}
        condition_sql = (
            self._expr(op.condition, flat.column_sql)
            if op.condition is not None
            else None
        )
        if op.kind == JoinKind.LEFT_OUTER:
            if len(left.from_items) > 1 or left.where:
                left = self._wrap(left)
                flat.column_sql.update(left.column_sql)
            if len(right.from_items) > 1 or right.where:
                right = self._wrap(right)
                flat.column_sql.update(right.column_sql)
            condition_sql = (
                self._expr(op.condition, flat.column_sql)
                if op.condition is not None
                else "1=1"
            )
            flat.from_items = [
                f"{left.from_items[0]} LEFT OUTER JOIN {right.from_items[0]} "
                f"ON {condition_sql}"
            ]
            flat.where = []
            return flat
        # inner/cross: comma-join + WHERE keeps the text canonical
        flat.from_items = left.from_items + right.from_items
        flat.where = left.where + right.where
        if condition_sql is not None:
            flat.where.append(condition_sql)
        return flat

    def _decode_aggregate(self, op: Aggregate, child_fn, children) -> _FlatQuery:
        self._require(Operation.GROUP_BY, "GROUP BY")
        self._require(Operation.AGGREGATE, "aggregation")
        flat = child_fn(children[0])
        if flat.shaped:
            flat = self._wrap(flat)
        items: list[tuple[ColumnId, str]] = []
        group_sql: list[str] = []
        for cid in op.group_by:
            text = flat.column_sql.get(cid)
            if text is None:
                raise DecoderError(f"group key #{cid} not in scope")
            items.append((cid, text))
            group_sql.append(text)
        for aggregate in op.aggregates:
            items.append(
                (aggregate.output_cid, self._aggregate(aggregate, flat.column_sql))
            )
        flat.select_items = items
        flat.group_by = group_sql
        for cid, text in items:
            flat.column_sql[cid] = text
        return flat

    def _decode_union(self, op: UnionAll, child_fn, children) -> _FlatQuery:
        self._require(Operation.UNION, "UNION ALL")
        quote = self.capabilities.quote_identifier
        branch_sqls = []
        for child, branch_map in zip(children, op.branch_maps):
            branch_flat = child_fn(child)
            ordered = []
            for definition in op.output_defs:
                branch_cid = branch_map[definition.cid]
                text = branch_flat.column_sql.get(branch_cid)
                if text is None:
                    raise DecoderError(
                        f"union branch misses column #{branch_cid}"
                    )
                ordered.append((definition.cid, f"{text} AS {quote(self._col_name(definition.cid))}"))
            branch_sqls.append(
                self._render_with_items(
                    branch_flat, [text for __, text in ordered]
                )
            )
        self._derived_counter += 1
        alias = f"u{self._derived_counter}"
        flat = _FlatQuery()
        flat.from_items.append(
            "(" + " UNION ALL ".join(branch_sqls) + f") AS {quote(alias)}"
        )
        for definition in op.output_defs:
            flat.column_sql[definition.cid] = (
                f"{quote(alias)}.{quote(self._col_name(definition.cid))}"
            )
        return flat

    # ==================================================================
    # rendering
    # ==================================================================
    @staticmethod
    def _col_name(cid: ColumnId) -> str:
        return f"c{cid}"

    def _wrap(self, flat: _FlatQuery) -> _FlatQuery:
        """Close a shaped block into a derived table."""
        if not self.capabilities.supports_nested_select:
            raise DecoderError(
                f"provider on {self.server_name} does not support nested "
                "SELECT statements"
            )
        quote = self.capabilities.quote_identifier
        inner_ids = (
            [cid for cid, __ in flat.select_items]
            if flat.select_items is not None
            else list(flat.column_sql)
        )
        # a column id may appear twice in the select list (SELECT a, a);
        # the derived table must expose it once or references to its
        # alias become ambiguous when the remote side re-binds
        inner_ids = list(dict.fromkeys(inner_ids))
        sql = self._render(flat, inner_ids)
        self._derived_counter += 1
        alias = f"d{self._derived_counter}"
        out = _FlatQuery()
        out.tables = list(flat.tables)
        out.from_items.append(f"({sql}) AS {quote(alias)}")
        for cid in inner_ids:
            out.column_sql[cid] = f"{quote(alias)}.{quote(self._col_name(cid))}"
        return out

    def _render(self, flat: _FlatQuery, output_ids: Sequence[ColumnId]) -> str:
        quote = self.capabilities.quote_identifier
        if flat.select_items is not None:
            chosen = {cid: text for cid, text in flat.select_items}
        else:
            chosen = flat.column_sql
        items = []
        for cid in output_ids:
            text = chosen.get(cid) or flat.column_sql.get(cid)
            if text is None:
                raise DecoderError(f"output column #{cid} not decodable")
            items.append(f"{text} AS {quote(self._col_name(cid))}")
        return self._render_with_items(flat, items)

    def _render_with_items(self, flat: _FlatQuery, items: list[str]) -> str:
        parts = ["SELECT"]
        if flat.top is not None:
            parts.append(f"TOP {flat.top}")
        parts.append(", ".join(items))
        if flat.from_items:
            parts.append("FROM " + ", ".join(flat.from_items))
        if flat.where:
            parts.append(
                "WHERE " + " AND ".join(f"({w})" for w in flat.where)
            )
        if flat.group_by:
            parts.append("GROUP BY " + ", ".join(flat.group_by))
        if flat.order_by:
            parts.append("ORDER BY " + ", ".join(flat.order_by))
        return " ".join(parts)

    def _order_key(
        self, cid: ColumnId, ascending: bool, flat: _FlatQuery
    ) -> str:
        # keys that are select items order by their output alias (the
        # receiving SQL front end resolves aliases, not arbitrary
        # expressions, after grouping)
        if flat.select_items is not None and any(
            item_cid == cid for item_cid, __ in flat.select_items
        ):
            text = self.capabilities.quote_identifier(self._col_name(cid))
        else:
            text = flat.column_sql.get(cid)
        if text is None:
            raise DecoderError(f"order key #{cid} not in scope")
        return text if ascending else f"{text} DESC"

    # ==================================================================
    # scalar expressions
    # ==================================================================
    def _require(self, operation: Operation, label: str) -> None:
        if not self.capabilities.can_remote(operation):
            raise DecoderError(
                f"provider on {self.server_name} cannot remote {label} "
                f"(level {self.capabilities.sql_support.name})"
            )

    def _expr(self, expr: ScalarExpr, column_sql: Dict[ColumnId, str]) -> str:
        if isinstance(expr, Literal):
            return self._literal(expr)
        if isinstance(expr, ColumnRef):
            text = column_sql.get(expr.cid)
            if text is None:
                raise DecoderError(
                    f"column {expr.display} (#{expr.cid}) not available on "
                    f"server {self.server_name}"
                )
            return text
        if isinstance(expr, Parameter):
            self._params.append(expr)
            return "?"
        if isinstance(expr, BinaryOp):
            left = self._expr(expr.left, column_sql)
            right = self._expr(expr.right, column_sql)
            return f"({left} {expr.op} {right})"
        if isinstance(expr, NotOp):
            return f"(NOT {self._expr(expr.operand, column_sql)})"
        if isinstance(expr, IsNullOp):
            middle = "IS NOT NULL" if expr.negated else "IS NULL"
            return f"({self._expr(expr.operand, column_sql)} {middle})"
        if isinstance(expr, InListOp):
            items = ", ".join(self._expr(i, column_sql) for i in expr.items)
            middle = "NOT IN" if expr.negated else "IN"
            return f"({self._expr(expr.operand, column_sql)} {middle} ({items}))"
        if isinstance(expr, LikeOp):
            middle = "NOT LIKE" if expr.negated else "LIKE"
            return (
                f"({self._expr(expr.operand, column_sql)} {middle} "
                f"{self._expr(expr.pattern, column_sql)})"
            )
        if isinstance(expr, FuncCall):
            return self._function(expr, column_sql)
        if isinstance(expr, (ContainsPredicate, DomainTest, ScalarSubquery)):
            raise DecoderError(
                f"{type(expr).__name__} cannot be decoded into remote SQL"
            )
        raise DecoderError(f"cannot decode expression {type(expr).__name__}")

    def _function(self, expr: FuncCall, column_sql: Dict[ColumnId, str]) -> str:
        args = [self._expr(a, column_sql) for a in expr.args]
        translations = {
            "upper": "UPPER",
            "lower": "LOWER",
            "abs": "ABS",
            "len": "LEN",
            "year": "YEAR",
        }
        if expr.name in translations:
            return f"{translations[expr.name]}({', '.join(args)})"
        raise DecoderError(f"function {expr.name}() has no remote SQL form")

    def _aggregate(
        self, aggregate: AggregateCall, column_sql: Dict[ColumnId, str]
    ) -> str:
        name = aggregate.func.upper()
        if aggregate.argument is None:
            inner = "*"
        else:
            inner = self._expr(aggregate.argument, column_sql)
        distinct = "DISTINCT " if aggregate.distinct else ""
        return f"{name}({distinct}{inner})"

    def _literal(self, literal: Literal) -> str:
        import datetime as _dt

        value = literal.value
        if value is None:
            return "NULL"
        if isinstance(value, (_dt.date, _dt.datetime)):
            iso = (
                value.isoformat(sep=" ")
                if isinstance(value, _dt.datetime)
                else value.isoformat()
            )
            if self.capabilities.date_literal_format == "odbc":
                marker = "ts" if isinstance(value, _dt.datetime) else "d"
                return f"{{{marker} '{iso}'}}"
            return f"'{iso}'"
        return literal.type.render_literal(value)
