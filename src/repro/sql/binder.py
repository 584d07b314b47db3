"""The algebrizer: AST → logical operator trees.

"At the beginning of optimization, both local and distributed queries
are algebrized in the same way" (Section 4.1.3): the binder resolves
names against the local catalog and linked servers, mints column
identities, expands views (including partitioned views into UNION ALL),
and — per Section 4.1.4 — unrolls EXISTS/IN subqueries into semi-joins
and anti-semi-joins.

The binder talks to the engine through the :class:`BindContext`
protocol so the SQL front end stays independent of the engine module.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Protocol, Sequence

from repro.algebra.expressions import (
    AggregateCall,
    BinaryOp,
    ColumnDef,
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
    conjoin,
    conjuncts,
    AGGREGATE_NAMES,
)
from repro.algebra.logical import (
    Aggregate,
    Get,
    Join,
    JoinKind,
    LogicalOp,
    Project,
    ProviderRowset,
    Select,
    Sort,
    SortKeySpec,
    TableRef,
    Top,
    UnionAll,
    Values,
)
from repro.errors import BindError
from repro.oledb.datasource import DataSource
from repro.sql import ast
from repro.storage.catalog import Database, ViewDefinition
from repro.storage.table import Table
from repro.types.datatypes import varchar


class FullTextBinding:
    """Links a table to its relational full-text catalog (Figure 2)."""

    __slots__ = ("service", "catalog_name", "key_column", "text_column")

    def __init__(self, service: Any, catalog_name: str, key_column: str, text_column: str):
        self.service = service
        self.catalog_name = catalog_name
        self.key_column = key_column
        self.text_column = text_column

    def reindex(
        self, schema: Any, old_row: Optional[tuple], new_row: Optional[tuple]
    ) -> None:
        """Keep the catalog in step with one row change of the table
        (``schema`` is the table's): drop ``old_row``'s entry, index
        ``new_row``."""
        catalog = self.service.catalog(self.catalog_name)
        key_ordinal = schema.ordinal_of(self.key_column)
        if old_row is not None:
            catalog.remove_row(old_row[key_ordinal])
        if new_row is not None:
            catalog.index_row(
                new_row[key_ordinal],
                new_row[schema.ordinal_of(self.text_column)],
            )

    def __repr__(self) -> str:
        return f"FullTextBinding({self.catalog_name}: {self.text_column})"


class BindContext(Protocol):
    """What the binder needs from the engine."""

    def local_database(self, name: Optional[str]) -> Database:
        ...

    def linked_server(self, name: str) -> Optional[Any]:
        """LinkedServer by name, or None."""
        ...

    def openrowset_datasource(
        self, provider: str, datasource: str, user: str, password: str
    ) -> DataSource:
        ...

    def maketable_datasource(self, provider_key: str) -> DataSource:
        ...

    def fulltext_binding(
        self, database: str, schema_name: str, table_name: str
    ) -> Optional[FullTextBinding]:
        ...

    def system_view(self, view_name: str) -> Optional[tuple]:
        """``sys.<view_name>`` as (columns, rows), or None if unknown."""
        ...


class ColumnRegistry:
    """Mints column identities and records their metadata."""

    def __init__(self) -> None:
        self._next = 1
        self.defs: Dict[ColumnId, ColumnDef] = {}

    def mint(
        self,
        name: str,
        type: Any,
        nullable: bool = True,
        source_alias: Optional[str] = None,
    ) -> ColumnDef:
        definition = ColumnDef(self._next, name, type, nullable, source_alias)
        self.defs[self._next] = definition
        self._next += 1
        return definition

    def ref(self, definition: ColumnDef) -> ColumnRef:
        return ColumnRef(
            definition.cid,
            f"{definition.source_alias}.{definition.name}"
            if definition.source_alias
            else definition.name,
            definition.type,
            definition.nullable,
        )


class Scope:
    """Name resolution scope: (alias, columns) pairs + optional outer."""

    def __init__(self, parent: Optional["Scope"] = None):
        self.entries: list[tuple[str, list[ColumnDef]]] = []
        self.parent = parent

    def add(self, alias: str, columns: Sequence[ColumnDef]) -> None:
        if any(a.lower() == alias.lower() for a, __ in self.entries):
            raise BindError(f"duplicate table alias {alias!r}")
        self.entries.append((alias, list(columns)))

    def all_ids(self) -> frozenset[ColumnId]:
        ids = set()
        for __, columns in self.entries:
            ids.update(c.cid for c in columns)
        return frozenset(ids)

    def resolve(
        self, name: str, qualifier: Optional[str] = None
    ) -> ColumnDef:
        matches = []
        for alias, columns in self.entries:
            if qualifier is not None and alias.lower() != qualifier.lower():
                continue
            for column in columns:
                if column.name.lower() == name.lower():
                    matches.append(column)
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            target = f"{qualifier}.{name}" if qualifier else name
            raise BindError(f"column {target!r} is ambiguous")
        if self.parent is not None:
            return self.parent.resolve(name, qualifier)
        target = f"{qualifier}.{name}" if qualifier else name
        raise BindError(f"column {target!r} not found")

    def columns_of(self, qualifier: Optional[str]) -> list[ColumnDef]:
        if qualifier is None:
            out = []
            for __, columns in self.entries:
                out.extend(columns)
            return out
        for alias, columns in self.entries:
            if alias.lower() == qualifier.lower():
                return list(columns)
        raise BindError(f"unknown table alias {qualifier!r}")


class BoundQuery:
    """A fully bound query: logical tree + output metadata."""

    def __init__(
        self,
        root: LogicalOp,
        registry: ColumnRegistry,
        output_defs: Sequence[ColumnDef],
        parameters: frozenset[str],
    ):
        self.root = root
        self.registry = registry
        self.output_defs = list(output_defs)
        self.parameters = parameters

    @property
    def output_names(self) -> list[str]:
        return [d.name for d in self.output_defs]

    def __repr__(self) -> str:
        return f"BoundQuery({self.root!r} -> {self.output_names})"


class Binder:
    """Binds one statement; one instance per compilation."""

    def __init__(self, context: BindContext, default_database: Optional[str] = None):
        self.context = context
        self.default_database = default_database
        self.registry = ColumnRegistry()
        self.parameters: set[str] = set()
        self._derived_counter = 0

    # ==================================================================
    # entry point
    # ==================================================================
    def bind_select(self, stmt: ast.SelectStmt) -> BoundQuery:
        root, output_defs = self._bind_select_full(stmt, outer=None)
        return BoundQuery(
            root, self.registry, output_defs, frozenset(self.parameters)
        )

    def _bind_select_full(
        self, stmt: ast.SelectStmt, outer: Optional[Scope]
    ) -> tuple[LogicalOp, list[ColumnDef]]:
        root, output_defs = self._bind_core(stmt, outer)
        core_scope = self._last_scope
        if stmt.union_all:
            branches = [(root, output_defs)]
            for branch_stmt in stmt.union_all:
                branches.append(self._bind_core(branch_stmt, outer))
            root, output_defs = self._bind_union(branches)
            core_scope = None  # union output is the only sort scope
        # ORDER BY applies to the combined result
        if stmt.order_by:
            keys = []
            hidden_keys = False
            for item in stmt.order_by:
                cid = self._resolve_order_target(
                    item.expr, output_defs, core_scope
                )
                if cid not in {d.cid for d in output_defs}:
                    hidden_keys = True
                keys.append(SortKeySpec(cid, item.ascending))
            if hidden_keys and isinstance(root, Project):
                # T-SQL allows ordering by non-projected source columns:
                # sort beneath the projection (projection preserves order)
                root = Project(
                    Sort(root.child, keys), root.outputs, root.column_defs
                )
            else:
                root = Sort(root, keys)
        # TOP applies after ORDER BY
        if stmt.top is not None and (stmt.union_all or stmt.order_by):
            root = Top(root, stmt.top)
        return root, output_defs

    _last_scope: Optional[Scope] = None

    def _bind_union(
        self, branches: list[tuple[LogicalOp, list[ColumnDef]]]
    ) -> tuple[LogicalOp, list[ColumnDef]]:
        """UNION ALL: positional column matching, fresh output ids."""
        first_defs = branches[0][1]
        arity = len(first_defs)
        for __, defs in branches[1:]:
            if len(defs) != arity:
                raise BindError(
                    "UNION ALL branches have different column counts"
                )
        output_defs = []
        for position, definition in enumerate(first_defs):
            branch_types = [defs[position].type for __, defs in branches]
            merged = branch_types[0]
            for t in branch_types[1:]:
                from repro.types.datatypes import common_super_type

                merged = common_super_type(merged, t)
            nullable = any(defs[position].nullable for __, defs in branches)
            output_defs.append(
                self.registry.mint(definition.name, merged, nullable)
            )
        branch_maps = []
        for __, defs in branches:
            branch_maps.append(
                {
                    output_defs[position].cid: defs[position].cid
                    for position in range(arity)
                }
            )
        root = UnionAll(
            [tree for tree, __ in branches], output_defs, branch_maps
        )
        return root, output_defs

    def _resolve_order_target(
        self,
        expr: ast.Expr,
        output_defs: list[ColumnDef],
        scope: Optional[Scope] = None,
    ) -> ColumnId:
        """ORDER BY targets: output column/alias, 1-based ordinal, or a
        source column not in the output (T-SQL extension)."""
        if isinstance(expr, ast.LiteralExpr) and isinstance(expr.value, int):
            index = expr.value - 1
            if not 0 <= index < len(output_defs):
                raise BindError(f"ORDER BY ordinal {expr.value} out of range")
            return output_defs[index].cid
        if isinstance(expr, ast.NameExpr):
            name = expr.parts[-1]
            qualifier = expr.parts[-2] if len(expr.parts) > 1 else None
            for definition in output_defs:
                if definition.name.lower() == name.lower() and (
                    qualifier is None
                    or (definition.source_alias or "").lower() == qualifier.lower()
                ):
                    return definition.cid
            if scope is not None:
                return scope.resolve(name, qualifier).cid
            raise BindError(f"ORDER BY column {name!r} is not in the output")
        raise BindError("ORDER BY supports output columns and ordinals")

    # ==================================================================
    # core SELECT (no union / order)
    # ==================================================================
    def _bind_core(
        self, stmt: ast.SelectStmt, outer: Optional[Scope]
    ) -> tuple[LogicalOp, list[ColumnDef]]:
        scope = Scope(outer)
        self._last_scope = scope
        if stmt.sources:
            tree = self._bind_source_list(stmt.sources, scope)
        else:
            tree = Values([()], [])  # single empty row: SELECT 1+1
        # WHERE (with subquery unrolling)
        if stmt.where is not None:
            tree = self._apply_where(tree, stmt.where, scope)
        # detect aggregation
        has_aggregates = any(
            self._contains_aggregate(item.expr) for item in stmt.items
        ) or (stmt.having is not None and self._contains_aggregate(stmt.having))
        if stmt.group_by or has_aggregates:
            tree, output_defs = self._bind_aggregation(stmt, tree, scope)
        else:
            tree, output_defs = self._bind_plain_projection(stmt, tree, scope)
        if stmt.distinct:
            tree = Aggregate(tree, tuple(d.cid for d in output_defs), ())
        if stmt.top is not None and not stmt.union_all and not stmt.order_by:
            tree = Top(tree, stmt.top)
        return tree, output_defs

    @staticmethod
    def _contains_aggregate(expr: ast.Expr) -> bool:
        """Does an AST expression contain an aggregate call?"""
        if isinstance(expr, ast.FuncExpr):
            if expr.name.lower() in AGGREGATE_NAMES:
                return True
            return any(Binder._contains_aggregate(a) for a in expr.args)
        if isinstance(expr, ast.BinaryExpr):
            return Binder._contains_aggregate(
                expr.left
            ) or Binder._contains_aggregate(expr.right)
        if isinstance(expr, (ast.NotExpr, ast.UnaryExpr)):
            return Binder._contains_aggregate(expr.operand)
        if isinstance(expr, ast.IsNullExpr):
            return Binder._contains_aggregate(expr.operand)
        if isinstance(expr, ast.LikeExpr):
            return Binder._contains_aggregate(
                expr.operand
            ) or Binder._contains_aggregate(expr.pattern)
        if isinstance(expr, ast.BetweenExpr):
            return (
                Binder._contains_aggregate(expr.operand)
                or Binder._contains_aggregate(expr.low)
                or Binder._contains_aggregate(expr.high)
            )
        if isinstance(expr, ast.InExpr) and expr.items is not None:
            return Binder._contains_aggregate(expr.operand) or any(
                Binder._contains_aggregate(i) for i in expr.items
            )
        if isinstance(expr, ast.CaseExpr):
            parts = [c for pair in expr.whens for c in pair]
            if expr.else_value is not None:
                parts.append(expr.else_value)
            return any(Binder._contains_aggregate(p) for p in parts)
        return False

    # ------------------------------------------------------------------
    # sources
    # ------------------------------------------------------------------
    def _bind_source_list(
        self, sources: Sequence[ast.TableSource], scope: Scope
    ) -> LogicalOp:
        tree: Optional[LogicalOp] = None
        for source in sources:
            node = self._bind_source(source, scope)
            tree = node if tree is None else Join(tree, node, JoinKind.CROSS)
        assert tree is not None
        return tree

    def _bind_source(self, source: ast.TableSource, scope: Scope) -> LogicalOp:
        if isinstance(source, ast.NamedTable):
            return self._bind_named_table(source, scope)
        if isinstance(source, ast.DerivedTable):
            return self._bind_derived(source, scope)
        if isinstance(source, ast.JoinSource):
            return self._bind_join(source, scope)
        if isinstance(source, ast.OpenRowsetSource):
            return self._bind_openrowset(source, scope)
        if isinstance(source, ast.OpenQuerySource):
            return self._bind_openquery(source, scope)
        if isinstance(source, ast.MakeTableSource):
            return self._bind_maketable(source, scope)
        raise BindError(f"unsupported table source {type(source).__name__}")

    def _bind_join(self, source: ast.JoinSource, scope: Scope) -> LogicalOp:
        left = self._bind_source(source.left, scope)
        right = self._bind_source(source.right, scope)
        kind = {
            "inner": JoinKind.INNER,
            "left_outer": JoinKind.LEFT_OUTER,
            "cross": JoinKind.CROSS,
        }[source.kind]
        condition = (
            self._bind_expr(source.condition, scope)
            if source.condition is not None
            else None
        )
        return Join(left, right, kind, condition)

    def _bind_named_table(
        self, source: ast.NamedTable, scope: Scope
    ) -> LogicalOp:
        parts = [p for p in source.parts]
        alias = source.alias
        # four-part: server.database.schema.table
        if len(parts) == 4:
            server_name, database, schema_name, table_name = parts
            server = self.context.linked_server(server_name)
            if server is None:
                raise BindError(f"unknown linked server {server_name!r}")
            return self._bind_remote_table(
                server, database or None, schema_name or "dbo", table_name, alias, scope
            )
        database: Optional[str] = None
        schema_name = "dbo"
        if len(parts) == 3:
            database, schema_name, table_name = parts
            schema_name = schema_name or "dbo"
        elif len(parts) == 2:
            schema_name, table_name = parts
        else:
            (table_name,) = parts
        if (
            database is None
            and schema_name.lower() == "sys"
            and hasattr(self.context, "system_view")
        ):
            bound = self._bind_system_view(table_name, alias, scope)
            if bound is not None:
                return bound
        db = self.context.local_database(database or self.default_database)
        table = db.maybe_table(table_name, schema_name)
        if table is not None:
            return self._bind_local_table(
                db, schema_name, table, alias, scope
            )
        view = db.maybe_view(table_name, schema_name)
        if view is not None:
            return self._bind_view(view, alias, scope)
        raise BindError(
            f"table or view {schema_name}.{table_name} not found"
        )

    def _bind_system_view(
        self, view_name: str, alias: str, scope: Scope
    ) -> Optional[LogicalOp]:
        """Bind ``sys.<view_name>`` as a constant table: rows are
        materialized at bind time, so the query sees a DMV-style
        snapshot of the instance's current state."""
        resolved = self.context.system_view(view_name)
        if resolved is None:
            return None
        columns, rows = resolved
        column_defs = [
            self.registry.mint(name, type_, True, alias)
            for name, type_ in columns
        ]
        literal_rows = [
            [Literal(value, d.type) for value, d in zip(row, column_defs)]
            for row in rows
        ]
        scope.add(alias, column_defs)
        return Values(literal_rows, column_defs)

    def _bind_local_table(
        self,
        database: Database,
        schema_name: str,
        table: Table,
        alias: str,
        scope: Scope,
    ) -> LogicalOp:
        column_defs = [
            self.registry.mint(c.name, c.type, c.nullable, alias)
            for c in table.schema
        ]
        fulltext = self.context.fulltext_binding(
            database.name, schema_name, table.name
        )
        ref = TableRef(
            table.name,
            alias,
            column_defs,
            database=database.name,
            schema_name=schema_name,
            local_table=table,
            check_domains=table.check_domains(),
            fulltext=fulltext,
        )
        scope.add(alias, column_defs)
        return Get(ref)

    def _bind_remote_table(
        self,
        server: Any,
        database: Optional[str],
        schema_name: str,
        table_name: str,
        alias: str,
        scope: Scope,
    ) -> LogicalOp:
        info = server.table_info(table_name, database)
        column_defs = [
            self.registry.mint(c.name, c.type, c.nullable, alias)
            for c in info.schema
        ]
        ref = TableRef(
            info.table_name,
            alias,
            column_defs,
            server=server.name,
            database=database,
            schema_name=schema_name,
            provider=server,
            remote_info=info,
            check_domains=info.check_domains,
        )
        scope.add(alias, column_defs)
        return Get(ref)

    def _bind_view(
        self, view: ViewDefinition, alias: str, scope: Scope
    ) -> LogicalOp:
        stmt = view.select
        if not isinstance(stmt, ast.SelectStmt):
            raise BindError(f"view {view.name} body is not a SELECT")
        root, output_defs = self._bind_select_full(stmt, outer=None)
        # re-alias the view's outputs under the use-site alias
        aliased = [
            ColumnDef(d.cid, d.name, d.type, d.nullable, alias)
            for d in output_defs
        ]
        for definition in aliased:
            self.registry.defs[definition.cid] = definition
        scope.add(alias, aliased)
        return root

    def _bind_derived(
        self, source: ast.DerivedTable, scope: Scope
    ) -> LogicalOp:
        root, output_defs = self._bind_select_full(source.subquery, outer=None)
        aliased = [
            ColumnDef(d.cid, d.name, d.type, d.nullable, source.alias)
            for d in output_defs
        ]
        for definition in aliased:
            self.registry.defs[definition.cid] = definition
        scope.add(source.alias, aliased)
        return root

    def _bind_openrowset(
        self, source: ast.OpenRowsetSource, scope: Scope
    ) -> LogicalOp:
        datasource = self.context.openrowset_datasource(
            source.provider, source.datasource, source.user, source.password
        )
        is_query = " " in source.query_or_table.strip()
        session = datasource.create_session()
        if is_query:
            command = session.create_command()
            command.set_text(source.query_or_table)
            schema = _describe_command(command)
            node_args = {"command_text": source.query_or_table}
        else:
            rowset = session.open_rowset(source.query_or_table)
            schema = rowset.schema
            node_args = {"rowset_name": source.query_or_table}
        column_defs = [
            self.registry.mint(c.name, c.type, c.nullable, source.alias)
            for c in schema
        ]
        scope.add(source.alias, column_defs)
        return ProviderRowset(
            f"OPENROWSET({source.provider})",
            datasource,
            column_defs,
            **node_args,
        )

    def _bind_openquery(
        self, source: ast.OpenQuerySource, scope: Scope
    ) -> LogicalOp:
        server = self.context.linked_server(source.server)
        if server is None:
            raise BindError(f"unknown linked server {source.server!r}")
        session = server.create_session()
        command = session.create_command()
        command.set_text(source.query_text)
        schema = _describe_command(command)
        column_defs = [
            self.registry.mint(c.name, c.type, c.nullable, source.alias)
            for c in schema
        ]
        scope.add(source.alias, column_defs)
        return ProviderRowset(
            f"OPENQUERY({source.server})",
            server.datasource,
            column_defs,
            command_text=source.query_text,
        )

    def _bind_maketable(
        self, source: ast.MakeTableSource, scope: Scope
    ) -> LogicalOp:
        datasource = self.context.maketable_datasource(source.provider)
        session = datasource.create_session()
        rowset_name = source.table if source.table else source.path
        rowset = session.open_rowset(rowset_name, path=source.path)
        column_defs = [
            self.registry.mint(c.name, c.type, c.nullable, source.alias)
            for c in rowset.schema
        ]
        scope.add(source.alias, column_defs)
        return ProviderRowset(
            f"MakeTable({source.provider})",
            datasource,
            column_defs,
            rowset_name=rowset_name,
        )

    # ------------------------------------------------------------------
    # WHERE + subquery unrolling
    # ------------------------------------------------------------------
    def _apply_where(
        self, tree: LogicalOp, where: ast.Expr, scope: Scope
    ) -> LogicalOp:
        plain: list[ScalarExpr] = []
        for conjunct in _ast_conjuncts(where):
            if isinstance(conjunct, ast.ExistsExpr):
                tree = self._bind_exists(tree, conjunct, scope, negated=False)
            elif isinstance(conjunct, ast.NotExpr) and isinstance(
                conjunct.operand, ast.ExistsExpr
            ):
                tree = self._bind_exists(
                    tree, conjunct.operand, scope, negated=True
                )
            elif isinstance(conjunct, ast.InExpr) and conjunct.subquery is not None:
                tree = self._bind_in_subquery(tree, conjunct, scope)
            else:
                plain.append(self._bind_expr(conjunct, scope))
        predicate = conjoin(plain)
        if predicate is not None:
            tree = Select(tree, predicate)
        return tree

    def _bind_exists(
        self,
        tree: LogicalOp,
        exists: ast.ExistsExpr,
        scope: Scope,
        negated: bool,
    ) -> LogicalOp:
        """EXISTS → semi-join; NOT EXISTS → anti-semi-join (Section 4.1.4)."""
        inner_tree, __, correlated = self._bind_subquery_source(
            exists.subquery, scope
        )
        kind = JoinKind.ANTI_SEMI if (negated or exists.negated) else JoinKind.SEMI
        return Join(tree, inner_tree, kind, conjoin(correlated))

    def _bind_in_subquery(
        self, tree: LogicalOp, in_expr: ast.InExpr, scope: Scope
    ) -> LogicalOp:
        """``x IN (SELECT y FROM ...)`` → semi-join on x = y;
        ``x NOT IN (...)`` → anti-semi-join on x = y OR x IS NULL OR
        y IS NULL, because NOT IN is not TRUE once x or any y is NULL
        (three-valued logic), and an anti-join drops an outer row as
        soon as one inner row satisfies its condition."""
        assert in_expr.subquery is not None
        subquery = in_expr.subquery
        if len(subquery.items) != 1 or isinstance(
            subquery.items[0].expr, ast.StarExpr
        ):
            raise BindError("IN subquery must select exactly one column")
        inner_tree, inner_scope, correlated = self._bind_subquery_source(
            subquery, scope
        )
        operand = self._bind_expr(in_expr.operand, scope)
        item = self._bind_expr(subquery.items[0].expr, inner_scope)
        match: ScalarExpr = BinaryOp("=", operand, item)
        if in_expr.negated:
            match = BinaryOp(
                "OR", BinaryOp("OR", match, IsNullOp(operand)), IsNullOp(item)
            )
        kind = JoinKind.ANTI_SEMI if in_expr.negated else JoinKind.SEMI
        return Join(tree, inner_tree, kind, conjoin([match] + correlated))

    def _bind_subquery_source(
        self, subquery: ast.SelectStmt, scope: Scope
    ) -> tuple[LogicalOp, Scope, list[ScalarExpr]]:
        """A WHERE subquery's FROM and WHERE, bound in a scope nested in
        ``scope``: the inner tree filtered by the conjuncts over its own
        columns, that scope, and the correlated conjuncts, which become
        part of the join condition."""
        inner_scope = Scope(parent=scope)
        inner_tree = self._bind_source_list(subquery.sources, inner_scope)
        inner_ids = inner_scope.all_ids()
        inner_only: list[ScalarExpr] = []
        correlated: list[ScalarExpr] = []
        if subquery.where is not None:
            for conjunct in _ast_conjuncts(subquery.where):
                bound = self._bind_expr(conjunct, inner_scope)
                if bound.references() <= inner_ids:
                    inner_only.append(bound)
                else:
                    correlated.append(bound)
        inner_pred = conjoin(inner_only)
        if inner_pred is not None:
            inner_tree = Select(inner_tree, inner_pred)
        return inner_tree, inner_scope, correlated

    # ------------------------------------------------------------------
    # projection & aggregation
    # ------------------------------------------------------------------
    def _bind_plain_projection(
        self, stmt: ast.SelectStmt, tree: LogicalOp, scope: Scope
    ) -> tuple[LogicalOp, list[ColumnDef]]:
        outputs: list[tuple[ColumnId, ScalarExpr]] = []
        output_defs: list[ColumnDef] = []
        for item in stmt.items:
            if isinstance(item.expr, ast.StarExpr):
                for definition in scope.columns_of(item.expr.qualifier):
                    outputs.append(
                        (definition.cid, self.registry.ref(definition))
                    )
                    output_defs.append(definition)
                continue
            bound = self._bind_expr(item.expr, scope)
            if isinstance(bound, ColumnRef) and item.alias is None:
                definition = self.registry.defs[bound.cid]
                outputs.append((definition.cid, bound))
                output_defs.append(definition)
            else:
                name = item.alias or _default_name(item.expr, len(outputs))
                definition = self.registry.mint(name, bound.type)
                outputs.append((definition.cid, bound))
                output_defs.append(definition)
        return Project(tree, outputs, output_defs), output_defs

    def _bind_aggregation(
        self, stmt: ast.SelectStmt, tree: LogicalOp, scope: Scope
    ) -> tuple[LogicalOp, list[ColumnDef]]:
        # 1. group keys: plain columns pass through; exprs pre-projected
        group_key_cids: list[ColumnId] = []
        group_key_exprs: list[tuple[ScalarExpr, ColumnDef]] = []
        pre_outputs: Optional[list[tuple[ColumnId, ScalarExpr]]] = None
        for group_expr in stmt.group_by:
            bound = self._bind_expr(group_expr, scope)
            if isinstance(bound, ColumnRef):
                group_key_cids.append(bound.cid)
                group_key_exprs.append(
                    (bound, self.registry.defs[bound.cid])
                )
            else:
                definition = self.registry.mint(
                    _default_name(group_expr, len(group_key_cids)), bound.type
                )
                group_key_cids.append(definition.cid)
                group_key_exprs.append((bound, definition))
        computed = [
            (d.cid, e) for e, d in group_key_exprs if not isinstance(e, ColumnRef)
        ]
        if computed:
            # pre-project: all input columns + computed group keys
            passthrough = [
                (cid, self.registry.ref(self.registry.defs[cid]))
                for cid in tree.output_ids()
            ]
            pre_outputs = passthrough + computed
            pre_defs = [self.registry.defs[cid] for cid, __ in pre_outputs]
            tree = Project(tree, pre_outputs, pre_defs)
        # 2. collect aggregate calls from items + having
        self._aggregate_map: Dict[tuple, ColumnDef] = {}
        aggregates: list[AggregateCall] = []

        def register_aggregate(func_expr: ast.FuncExpr) -> ColumnDef:
            argument = (
                None
                if func_expr.star
                else self._bind_expr(func_expr.args[0], scope)
            )
            key = (
                func_expr.name.lower(),
                func_expr.distinct,
                argument.sql_key() if argument is not None else None,
            )
            if key in self._aggregate_map:
                return self._aggregate_map[key]
            definition = self.registry.mint(
                _aggregate_name(func_expr), _aggregate_type(func_expr, argument)
            )
            call = AggregateCall(
                func_expr.name,
                argument,
                definition.cid,
                definition.name,
                func_expr.distinct,
            )
            aggregates.append(call)
            self._aggregate_map[key] = definition
            return definition

        self._register_aggregate = register_aggregate
        # bind select items with aggregate replacement; expressions that
        # structurally match a GROUP BY expression resolve to its key
        group_expr_keys = {
            expr.sql_key(): definition
            for expr, definition in group_key_exprs
        }
        outputs: list[tuple[ColumnId, ScalarExpr]] = []
        output_defs: list[ColumnDef] = []
        group_cid_set = set(group_key_cids)
        for item in stmt.items:
            if isinstance(item.expr, ast.StarExpr):
                raise BindError("SELECT * is invalid with GROUP BY")
            bound = self._bind_expr(item.expr, scope, in_aggregation=True)
            if bound.sql_key() in group_expr_keys:
                definition = group_expr_keys[bound.sql_key()]
                bound = self.registry.ref(definition)
            if isinstance(bound, ColumnRef) and item.alias is None:
                if (
                    bound.cid not in group_cid_set
                    and bound.cid
                    not in {d.cid for d in self._aggregate_map.values()}
                ):
                    raise BindError(
                        f"column {bound.display!r} must appear in GROUP BY "
                        "or inside an aggregate"
                    )
                definition = self.registry.defs[bound.cid]
                outputs.append((definition.cid, bound))
                output_defs.append(definition)
            else:
                refs = bound.references()
                allowed = group_cid_set | {
                    d.cid for d in self._aggregate_map.values()
                }
                if not refs <= allowed:
                    raise BindError(
                        "select expression mixes grouped and ungrouped columns"
                    )
                name = item.alias or _default_name(item.expr, len(outputs))
                definition = self.registry.mint(name, bound.type)
                outputs.append((definition.cid, bound))
                output_defs.append(definition)
        having_expr = (
            self._bind_expr(stmt.having, scope, in_aggregation=True)
            if stmt.having is not None
            else None
        )
        self._register_aggregate = None
        tree = Aggregate(tree, tuple(group_key_cids), tuple(aggregates))
        if having_expr is not None:
            tree = Select(tree, having_expr)
        tree = Project(tree, outputs, output_defs)
        return tree, output_defs

    # ------------------------------------------------------------------
    # scalar expressions
    # ------------------------------------------------------------------
    def _bind_expr(
        self,
        expr: ast.Expr,
        scope: Scope,
        in_aggregation: bool = False,
    ) -> ScalarExpr:
        if isinstance(expr, ast.LiteralExpr):
            return Literal(expr.value)
        if isinstance(expr, ast.ParamExpr):
            self.parameters.add(expr.name.lstrip("@"))
            return Parameter(expr.name)
        if isinstance(expr, ast.NameExpr):
            name = expr.parts[-1]
            qualifier = expr.parts[-2] if len(expr.parts) > 1 else None
            definition = scope.resolve(name, qualifier)
            return self.registry.ref(definition)
        if isinstance(expr, ast.UnaryExpr):
            operand = self._bind_expr(expr.operand, scope, in_aggregation)
            return BinaryOp("-", Literal(0), operand)
        if isinstance(expr, ast.BinaryExpr):
            return BinaryOp(
                expr.op,
                self._bind_expr(expr.left, scope, in_aggregation),
                self._bind_expr(expr.right, scope, in_aggregation),
            )
        if isinstance(expr, ast.NotExpr):
            return NotOp(self._bind_expr(expr.operand, scope, in_aggregation))
        if isinstance(expr, ast.IsNullExpr):
            return IsNullOp(
                self._bind_expr(expr.operand, scope, in_aggregation),
                expr.negated,
            )
        if isinstance(expr, ast.InExpr):
            if expr.subquery is not None:
                raise BindError(
                    "IN subqueries are supported only as top-level WHERE "
                    "conjuncts"
                )
            assert expr.items is not None
            return InListOp(
                self._bind_expr(expr.operand, scope, in_aggregation),
                [self._bind_expr(i, scope, in_aggregation) for i in expr.items],
                expr.negated,
            )
        if isinstance(expr, ast.BetweenExpr):
            operand = self._bind_expr(expr.operand, scope, in_aggregation)
            low = self._bind_expr(expr.low, scope, in_aggregation)
            high = self._bind_expr(expr.high, scope, in_aggregation)
            between = BinaryOp(
                "AND",
                BinaryOp(">=", operand, low),
                BinaryOp("<=", operand, high),
            )
            return NotOp(between) if expr.negated else between
        if isinstance(expr, ast.LikeExpr):
            return LikeOp(
                self._bind_expr(expr.operand, scope, in_aggregation),
                self._bind_expr(expr.pattern, scope, in_aggregation),
                expr.negated,
            )
        if isinstance(expr, ast.ContainsExpr):
            column = self._bind_expr(expr.column, scope)
            if not isinstance(column, ColumnRef):
                raise BindError("CONTAINS requires a column reference")
            query_text = expr.query_text
            if expr.freetext:
                # FREETEXT: any word matches, inflectional forms implied
                from repro.fulltext.tokenizer import tokenize

                words = tokenize(query_text)
                if not words:
                    raise BindError("FREETEXT requires at least one word")
                query_text = " OR ".join(
                    f"FORMSOF(INFLECTIONAL, {word})" for word in words
                )
            return ContainsPredicate(column, query_text)
        if isinstance(expr, ast.FuncExpr):
            if expr.name.lower() in AGGREGATE_NAMES:
                if not in_aggregation or self._register_aggregate is None:
                    raise BindError(
                        f"aggregate {expr.name} is not allowed here"
                    )
                definition = self._register_aggregate(expr)
                return self.registry.ref(definition)
            return FuncCall(
                expr.name,
                [self._bind_expr(a, scope, in_aggregation) for a in expr.args],
            )
        if isinstance(expr, ast.CaseExpr):
            return self._bind_case(expr, scope, in_aggregation)
        if isinstance(expr, ast.ExistsExpr):
            raise BindError(
                "EXISTS is supported only as a top-level WHERE conjunct"
            )
        if isinstance(expr, ast.ScalarSubqueryExpr):
            inner = Binder(self.context, self.default_database)
            inner.registry = self.registry  # share column id space
            bound = inner._bind_select_full(expr.subquery, outer=None)
            root, output_defs = bound
            if len(output_defs) != 1:
                raise BindError("scalar subquery must return one column")
            self.parameters.update(inner.parameters)
            return ScalarSubquery(root, output_defs[0].type)
        if isinstance(expr, ast.StarExpr):
            raise BindError("* is only valid in a select list")
        raise BindError(f"unsupported expression {type(expr).__name__}")

    _register_aggregate = None

    def _bind_case(
        self, expr: ast.CaseExpr, scope: Scope, in_aggregation: bool
    ) -> ScalarExpr:
        """Bind searched CASE into a dedicated expression node."""
        bound_parts: list[ScalarExpr] = []
        for condition, value in expr.whens:
            bound_parts.append(self._bind_expr(condition, scope, in_aggregation))
            bound_parts.append(self._bind_expr(value, scope, in_aggregation))
        if expr.else_value is not None:
            bound_parts.append(
                self._bind_expr(expr.else_value, scope, in_aggregation)
            )
        return _CaseExprNode(bound_parts, expr.else_value is not None)


class _CaseExprNode(ScalarExpr):
    """Searched CASE over pre-bound (condition, value) pairs."""

    def __init__(self, parts: list[ScalarExpr], has_else: bool):
        self.parts = tuple(parts)
        self.has_else = has_else
        value_exprs = [self.parts[i] for i in range(1, len(self.parts), 2)]
        self.type = value_exprs[0].type if value_exprs else varchar()

    def children(self) -> tuple[ScalarExpr, ...]:
        return self.parts

    def with_children(self, children: Sequence[ScalarExpr]) -> ScalarExpr:
        return _CaseExprNode(list(children), self.has_else)

    def references(self):
        refs = frozenset()
        for part in self.parts:
            refs |= part.references()
        return refs

    def compile(self, layout):
        pair_count = (len(self.parts) - (1 if self.has_else else 0)) // 2
        compiled = [part.compile(layout) for part in self.parts]
        has_else = self.has_else

        def evaluate(row, params):
            for i in range(pair_count):
                if compiled[2 * i](row, params) is True:
                    return compiled[2 * i + 1](row, params)
            if has_else:
                return compiled[-1](row, params)
            return None

        return evaluate

    def substitute(self, mapping):
        return _CaseExprNode(
            [part.substitute(mapping) for part in self.parts], self.has_else
        )

    def sql_key(self) -> tuple:
        return ("case", self.has_else, tuple(p.sql_key() for p in self.parts))

    def __repr__(self) -> str:
        return f"Case({len(self.parts)} parts)"


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _ast_conjuncts(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.BinaryExpr) and expr.op.upper() == "AND":
        return _ast_conjuncts(expr.left) + _ast_conjuncts(expr.right)
    return [expr]


def _default_name(expr: ast.Expr, index: int) -> str:
    if isinstance(expr, ast.NameExpr):
        return expr.parts[-1]
    if isinstance(expr, ast.FuncExpr):
        return expr.name.lower()
    return f"expr{index + 1}"


def _aggregate_name(expr: ast.FuncExpr) -> str:
    if expr.star:
        return f"{expr.name.lower()}_star"
    return expr.name.lower()


def _aggregate_type(expr: ast.FuncExpr, argument: Optional[ScalarExpr]):
    from repro.types.datatypes import FLOAT, INT

    name = expr.name.lower()
    if name == "count":
        return INT
    if name == "avg":
        return FLOAT
    if argument is not None:
        return argument.type
    return FLOAT


def _describe_command(command: Any):
    """Schema of a command's result without (or with one) execution."""
    describe = getattr(command, "describe", None)
    if describe is not None:
        try:
            schema = describe()
            if schema is not None:
                return schema
        except NotImplementedError:
            pass
    # fall back: execute once and look at the schema (results discarded)
    return command.execute().schema


class TableBinder:
    """Binds and compiles expressions over one table's own columns — a
    DML statement's WHERE and SET, a CHECK body, or (over no columns)
    a constant — with the registry, scope and row layout set up once."""

    def __init__(
        self,
        context: BindContext,
        schema: Sequence[Any] = (),
        table_name: Optional[str] = None,
    ):
        self._binder = Binder(context)
        self.defs = [
            self._binder.registry.mint(c.name, c.type, c.nullable, table_name)
            for c in schema
        ]
        self._scope = Scope()
        self._scope.add(table_name or "__check__", self.defs)
        self.layout = {d.cid: i for i, d in enumerate(self.defs)}

    def bind(self, expr: ast.Expr) -> ScalarExpr:
        return self._binder._bind_expr(expr, self._scope)

    def compile(self, expr: ast.Expr) -> Callable:
        """``expr`` as a ``(row, params) -> value`` closure."""
        return self.bind(expr).compile(self.layout)
