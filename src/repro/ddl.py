"""DDL statement handlers: each applies one parsed statement to the
catalog; the engine's handler table runs every one inside the same
"write lock → run → purge stale plans" envelope."""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.constraints import _domain_of_boolean
from repro.core.linked_server import type_from_name
from repro.errors import TypeCheckError
from repro.sql import ast
from repro.sql.binder import TableBinder
from repro.storage.constraints import CheckConstraint, UniqueConstraint
from repro.types.schema import Column, Schema


def create_table(engine: Any, stmt: ast.CreateTableStmt) -> None:
    database, schema_name, table_name = engine.local_object(stmt.table)
    schema = Schema(
        [
            Column(
                d.name,
                type_from_name(
                    d.type_name
                    if d.type_arg is None
                    else f"{d.type_name}({d.type_arg})"
                ),
                nullable=not (d.not_null or d.primary_key),
            )
            for d in stmt.columns
        ]
    )
    table = database.create_table(table_name, schema, schema_name)
    born_at = table.schema_version
    for definition in stmt.columns:
        if definition.primary_key:
            table.add_constraint(
                UniqueConstraint([definition.name], primary_key=True)
            )
        if definition.check is not None:
            table.add_constraint(
                build_check(
                    engine,
                    f"ck_{table_name}_{definition.name}",
                    definition.check,
                    schema,
                )
            )
    for index, (constraint_name, check_expr) in enumerate(stmt.table_checks):
        table.add_constraint(
            build_check(
                engine,
                constraint_name or f"ck_{table_name}_{index}",
                check_expr,
                schema,
            )
        )
    # the constraints are part of the CREATE, not changes to the table
    table.schema_version = born_at


def build_check(
    engine: Any, name: str, expr: ast.Expr, schema: Schema
) -> CheckConstraint:
    """Bind a CHECK body and derive its symbolic domain when the
    expression constrains a single column with constants."""
    binder = TableBinder(engine, schema)
    bound = binder.bind(expr)
    compiled = bound.compile(binder.layout)

    def predicate(row: Sequence[Any], table_schema: Schema):
        return compiled(row, {})

    column_name = domain = None
    implied = _domain_of_boolean(bound)
    if implied is not None:
        cid, domain = implied
        definition = next(d for d in binder.defs if d.cid == cid)
        column_name = definition.name
        # normalize endpoint literals to the column's type so
        # routing/pruning compare like with like; a literal the type
        # cannot represent (``int_col < 1.5``) stays as written
        try:
            domain = domain.map_endpoints(definition.type.validate)
        except TypeCheckError:
            pass
    return CheckConstraint(name, predicate, column_name, domain)


def create_index(engine: Any, stmt: ast.CreateIndexStmt) -> None:
    database, schema_name, table_name = engine.local_object(stmt.table)
    table = database.table(table_name, schema_name)
    table.create_index(stmt.index_name, stmt.columns, stmt.unique)
    # create_index mutates the Table directly; bump the version so
    # cached plans compiled without the index recompile
    database.bump_schema_version()


def create_view(engine: Any, stmt: ast.CreateViewStmt) -> None:
    database, schema_name, view_name = engine.local_object(stmt.view)
    database.create_view(
        view_name,
        stmt.select_sql,
        schema_name,
        is_partitioned=bool(stmt.select.union_all),
        select=stmt.select,
    )


def create_database(engine: Any, stmt: ast.CreateDatabaseStmt) -> None:
    engine.catalog.create_database(stmt.name)


def drop_table(engine: Any, stmt: ast.DropTableStmt) -> None:
    database, schema_name, table_name = engine.local_object(stmt.table)
    database.drop_table(table_name, schema_name)

