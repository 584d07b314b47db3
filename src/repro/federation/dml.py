"""INSERT / UPDATE / DELETE: one implementation over *write targets*.

A local table is a :class:`_LocalTarget` (storage calls, full-text
maintenance, the Halloween spool); a table on a linked server is a
:class:`_RemoteTarget` (the statement rendered as SQL text by one
renderer, :func:`_render_predicate`).  A plain name is one local
target, a four-part name one remote target in autocommit, and a
partitioned view one target per member under a distributed
transaction: rows route to the member whose CHECK-constraint domain
admits the partitioning value, every touched server contributes one
branch to the DTC (Section 2), and any failure rolls the whole
statement back atomically.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import cached_property, partial
from typing import Any, Callable, Dict, Iterator, Optional, Sequence

from repro.errors import (
    BindError,
    ConstraintError,
    ExecutionError,
    NetworkError,
    SqlError,
)
from repro.federation.partitioned_view import (
    PartitionMember,
    partition_members,
)
from repro.sql import ast
from repro.sql.binder import TableBinder
from repro.storage.catalog import DEFAULT_SCHEMA, Database, ViewDefinition
from repro.storage.table import Table
from repro.types.datatypes import infer_type

Params = Optional[Dict[str, Any]]


def _render_value(value: Any) -> str:
    if value is None:
        return "NULL"
    return infer_type(value).render_literal(value)


def _render_predicate(engine: Any, expr: ast.Expr, params: Params) -> str:
    """``expr`` (a SET value or a WHERE clause) as SQL text for the
    remote side, parameter values substituted as literals."""
    if isinstance(expr, ast.BinaryExpr):
        left = _render_predicate(engine, expr.left, params)
        right = _render_predicate(engine, expr.right, params)
        return f"({left} {expr.op} {right})"
    if isinstance(expr, ast.NotExpr):
        return f"(NOT {_render_predicate(engine, expr.operand, params)})"
    if isinstance(expr, ast.NameExpr):
        return expr.parts[-1]
    if isinstance(expr, ast.LiteralExpr):
        return _render_value(expr.value)
    if isinstance(expr, ast.ParamExpr):
        name = expr.name.lstrip("@")
        if params is None or name not in params:
            raise ExecutionError(f"parameter @{name} not supplied")
        return _render_value(params[name])
    if isinstance(expr, ast.IsNullExpr):
        middle = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"({_render_predicate(engine, expr.operand, params)} {middle})"
    if isinstance(expr, ast.BetweenExpr):
        operand = _render_predicate(engine, expr.operand, params)
        low = _render_predicate(engine, expr.low, params)
        high = _render_predicate(engine, expr.high, params)
        body = f"({operand} BETWEEN {low} AND {high})"
        return f"(NOT {body})" if expr.negated else body
    if isinstance(expr, ast.InExpr) and expr.items is not None:
        operand = _render_predicate(engine, expr.operand, params)
        items = ", ".join(
            _render_predicate(engine, item, params) for item in expr.items
        )
        middle = "NOT IN" if expr.negated else "IN"
        return f"({operand} {middle} ({items}))"
    # any other shape (-5, UPPER('x'), CASE ...) ships only when it is
    # a constant, folded to its value here
    try:
        value = TableBinder(engine).compile(expr)((), params or {})
    except BindError:
        raise ExecutionError(
            f"cannot render {type(expr).__name__} for a remote table"
        ) from None
    return _render_value(value)


# -- write targets ------------------------------------------------------

class _LocalTarget:
    """A table in this engine's storage.  ``txn()`` gives the local
    transaction a write joins (None = autocommit) and is asked only when
    a write is about to happen, so a partitioned-view statement enlists
    the local branch only if it touches a local member."""

    def __init__(
        self,
        engine: Any,
        database: Database,
        schema_name: str,
        table: Table,
        txn: Callable[[], Any],
    ):
        self.engine = engine
        self.table = table
        self.txn = txn
        self._fulltext = engine.fulltext_binding(
            database.name, schema_name, table.name
        )

    @cached_property
    def _binder(self) -> TableBinder:
        # built on first WHERE/SET, once per statement; INSERT needs none
        return TableBinder(self.engine, self.table.schema, self.table.name)

    def _reindex(self, old_row: Optional[tuple], new_row: Optional[tuple]):
        # full-text maintenance; ``new_row`` is as written, not coerced
        if self._fulltext is not None:
            schema = self.table.schema
            if new_row is not None:
                new_row = schema.validate_row(new_row)
            self._fulltext.reindex(schema, old_row, new_row)

    def insert(self, names: Optional[Sequence[str]], rows: list) -> int:
        for raw in rows:
            row = _arrange_insert_row(self.table, names, raw)
            self.table.insert(row, txn=self.txn())
            self._reindex(None, row)
        return len(rows)

    def _matching(self, where: Optional[ast.Expr], params: dict):
        """(rid, row) pairs the statement touches.  With Halloween
        protection on (the default) the scan is spooled before any
        modification — Section 4.1.4 notes the framework must manage
        such protective spools."""
        predicate = None if where is None else self._binder.compile(where)
        scan = (
            (rid, row)
            for rid, row in self.table.scan()
            if predicate is None or predicate(row, params) is True
        )
        return list(scan) if self.engine.halloween_protection else scan

    def update(self, assignments: list, where: Optional[ast.Expr],
               params: Params) -> int:
        params = params or {}
        setters = [
            (self.table.schema.ordinal_of(name), self._binder.compile(expr))
            for name, expr in assignments
        ]
        matching = self._matching(where, params)
        txn = self.txn()
        count = 0
        for rid, row in matching:
            new_row = list(row)
            for ordinal, value_of in setters:
                new_row[ordinal] = value_of(row, params)
            new_row = tuple(new_row)
            self._reindex(self.table.update(rid, new_row, txn=txn), new_row)
            count += 1
        return count

    def delete(self, where: Optional[ast.Expr], params: Params) -> int:
        matching = self._matching(where, params or {})
        txn = self.txn()
        count = 0
        for rid, __ in matching:
            self._reindex(self.table.delete(rid, txn=txn), None)
            count += 1
        return count


class _RemoteTarget:
    """A table on a linked server: each verb renders one SQL statement
    and hands it to ``ship``.  UPDATE and DELETE return None — the
    remote rowcount is not surfaced through the command."""

    def __init__(self, engine: Any, name: str, ship: Callable[[str], None]):
        self.engine = engine
        self.name = name
        self.ship = ship

    def _where(self, where: Optional[ast.Expr], params: Params) -> str:
        if where is None:
            return ""
        return f" WHERE {_render_predicate(self.engine, where, params)}"

    def insert(self, names: Optional[Sequence[str]], rows: list) -> int:
        if rows:
            columns_sql = f" ({', '.join(names)})" if names else ""
            values_sql = ", ".join(
                "(" + ", ".join(_render_value(v) for v in row) + ")"
                for row in rows
            )
            self.ship(
                f"INSERT INTO {self.name}{columns_sql} VALUES {values_sql}"
            )
        return len(rows)

    def update(self, assignments: list, where: Optional[ast.Expr],
               params: Params) -> None:
        set_sql = ", ".join(
            f"{name} = {_render_predicate(self.engine, expr, params)}"
            for name, expr in assignments
        )
        self.ship(
            f"UPDATE {self.name} SET {set_sql}{self._where(where, params)}"
        )

    def delete(self, where: Optional[ast.Expr], params: Params) -> None:
        self.ship(f"DELETE FROM {self.name}{self._where(where, params)}")


def _arrange_insert_row(
    table: Table, columns: Optional[Sequence[str]], raw: tuple
) -> tuple:
    if columns is None:
        return raw
    if len(columns) != len(raw):
        raise ExecutionError(
            f"INSERT specifies {len(columns)} columns but {len(raw)} values"
        )
    by_name = {c.lower(): v for c, v in zip(columns, raw)}
    return tuple(by_name.get(column.name.lower()) for column in table.schema)


def _four_part_target(engine: Any, named: ast.NamedTable) -> _RemoteTarget:
    """``server.db.schema.table`` in autocommit (Section 1: "query AND
    update capabilities ... natively built into the query processor"),
    with delayed schema validation first.  Dispatch runs under the
    server's retry policy: the channel raises transient faults *before*
    the remote side executes, so a retried statement never
    double-applies, and a down server raises
    :class:`~repro.errors.ServerUnavailableError` before any local
    state changes."""
    server_name, database_name, schema_name, table_name = named.parts
    server = engine.linked_server(server_name)
    if server is None:
        raise BindError(f"unknown linked server {server_name!r}")
    if not server.capabilities.is_sql_provider:
        raise SqlError(
            f"linked server {server_name!r} does not accept SQL DML"
        )

    def ship(sql_text: str) -> None:
        server.validate_schema_version(table_name, database_name)
        server.execute_command(sql_text)
        server.invalidate_metadata()  # remote cardinalities changed

    return _RemoteTarget(
        engine,
        f"{database_name}.{schema_name or DEFAULT_SCHEMA}.{table_name}",
        ship,
    )


def _locate(engine: Any, named: ast.NamedTable, txn: Any):
    """What a DML statement's table name denotes: ``(view location,
    None)`` for a view, else ``(None, the one write target)``."""
    if len(named.parts) == 4:
        return None, _four_part_target(engine, named)
    database, schema_name, name = engine.local_object(named)
    view = database.maybe_view(name, schema_name)
    if view is not None:
        return (database, schema_name, view), None
    return None, _LocalTarget(
        engine, database, schema_name, database.table(name, schema_name),
        lambda: txn,
    )


# -- the statements (the engine's handler table points here) -----------

def _source_rows(engine: Any, stmt: ast.InsertStmt, ctx: Any):
    """(rows to insert, the source SELECT's column names or None)."""
    if stmt.select is not None:
        source = engine.nested_select(stmt.select, ctx)
        return source.rows, source.columns
    constants = TableBinder(engine)
    params = ctx.params or {}
    return [
        tuple(constants.compile(expr)((), params) for expr in row)
        for row in stmt.rows
    ], None


def insert(engine: Any, stmt: ast.InsertStmt, ctx: Any) -> int:
    view_at, target = _locate(engine, stmt.table, ctx.txn)
    if view_at is not None:
        return insert_into_partitioned_view(engine, *view_at, stmt, ctx)
    rows, __ = _source_rows(engine, stmt, ctx)
    return target.insert(stmt.columns, rows)


def update(engine: Any, stmt: ast.UpdateStmt, ctx: Any) -> int:
    view_at, target = _locate(engine, stmt.table, ctx.txn)
    if view_at is not None:
        return update_partitioned_view(engine, *view_at, stmt, ctx)
    return _affected(
        [target.update(stmt.assignments, stmt.where, ctx.params)]
    )


def delete(engine: Any, stmt: ast.DeleteStmt, ctx: Any) -> int:
    view_at, target = _locate(engine, stmt.table, ctx.txn)
    if view_at is not None:
        return delete_from_partitioned_view(engine, *view_at, stmt, ctx)
    return _affected([target.delete(stmt.where, ctx.params)])


def _affected(counts: list) -> int:
    """Rows affected, known only when every target reports a count
    (-1 once any part of the statement shipped to a remote table)."""
    return -1 if None in counts else sum(counts)


# -- partitioned views: member targets under one distributed txn -------

class _RemoteBranch:
    """Resource-manager wrapper for a remote member's transaction branch.

    2PC protocol messages (PREPARE/COMMIT/ABORT) traverse the member's
    :class:`~repro.network.channel.NetworkChannel` as control messages
    *before* the remote branch acts, so injected channel faults hit the
    protocol exactly like any other remote command — and because the
    fault fires before the remote side executes, a retried message never
    double-applies.  ABORT tolerates an unreachable peer: under presumed
    abort a participant that never saw a commit decision rolls back
    unilaterally, so the coordinator's sweep must not wedge on it.
    """

    def __init__(self, server: Any, rm: Any):
        self.server = server
        self.rm = rm

    @property
    def channel(self) -> Any:
        return self.server.channel

    def _send(self, verb: str) -> None:
        name = getattr(self.rm, "name", "txn")
        self.server.channel.send_command(f"DTC {verb} {name}")

    def prepare(self) -> bool:
        self._send("PREPARE")
        return self.rm.prepare()

    def commit(self) -> None:
        self._send("COMMIT")
        self.rm.commit()

    def abort(self) -> None:
        try:
            self._send("ABORT")
        except NetworkError:
            pass  # presumed abort: the member rolls back on its own
        self.rm.abort()

    def touched_tables(self) -> frozenset:
        tables = getattr(self.rm, "touched_tables", None)
        return frozenset(tables()) if callable(tables) else frozenset()


class _DmlSession:
    """One partitioned-view statement's distributed transaction: the
    local branch and one session + branch per touched server, each
    enlisted on first use."""

    def __init__(self, engine: Any):
        self.engine = engine
        self.local_txn = None
        self.remote_sessions: Dict[str, Any] = {}
        self.dtxn = engine.dtc.begin()

    def local_transaction(self):
        if self.local_txn is None:
            self.local_txn = self.engine.begin_transaction()
            self.dtxn.enlist(self.engine.name, self.local_txn)
        return self.local_txn

    def execute_remote(self, server_name: str, sql_text: str) -> None:
        """Ship one member's DML in that server's branch.  Faults fire
        on the channel before the remote side executes, so a retried
        command never double-applies; a persistent failure propagates
        and the caller aborts the distributed transaction."""
        server = self.engine.linked_server(server_name)
        session = self.remote_sessions.get(server_name.lower())
        if session is None:
            session = server.create_session()
            self.remote_sessions[server_name.lower()] = session
            self.dtxn.enlist(
                server_name,
                _RemoteBranch(server, session.begin_transaction()),
            )
        server.execute_command(sql_text, session)

    def target(self, database: Database, member: PartitionMember):
        if member.is_remote:
            return _RemoteTarget(
                self.engine,
                f"{member.database_name or 'master'}."
                f"{member.schema_name}.{member.table_name}",
                partial(self.execute_remote, member.server_name),
            )
        return _LocalTarget(
            self.engine, database, member.schema_name,
            database.table(member.table_name, member.schema_name),
            self.local_transaction,
        )


@contextmanager
def _member_targets(
    engine: Any,
    database: Database,
    members: list[PartitionMember],
    ctx: Any,
) -> Iterator[list]:
    """The members' write targets, in member order, under one
    distributed transaction: committed when the block ends, aborted on
    any error (an in-doubt transaction is left for recovery)."""
    session = _DmlSession(engine)
    with ctx.span(
        "txn", txn_id=session.dtxn.txn_id, coordinator=engine.dtc.name
    ):
        try:
            yield [session.target(database, member) for member in members]
            engine.dtc.commit(session.dtxn)
        except Exception:
            if session.dtxn.state != session.dtxn.IN_DOUBT:
                engine.dtc.abort(session.dtxn)
            raise


def _members(
    engine: Any, database: Database, schema_name: str, view: ViewDefinition
) -> list[PartitionMember]:
    """The view's members, past the in-doubt resolver gate: DML that
    would touch a member (or local table) held by an in-doubt
    distributed transaction is refused."""
    members = partition_members(engine, database, schema_name, view)
    engine.dtc.check_accessible(
        servers={m.server_name for m in members if m.is_remote},
        tables={m.table_name for m in members},
    )
    return members


def insert_into_partitioned_view(
    engine: Any,
    database: Database,
    schema_name: str,
    view: ViewDefinition,
    stmt: ast.InsertStmt,
    ctx: Any,
) -> int:
    members = _members(engine, database, schema_name, view)
    rows, source_columns = _source_rows(engine, stmt, ctx)
    # column layout comes from the first member: its table if local,
    # the remote schema otherwise
    first = members[0]
    if first.is_remote:
        server = engine.linked_server(first.server_name)
        reference_schema = server.table_info(first.table_name).schema
    else:
        reference_schema = database.table(
            first.table_name, first.schema_name
        ).schema
    names = (
        stmt.columns or source_columns or [c.name for c in reference_schema]
    )
    partition_column = first.partition_column
    if partition_column is None:
        raise ConstraintError(
            f"view {view.name} has no partitioning CHECK constraints"
        )
    partition_ordinal = [n.lower() for n in names].index(
        partition_column.lower()
    )
    partition_type = reference_schema[
        reference_schema.ordinal_of(partition_column)
    ].type
    with _member_targets(engine, database, members, ctx) as targets:
        for raw in rows:
            value = partition_type.validate(raw[partition_ordinal])
            for member, target in zip(members, targets):
                if member.accepts(value):
                    target.insert(names, [raw])
                    break
            else:
                raise ConstraintError(
                    f"value {value!r} fits no partition of the view"
                )
        return len(rows)


def update_partitioned_view(
    engine: Any,
    database: Database,
    schema_name: str,
    view: ViewDefinition,
    stmt: ast.UpdateStmt,
    ctx: Any,
) -> int:
    """UPDATE fans out to every member (each applies its own WHERE);
    updates that would move a row across partitions are rejected, as in
    SQL Server 2000's first release of partitioned views."""
    members = _members(engine, database, schema_name, view)
    partition_column = members[0].partition_column
    if partition_column is not None and any(
        name.lower() == partition_column.lower()
        for name, __ in stmt.assignments
    ):
        raise ConstraintError(
            "updating the partitioning column through a partitioned view "
            "is not supported; DELETE + INSERT instead"
        )
    with _member_targets(engine, database, members, ctx) as targets:
        return _affected(
            [
                t.update(stmt.assignments, stmt.where, ctx.params)
                for t in targets
            ]
        )


def delete_from_partitioned_view(
    engine: Any,
    database: Database,
    schema_name: str,
    view: ViewDefinition,
    stmt: ast.DeleteStmt,
    ctx: Any,
) -> int:
    members = _members(engine, database, schema_name, view)
    with _member_targets(engine, database, members, ctx) as targets:
        return _affected(
            [t.delete(stmt.where, ctx.params) for t in targets]
        )
