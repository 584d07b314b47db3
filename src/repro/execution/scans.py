"""Leaf operators: scans, ranges, remote queries, provider rowsets."""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.core import physical as P
from repro.errors import ExecutionError
from repro.execution.context import ExecutionContext
from repro.network.ledger import (
    RemoteCommandSpan,
    current_ledger,
    current_trace,
)

Row = tuple


def _span_wrapped_rows(
    channel: Any, server_name: str, open_fn, description: str
) -> Iterator[Row]:
    """Lazily stream a remote rowset under a ``remote_command`` span.

    The span is created on the first pull — while the consuming
    operator's span is current — and re-entered around every subsequent
    pull, so per-batch network charges land on it even though the
    stream stays fully lazy.  The rowset itself is also opened inside
    the span (the command dispatch is part of the remote operation),
    and a stream the consumer abandons is closed inside it, so the
    message it was carrying is charged there too.
    """
    span = RemoteCommandSpan(
        current_ledger(), channel, server_name, description
    )
    rows: Iterator[Row] | None = None
    try:
        while True:
            with span:
                if rows is None:
                    rows = iter(open_fn())
                try:
                    row = next(rows)
                except StopIteration:
                    rows = None
                    return
            yield row
    finally:
        close = getattr(rows, "close", None)
        if close is not None:
            with span:
                close()


def _resilient_rows(server: Any, open_fn, description: str) -> Iterator[Row]:
    """Iterate a remote rowset, retrying under faults.

    Fault-free channels keep the original lazy streaming (bytes charge
    as the consumer pulls); when a trace is attached the stream runs
    under a per-rowset ``remote_command`` span.  With a fault injector
    attached, the rowset is materialized *inside* the retry scope
    instead: a mid-stream transient discards the partial transfer and
    re-opens the rowset, so the retry unit is the whole rowset and
    consumers never see duplicated rows.
    """
    channel = getattr(server, "channel", None)
    if channel is None or channel.fault_injector is None:
        if channel is not None and current_trace() is not None:
            return _span_wrapped_rows(
                channel, server.name, open_fn, description
            )
        return iter(open_fn())
    return iter(
        server.run_with_retry(
            lambda: list(open_fn()), description=description
        )
    )


def run_table_scan(plan: P.TableScan, ctx: ExecutionContext) -> Iterator[Row]:
    table = plan.table.local_table
    if table is None:
        raise ExecutionError(
            f"TableScan over non-local table {plan.table.qualified_name}"
        )
    return table.rows()


def run_index_range(plan: P.IndexRange, ctx: ExecutionContext) -> Iterator[Row]:
    table = plan.table.local_table
    if table is None:
        raise ExecutionError("IndexRange over non-local table")
    index = table.indexes[plan.index_name]
    domain = plan.domain
    if plan.dynamic_probe is not None:
        from repro.types.intervals import IntervalSet

        op, probe = plan.dynamic_probe
        value = probe.compile({})((), ctx.params)
        if value is None:
            return iter(())  # comparison with NULL selects nothing
        probe_domain = IntervalSet.from_comparison(op, value)
        domain = (
            probe_domain if domain is None else domain.intersect(probe_domain)
        )

    def generate() -> Iterator[Row]:
        intervals = domain.intervals if domain is not None else ()
        if not intervals:
            for __, rid in index.scan():
                yield table.fetch(rid)
            return
        for interval in intervals:
            for __, rid in index.set_range(interval):
                yield table.fetch(rid)

    rows = generate()
    if plan.residual is not None:
        from repro.execution.executor import compile_expr, layout_of

        predicate = compile_expr(plan.residual, layout_of(plan), ctx)
        params = ctx.params
        return (row for row in rows if predicate(row, params) is True)
    return rows


def run_remote_scan(plan: P.RemoteScan, ctx: ExecutionContext) -> Iterator[Row]:
    server = plan.table.provider
    if server is None:
        raise ExecutionError(
            f"RemoteScan without a provider: {plan.table.qualified_name}"
        )
    server.validate_schema_version(plan.table.table_name, plan.table.database)

    def open_rowset():
        return server.create_session().open_rowset(
            plan.table.table_name,
            schema_name=plan.table.schema_name,
            database_name=plan.table.database,
        )

    return _resilient_rows(
        server, open_rowset, f"scan:{plan.table.qualified_name}"
    )


def run_remote_range(plan: P.RemoteRange, ctx: ExecutionContext) -> Iterator[Row]:
    """IRowsetIndex range + IRowsetLocate bookmark fetch."""
    server = plan.table.provider
    if server is None:
        raise ExecutionError("RemoteRange without a provider")
    server.validate_schema_version(plan.table.table_name, plan.table.database)

    def generate() -> Iterator[Row]:
        session = server.create_session()
        for interval in plan.domain.intervals:
            index_rowset = session.open_index_rowset(
                plan.table.table_name,
                plan.index_name,
                range_interval=interval,
                database_name=plan.table.database,
            )
            bookmarks = [row[-1] for row in index_rowset]
            if not bookmarks:
                continue
            fetched = session.fetch_by_bookmarks(
                plan.table.table_name,
                bookmarks,
                database_name=plan.table.database,
            )
            yield from fetched

    rows = _resilient_rows(
        server, generate, f"range:{plan.table.qualified_name}"
    )
    if plan.residual is not None:
        from repro.execution.executor import compile_expr, layout_of

        predicate = compile_expr(plan.residual, layout_of(plan), ctx)
        params = ctx.params
        return (row for row in rows if predicate(row, params) is True)
    return rows


def run_remote_query(
    plan: P.RemoteQuery,
    ctx: ExecutionContext,
    outer_row: Sequence[Any] = (),
    outer_layout: dict | None = None,
) -> Iterator[Row]:
    """Execute a pushed SQL statement via ICommand.

    ``?`` markers bind from ``plan.param_exprs`` — plain parameters read
    the context's parameter bag; parameterized-join probes read the
    current ``outer_row``.
    """
    server = plan.server
    for database, table_name in plan.tables_referenced:
        server.validate_schema_version(table_name, database)
    if plan.param_exprs:
        layout = outer_layout or {}
        values = [
            expr.compile(layout)(outer_row, ctx.params)
            for expr in plan.param_exprs
        ]
    else:
        values = None

    def open_result():
        session = server.create_session()
        command = session.create_command()
        command.set_text(plan.sql_text)
        if values is not None:
            command.bind_parameters(values)
        return command.execute()

    ctx.record_remote_query(server.name, plan.sql_text)
    return _resilient_rows(server, open_result, f"query:{server.name}")


def run_provider_rowset(
    plan: P.ProviderRowsetScan, ctx: ExecutionContext
) -> Iterator[Row]:
    node = plan.node
    session = node.datasource.create_session()
    if node.command_text is not None:
        command = session.create_command()
        command.set_text(node.command_text)
        ctx.record_remote_query(node.label, node.command_text)
        return iter(command.execute())
    return iter(session.open_rowset(node.rowset_name))


def run_const_scan(plan: P.ConstScan, ctx: ExecutionContext) -> Iterator[Row]:
    params = ctx.params
    for row_exprs in plan.rows:
        compiled = [expr.compile({}) for expr in row_exprs]
        yield tuple(fn((), params) for fn in compiled)


def run_fulltext_lookup(
    plan: P.FullTextKeyLookup, ctx: ExecutionContext
) -> Iterator[Row]:
    """Figure 2's query-support path: (KEY, RANK) rows from the
    external search service."""
    binding = plan.binding
    catalog = binding.service.catalog(binding.catalog_name)
    for match in catalog.search(plan.query_text):
        yield (match.key, match.rank)
