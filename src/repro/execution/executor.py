"""The plan interpreter: physical operators → row iterators."""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from time import perf_counter
from typing import Callable, Dict, Iterator, Optional, Sequence

from repro.algebra.expressions import ColumnId, ColumnRef, ScalarExpr
from repro.core import physical as P
from repro.errors import ExecutionError
from repro.execution.context import ExecutionContext
from repro.execution.exchange import run_gather, run_gather_merge
from repro.execution.joins import (
    run_hash_join,
    run_merge_join,
    run_nl_join,
    run_parameterized_remote_join,
)
from repro.execution.aggregates import run_hash_aggregate, run_stream_aggregate
from repro.execution.scans import (
    run_const_scan,
    run_fulltext_lookup,
    run_index_range,
    run_provider_rowset,
    run_remote_query,
    run_remote_range,
    run_remote_scan,
    run_table_scan,
)
from repro.network.ledger import current_ledger
from repro.observability.profile import OperatorProfile
from repro.types.intervals import sql_sorted

Row = tuple

#: what ``next`` returns from an exhausted runner, inside the meter
_END = object()


def layout_of(plan: P.PhysicalOp) -> Dict[ColumnId, int]:
    """Column-id → ordinal mapping of a plan's output rows."""
    return {cid: i for i, cid in enumerate(plan.output_ids())}


def compile_expr(
    expr: ScalarExpr, plan_layout: Dict[ColumnId, int], ctx: ExecutionContext
):
    """Compile an expression against a layout, resolving subqueries."""
    resolved = ctx.resolve_scalar_subqueries(expr)
    return resolved.compile(plan_layout)


def tuple_getter(ordinals: Sequence[int]) -> Callable[[Row], Row]:
    """``row -> tuple(row[o] for o in ordinals)`` as one C call where it
    can be: ``itemgetter`` returns a bare value for a single ordinal, so
    that case (and the empty one) keeps the tuple shape itself."""
    if len(ordinals) > 1:
        return itemgetter(*ordinals)
    if ordinals:
        ordinal = ordinals[0]
        return lambda row: (row[ordinal],)
    return lambda row: ()


def open_plan(plan: P.PhysicalOp, ctx: ExecutionContext) -> Iterator[Row]:
    """Open a physical plan into a fresh iterator (re-openable).

    With no profiler and no trace on the context the runner's iterator
    is returned untouched (two ``is None`` tests per open).  Otherwise
    the open is counted now and the operator runs under :func:`_meter`.
    """
    profiler = ctx.profiler
    if profiler is None and ctx.trace is None:
        return _dispatch(plan, ctx)
    if profiler is None:
        profile = OperatorProfile(type(plan).__name__, plan.est_rows)
    else:
        profile = profiler.profile_for(plan)
    profile.opens += 1
    return _meter(plan, ctx, profile)


def _meter(
    plan: P.PhysicalOp, ctx: ExecutionContext, profile: OperatorProfile
) -> Iterator[Row]:
    """The one per-operator meter.  The runner is dispatched on the
    first pull, so its open-time work is this operator's; each pull is
    timed once, and the time feeds both the profile and the operator
    span.  The span is created on the first pull — under the consuming
    operator's span, so the span tree mirrors the plan tree — and
    re-entered around every later pull, so remote commands and point
    events nest under the operator whose pull caused them."""
    trace = ctx.trace
    span = rows = None
    while True:
        if trace is not None:
            if span is None:
                span = trace.begin_span(
                    "operator", operator=profile.label, node_id=id(plan)
                )
            else:
                trace.enter_span(span)
        opening = rows is None
        row = _END
        started = perf_counter()
        try:
            if opening:
                rows = _dispatch(plan, ctx)
            row = next(rows, _END)
        finally:
            ms = (perf_counter() - started) * 1000.0
            profile.pulled(ms, opening, row is not _END)
            if span is not None:
                span.duration_ms += ms
                trace.exit_span(span)
        if row is _END:
            return
        yield row


def _dispatch(plan: P.PhysicalOp, ctx: ExecutionContext) -> Iterator[Row]:
    runner = _RUNNERS.get(type(plan))
    if runner is None:
        raise ExecutionError(f"no executor for {type(plan).__name__}")
    return runner(plan, ctx)


def execute_plan(
    plan: P.PhysicalOp,
    ctx: Optional[ExecutionContext] = None,
) -> list[Row]:
    """Run a plan to completion.

    Once the rows are in, the operator tree is gone: every stream a
    TOP or a semi-join abandoned has been closed and charged, and
    every exchange worker joined.  A query budget that only such a
    close-time charge spent (a close cannot raise) fails the statement
    here, before any caller writes what the plan returned.
    """
    ctx = ctx or ExecutionContext()
    rows = list(open_plan(plan, ctx))
    ledger = current_ledger()
    if ledger is not None and ledger.budget is not None:
        ledger.budget.check()
    ctx.record_rows_produced(len(rows))
    return rows


# ----------------------------------------------------------------------
# simple unary operators
# ----------------------------------------------------------------------

def _run_filter(plan: P.Filter, ctx: ExecutionContext) -> Iterator[Row]:
    predicate = compile_expr(plan.predicate, layout_of(plan.child), ctx)
    params = ctx.params
    for row in open_plan(plan.child, ctx):
        if predicate(row, params) is True:
            yield row


def _run_startup_filter(
    plan: P.StartupFilter, ctx: ExecutionContext
) -> Iterator[Row]:
    """Evaluate the predicate *before* opening the child (Section 4.1.5:
    "the table scan ... will only be executed if the @customerId
    variable contains a value in the domain")."""
    predicate = compile_expr(plan.predicate, {}, ctx)
    if predicate((), ctx.params) is not True:
        ctx.record_startup_skip(plan)
        return iter(())
    return open_plan(plan.child, ctx)


def _run_project(plan: P.ComputeProject, ctx: ExecutionContext) -> Iterator[Row]:
    child_layout = layout_of(plan.child)
    compiled = [
        compile_expr(expr, child_layout, ctx) for __, expr in plan.outputs
    ]
    rows = open_plan(plan.child, ctx)
    if all(type(expr) is ColumnRef for __, expr in plan.outputs):
        # a column-only reshape (compiling above checked every column)
        yield from map(
            tuple_getter([child_layout[expr.cid] for __, expr in plan.outputs]),
            rows,
        )
        return
    params = ctx.params
    for row in rows:
        yield tuple(fn(row, params) for fn in compiled)


def _run_sort(plan: P.PhysicalSort, ctx: ExecutionContext) -> Iterator[Row]:
    child_layout = layout_of(plan.child)
    rows = list(open_plan(plan.child, ctx))
    # stable multi-key sort: apply keys last-to-first
    for key in reversed(plan.keys):
        rows = sql_sorted(
            rows, itemgetter(child_layout[key.cid]), reverse=not key.ascending
        )
    yield from rows


def _run_spool(plan: P.Spool, ctx: ExecutionContext) -> Iterator[Row]:
    # a stable key (not id(plan)), so a bounded replan after a
    # mid-query failure can reuse rows already spooled from a now-down
    # member
    cache_key = plan.cache_key()
    with ctx.spool_lock:
        cached = ctx.spool_cache.get(cache_key)
    if cached is None:
        # materialize outside the lock (the build may itself run
        # remote traffic); racing parallel workers both build, the
        # first insert wins and both read one consistent rowset
        rows = list(open_plan(plan.child, ctx))
        with ctx.spool_lock:
            cached = ctx.spool_cache.setdefault(cache_key, rows)
    else:
        ctx.record_spool_rescan(plan)
    yield from cached


def _run_concat(plan: P.Concat, ctx: ExecutionContext) -> Iterator[Row]:
    output_ids = plan.output_ids()
    for child, branch_map in zip(plan.children, plan.branch_maps):
        child_layout = layout_of(child)
        ordinals = [child_layout[branch_map[cid]] for cid in output_ids]
        rows = open_plan(child, ctx)
        if ordinals == list(range(len(child.output_ids()))):
            yield from rows  # the branch already has the output's shape
        else:
            yield from map(tuple_getter(ordinals), rows)


#: physical operator class -> runner(plan, ctx); looked up by exact
#: type, so a subclass (Gather is a Concat) never runs as its parent
_RUNNERS = {
    P.TableScan: run_table_scan,
    P.IndexRange: run_index_range,
    P.RemoteScan: run_remote_scan,
    P.RemoteRange: run_remote_range,
    P.RemoteQuery: run_remote_query,
    P.ProviderRowsetScan: run_provider_rowset,
    P.ConstScan: run_const_scan,
    P.FullTextKeyLookup: run_fulltext_lookup,
    P.Filter: _run_filter,
    P.StartupFilter: _run_startup_filter,
    P.ComputeProject: _run_project,
    P.PhysicalSort: _run_sort,
    P.PhysicalTop: lambda plan, ctx: islice(
        open_plan(plan.child, ctx), plan.count
    ),
    P.Spool: _run_spool,
    P.HashJoin: run_hash_join,
    P.NLJoin: run_nl_join,
    P.MergeJoin: run_merge_join,
    P.ParameterizedRemoteJoin: run_parameterized_remote_join,
    P.HashAggregate: run_hash_aggregate,
    P.StreamAggregate: run_stream_aggregate,
    P.Gather: run_gather,
    P.GatherMerge: run_gather_merge,
    P.Concat: _run_concat,
}
