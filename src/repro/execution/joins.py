"""Join operators: hash, nested-loops, merge, parameterized remote."""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from repro.core import physical as P
from repro.execution.context import ExecutionContext
from repro.types.intervals import native_sort_key
from repro.types.values import equality_key

Row = tuple


def _combined_layout(left: P.PhysicalOp, right: P.PhysicalOp) -> Dict[int, int]:
    layout: Dict[int, int] = {}
    position = 0
    for cid in left.output_ids():
        layout[cid] = position
        position += 1
    for cid in right.output_ids():
        layout[cid] = position
        position += 1
    return layout


def _hashable(values: tuple) -> Optional[tuple]:
    """Hash key for join values; None when any component is NULL (SQL
    equality never matches NULLs).  Strings fold to the default
    collation's key so hash joins agree with ``=``."""
    if None in values:
        return None
    return tuple(map(equality_key, values))


def run_hash_join(plan: P.HashJoin, ctx: ExecutionContext) -> Iterator[Row]:
    from repro.execution.executor import compile_expr, layout_of, open_plan

    left_layout = layout_of(plan.left)
    right_layout = layout_of(plan.right)
    left_keys = [compile_expr(k, left_layout, ctx) for k in plan.left_keys]
    right_keys = [compile_expr(k, right_layout, ctx) for k in plan.right_keys]
    params = ctx.params
    residual = None
    if plan.residual is not None:
        residual = compile_expr(
            plan.residual, _combined_layout(plan.left, plan.right), ctx
        )
    # build on the right input
    table: Dict[tuple, list[Row]] = {}
    for row in open_plan(plan.right, ctx):
        key = _hashable(tuple(fn(row, params) for fn in right_keys))
        if key is None:
            continue
        table.setdefault(key, []).append(row)
    right_width = len(plan.right.output_ids())
    null_right = (None,) * right_width
    for left_row in open_plan(plan.left, ctx):
        key = _hashable(tuple(fn(left_row, params) for fn in left_keys))
        matches = table.get(key, ()) if key is not None else ()
        if plan.kind == "inner":
            for right_row in matches:
                combined = left_row + right_row
                if residual is None or residual(combined, params) is True:
                    yield combined
        elif plan.kind == "left_outer":
            emitted = False
            for right_row in matches:
                combined = left_row + right_row
                if residual is None or residual(combined, params) is True:
                    emitted = True
                    yield combined
            if not emitted:
                yield left_row + null_right
        elif plan.kind == "semi":
            for right_row in matches:
                combined = left_row + right_row
                if residual is None or residual(combined, params) is True:
                    yield left_row
                    break
        elif plan.kind == "anti_semi":
            found = False
            for right_row in matches:
                combined = left_row + right_row
                if residual is None or residual(combined, params) is True:
                    found = True
                    break
            if not found:
                yield left_row


def run_nl_join(plan: P.NLJoin, ctx: ExecutionContext) -> Iterator[Row]:
    from repro.execution.executor import compile_expr, open_plan

    params = ctx.params
    condition = None
    if plan.condition is not None:
        condition = compile_expr(
            plan.condition, _combined_layout(plan.left, plan.right), ctx
        )
    right_width = len(plan.right.output_ids())
    null_right = (None,) * right_width
    for left_row in open_plan(plan.left, ctx):
        emitted = False
        for right_row in open_plan(plan.right, ctx):
            combined = left_row + right_row
            if condition is None or condition(combined, params) is True:
                if plan.kind == "semi":
                    emitted = True
                    break
                if plan.kind == "anti_semi":
                    emitted = True
                    break
                emitted = True
                yield combined
        if plan.kind == "semi" and emitted:
            yield left_row
        elif plan.kind == "anti_semi" and not emitted:
            yield left_row
        elif plan.kind == "left_outer" and not emitted:
            yield left_row + null_right


def run_parameterized_remote_join(
    plan: P.ParameterizedRemoteJoin, ctx: ExecutionContext
) -> Iterator[Row]:
    """Per outer row, execute the parameterized remote query
    (Section 4.1.2's parameterization rule at run time).

    Probe results are cached per distinct parameter vector within the
    execution, so duplicate outer keys cost one round trip, not many.
    """
    from repro.execution.executor import compile_expr, layout_of, open_plan
    from repro.execution.scans import run_remote_query

    left_layout = layout_of(plan.left)
    params = ctx.params
    residual = None
    if plan.residual is not None:
        residual = compile_expr(
            plan.residual, _combined_layout(plan.left, plan.inner_query), ctx
        )
    param_fns = [
        expr.compile(left_layout) for expr in plan.inner_query.param_exprs
    ]
    probe_cache: Dict[tuple, list[Row]] = {}
    for left_row in open_plan(plan.left, ctx):
        probe_key = _hashable(
            tuple(fn(left_row, params) for fn in param_fns)
        )
        if probe_key is not None and probe_key in probe_cache:
            inner_rows: Any = probe_cache[probe_key]
        else:
            inner_rows = list(
                run_remote_query(plan.inner_query, ctx, left_row, left_layout)
            )
            if probe_key is not None:
                probe_cache[probe_key] = inner_rows
        if plan.kind == "semi":
            for right_row in inner_rows:
                combined = left_row + right_row
                if residual is None or residual(combined, params) is True:
                    yield left_row
                    break
        else:  # inner
            for right_row in inner_rows:
                combined = left_row + right_row
                if residual is None or residual(combined, params) is True:
                    yield combined


def run_merge_join(plan: P.MergeJoin, ctx: ExecutionContext) -> Iterator[Row]:
    from repro.execution.executor import layout_of, open_plan, compile_expr

    left_layout = layout_of(plan.left)
    right_layout = layout_of(plan.right)
    left_ordinal = left_layout[plan.left_key]
    right_ordinal = right_layout[plan.right_key]
    params = ctx.params
    residual = None
    if plan.residual is not None:
        residual = compile_expr(
            plan.residual, _combined_layout(plan.left, plan.right), ctx
        )
    left_rows = list(open_plan(plan.left, ctx))
    right_rows = list(open_plan(plan.right, ctx))
    left_values = [row[left_ordinal] for row in left_rows]
    right_values = [row[right_ordinal] for row in right_rows]
    # one key for both inputs, so the two sides compare in one order
    key = native_sort_key(left_values + right_values)
    if key is not None:
        left_values = [None if v is None else key(v) for v in left_values]
        right_values = [None if v is None else key(v) for v in right_values]
    right_count = len(right_rows)
    j = 0
    for left_row, left_key in zip(left_rows, left_values):
        if left_key is None:
            if plan.kind == "anti_semi":
                yield left_row
            continue
        # advance right cursor
        while j < right_count and (
            right_values[j] is None or right_values[j] < left_key
        ):
            j += 1
        # collect the matching right run
        k = j
        matches = []
        while k < right_count and right_values[k] == left_key:
            matches.append(right_rows[k])
            k += 1
        if plan.kind == "inner":
            for right_row in matches:
                combined = left_row + right_row
                if residual is None or residual(combined, params) is True:
                    yield combined
        elif plan.kind == "semi":
            for right_row in matches:
                combined = left_row + right_row
                if residual is None or residual(combined, params) is True:
                    yield left_row
                    break
        elif plan.kind == "anti_semi":
            survived = True
            for right_row in matches:
                combined = left_row + right_row
                if residual is None or residual(combined, params) is True:
                    survived = False
                    break
            if survived:
                yield left_row
