"""Aggregation operators.

Each aggregate call gets an accumulator that keeps only its own
function's state: COUNT counts, SUM and AVG keep a running total, MIN
and MAX keep the best value so far and make one comparison per row
(:func:`~repro.types.intervals.sql_precedes`).  DISTINCT is a filter in
front of any of them.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from repro.algebra.expressions import AggregateCall
from repro.core import physical as P
from repro.execution.context import ExecutionContext
from repro.types.intervals import sql_precedes
from repro.types.values import collation_key, equality_key

Row = tuple


class _CountRows:
    """COUNT(*): every row."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        self.count += 1

    def result(self) -> Any:
        return self.count


class _Count(_CountRows):
    """COUNT(expr): non-NULL values."""

    __slots__ = ()

    def add(self, value: Any) -> None:
        if value is not None:
            self.count += 1


class _Sum:
    """SUM: a running total; a value that will not add is counted but
    leaves the total alone."""

    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.count += 1
        if self.count == 1:
            self.total = value
            return
        try:
            self.total = self.total + value
        except TypeError:
            pass

    def result(self) -> Any:
        return self.total


class _Avg(_Sum):
    __slots__ = ()

    def result(self) -> Any:
        return None if self.count == 0 else self.total / self.count


class _Min:
    """MIN: the first value no later value sorts before."""

    __slots__ = ("best",)

    def __init__(self) -> None:
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is not None and (
            self.best is None or sql_precedes(value, self.best)
        ):
            self.best = value

    def result(self) -> Any:
        return self.best


class _Max(_Min):
    __slots__ = ()

    def add(self, value: Any) -> None:
        if value is not None and (
            self.best is None or sql_precedes(self.best, value)
        ):
            self.best = value


class _Distinct:
    """DISTINCT in front of an accumulator: each collation-folded value
    reaches it once."""

    __slots__ = ("inner", "seen")

    def __init__(self, inner: Any) -> None:
        self.inner = inner
        self.seen: set = set()

    def add(self, value: Any) -> None:
        if value is None:
            return
        folded = collation_key(value)
        if folded not in self.seen:
            self.seen.add(folded)
            self.inner.add(value)

    def result(self) -> Any:
        return self.inner.result()


_BY_FUNC = {
    "count": _Count, "sum": _Sum, "avg": _Avg, "min": _Min, "max": _Max,
}


def accumulator_for(call: AggregateCall) -> Any:
    """A fresh accumulator for one aggregate call over one group."""
    if call.argument is None:  # COUNT(*)
        return _CountRows()
    accumulator = _BY_FUNC[call.func]()
    return _Distinct(accumulator) if call.distinct else accumulator


def _accumulators(plan) -> list:
    return [accumulator_for(call) for call in plan.aggregates]


def _group_key(values: tuple) -> tuple:
    """Grouping key: numeric kinds unify and strings fold to the
    default collation's key, so ``GROUP BY``/``DISTINCT`` merge the
    same values ``=`` equates.  The first-seen raw tuple stays the
    group's representative."""
    return tuple(map(equality_key, values))


def _opened(plan, ctx: ExecutionContext):
    """What both aggregates fix at open: the group-key getter and the
    compiled arguments."""
    from repro.execution.executor import compile_expr, layout_of, tuple_getter

    child_layout = layout_of(plan.child)
    raw_key_of = tuple_getter([child_layout[cid] for cid in plan.group_by])
    arg_fns = [
        compile_expr(call.argument, child_layout, ctx)
        if call.argument is not None
        else None
        for call in plan.aggregates
    ]
    return raw_key_of, arg_fns


def run_hash_aggregate(
    plan: P.HashAggregate, ctx: ExecutionContext
) -> Iterator[Row]:
    from repro.execution.executor import open_plan

    raw_key_of, arg_fns = _opened(plan, ctx)
    params = ctx.params
    groups: Dict[tuple, tuple[tuple, list]] = {}
    for row in open_plan(plan.child, ctx):
        raw_key = raw_key_of(row)
        key = _group_key(raw_key)
        entry = groups.get(key)
        if entry is None:
            entry = groups[key] = (raw_key, _accumulators(plan))
        for accumulator, fn in zip(entry[1], arg_fns):
            accumulator.add(fn(row, params) if fn is not None else None)
    if not groups and not plan.group_by:
        # scalar aggregate over empty input yields one row of defaults
        yield tuple(a.result() for a in _accumulators(plan))
        return
    for raw_key, accumulators in groups.values():
        yield raw_key + tuple(a.result() for a in accumulators)


def run_stream_aggregate(
    plan: P.StreamAggregate, ctx: ExecutionContext
) -> Iterator[Row]:
    """Aggregation over group-key-sorted input."""
    from repro.execution.executor import open_plan

    raw_key_of, arg_fns = _opened(plan, ctx)
    params = ctx.params
    current_key: Optional[tuple] = None
    current_raw: tuple = ()
    accumulators: list = []
    for row in open_plan(plan.child, ctx):
        raw_key = raw_key_of(row)
        key = _group_key(raw_key)
        if current_key is None or key != current_key:
            if current_key is not None:
                yield current_raw + tuple(a.result() for a in accumulators)
            current_key = key
            current_raw = raw_key
            accumulators = _accumulators(plan)
        for accumulator, fn in zip(accumulators, arg_fns):
            accumulator.add(fn(row, params) if fn is not None else None)
    if current_key is not None:
        yield current_raw + tuple(a.result() for a in accumulators)
    elif not plan.group_by:
        yield tuple(a.result() for a in _accumulators(plan))
