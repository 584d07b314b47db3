"""The executor's native SQL-order keys against the per-comparison
``SortKey`` paths they replaced.

``PhysicalSort``, MIN/MAX and the merge join choose a native key (or a
native comparison) from the values they hold, and fall back to
``SortKey`` only for kinds ``_cmp`` treats specially.  The references
below are those operators as they were when every comparison went
through ``SortKey``; the property is that rows come out identical —
same values, same types, same order, ties included.
"""

from __future__ import annotations

import datetime as dt
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import AggregateCall, ColumnRef
from repro.algebra.logical import SortKeySpec
from repro.core import physical as P
from repro.execution import ExecutionContext, executor
from repro.types.collation import DEFAULT_COLLATION
from repro.types.intervals import SortKey


# ----------------------------------------------------------------------
# the references: every comparison through SortKey
# ----------------------------------------------------------------------
def reference_sort(rows, keys):
    """Stable multi-key sort, keys applied last-to-first."""
    rows = list(rows)
    for ordinal, ascending in reversed(keys):
        rows.sort(key=lambda row: SortKey(row[ordinal]), reverse=not ascending)
    return rows


def _lt(a, b):
    return SortKey(a) < SortKey(b)


def reference_min_max(values):
    minimum = maximum = None
    for value in values:
        if value is None:
            continue
        if minimum is None or _lt(value, minimum):
            minimum = value
        if maximum is None or _lt(maximum, value):
            maximum = value
    return minimum, maximum


def reference_group_key(values):
    out = []
    for value in values:
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, str):
            value = DEFAULT_COLLATION.normalize(value)
        out.append(value)
    return tuple(out)


def reference_grouped_min_max(rows, group_ordinal, value_ordinal):
    groups = {}
    for row in rows:
        raw = (row[group_ordinal],)
        groups.setdefault(reference_group_key(raw), (raw, []))[1].append(
            row[value_ordinal]
        )
    return [raw + reference_min_max(values) for raw, values in groups.values()]


def reference_merge_join(left_rows, right_rows, left_ordinal, right_ordinal, kind):
    out = []
    i = j = 0
    while i < len(left_rows):
        left_value = left_rows[i][left_ordinal]
        if left_value is None:
            if kind == "anti_semi":
                out.append(left_rows[i])
            i += 1
            continue
        left_key = SortKey(left_value)
        while j < len(right_rows) and (
            right_rows[j][right_ordinal] is None
            or SortKey(right_rows[j][right_ordinal]) < left_key
        ):
            j += 1
        k = j
        matches = []
        while k < len(right_rows) and SortKey(right_rows[k][right_ordinal]) == left_key:
            matches.append(right_rows[k])
            k += 1
        if kind == "inner":
            out.extend(left_rows[i] + right_row for right_row in matches)
        elif kind == "semi" and matches:
            out.append(left_rows[i])
        elif kind == "anti_semi" and not matches:
            out.append(left_rows[i])
        i += 1
    return out


# ----------------------------------------------------------------------
# running the real operators over fixed rows
# ----------------------------------------------------------------------
class _Rows(P.PhysicalOp):
    """A leaf that yields the rows it was given."""

    def __init__(self, rows, cids):
        super().__init__()
        self.rows = rows
        self.cids = tuple(cids)

    def output_ids(self):
        return self.cids


def run(plan):
    runners = {_Rows: lambda node, ctx: iter(node.rows)}
    with mock.patch.dict(executor._RUNNERS, runners):
        return executor.execute_plan(plan, ExecutionContext())


def same(got, expected) -> bool:
    """Equal row for row, by value, type and spelling."""
    return [tuple(map(type, r)) for r in got] == [
        tuple(map(type, r)) for r in expected
    ] and list(map(repr, got)) == list(map(repr, expected))


def assert_same_outcome(plan, reference) -> None:
    """``plan`` returns what ``reference()`` returns, or raises what it
    raises (a Decimal never compares with a float NaN, either way)."""
    try:
        expected = reference()
    except Exception as error:
        with pytest.raises(type(error)):
            run(plan)
        return
    assert same(run(plan), expected)


# ----------------------------------------------------------------------
# value kinds: small pools, so duplicates (and so stability) show
# ----------------------------------------------------------------------
_INTS = st.integers(-4, 4)
_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.5, -2.5, float("inf"), float("-inf"), float("nan")]),
    st.integers(-4, 4).map(float),
)
_STRS = st.text(alphabet="aAbB", max_size=2)
_DATES = st.dates(dt.date(2000, 1, 1), dt.date(2000, 1, 4))
_DATETIMES = st.datetimes(dt.datetime(2000, 1, 1), dt.datetime(2000, 1, 4)).map(
    lambda v: v.replace(minute=0, second=0, microsecond=0, hour=v.hour % 2)
)
_DECIMALS = st.decimals(-3, 3, places=1)

KINDS = {
    "int": (_INTS,),
    "float": (_FLOATS,),
    "int/float": (_INTS, _FLOATS),
    "bool": (st.booleans(),),
    "bool/int": (st.booleans(), _INTS),
    "str": (_STRS,),
    "date": (_DATES,),
    "datetime": (_DATETIMES,),
    "date/datetime": (_DATES, _DATETIMES),
    "decimal": (_DECIMALS,),
    "decimal/int": (_DECIMALS, _INTS),
    "str/int": (_STRS, _INTS),
}


@st.composite
def columns(draw, width, max_rows=30):
    """Rows of ``width`` columns, each column of one drawn kind with
    NULLs mixed in, plus a trailing row number that makes ties visible."""
    kinds = [draw(st.sampled_from(sorted(KINDS))) for _ in range(width)]
    n = draw(st.integers(0, max_rows))
    cells = [
        draw(st.lists(st.one_of(st.none(), *KINDS[kind]), min_size=n, max_size=n))
        for kind in kinds
    ]
    return [tuple(col[i] for col in cells) + (i,) for i in range(n)]


class TestSort:
    @given(
        columns(3),
        st.lists(
            st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=3
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_the_sortkey_sort(self, rows, keys):
        child = _Rows(rows, (1, 2, 3, 4))
        plan = P.PhysicalSort(
            child, [SortKeySpec(ordinal + 1, ascending) for ordinal, ascending in keys]
        )
        assert_same_outcome(plan, lambda: reference_sort(rows, keys))

    def test_nulls_first_ascending_last_descending(self):
        rows = [(2, 0), (None, 1), (1, 2), (None, 3)]
        child = _Rows(rows, (1, 2))
        up = run(P.PhysicalSort(child, [SortKeySpec(1, True)]))
        down = run(P.PhysicalSort(child, [SortKeySpec(1, False)]))
        assert up == [(None, 1), (None, 3), (1, 2), (2, 0)]
        assert down == [(2, 0), (1, 2), (None, 1), (None, 3)]


class TestMinMax:
    @given(columns(2, max_rows=40))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_sortkey_comparisons(self, rows):
        calls = [
            AggregateCall("min", ColumnRef(1), 10),
            AggregateCall("max", ColumnRef(1), 11),
        ]
        assert_same_outcome(
            P.HashAggregate(_Rows(rows, (1, 2, 3)), (), calls),
            lambda: [reference_min_max(r[0] for r in rows)],
        )
        assert_same_outcome(
            P.HashAggregate(_Rows(rows, (1, 2, 3)), (2,), calls),
            lambda: reference_grouped_min_max(rows, 1, 0),
        )


class TestMergeJoin:
    @given(
        columns(1),
        columns(1),
        st.sampled_from(["inner", "semi", "anti_semi"]),
        st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_the_sortkey_merge(self, left, right, kind, presorted):
        if presorted:  # what the optimizer hands a merge join
            left, right = reference_sort(left, [(0, True)]), reference_sort(
                right, [(0, True)]
            )
        plan = P.MergeJoin(_Rows(left, (1, 2)), _Rows(right, (3, 4)), kind, 1, 3)
        assert_same_outcome(
            plan, lambda: reference_merge_join(left, right, 0, 0, kind)
        )

    def test_one_key_for_both_sides(self):
        # ints on one side, floats on the other: one native order, and
        # 2 meets 2.0 as SortKey has it
        left = [(1, "a"), (2, "b"), (3, "c")]
        right = [(2.0, "x"), (3.5, "y")]
        plan = P.MergeJoin(_Rows(left, (1, 2)), _Rows(right, (3, 4)), "inner", 1, 3)
        assert run(plan) == [(2, "b", 2.0, "x")]
