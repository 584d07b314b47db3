"""Interval-set algebra for the constraint property framework.

Section 4.1.5 of the paper tracks the domain of every scalar expression
as a set of (possibly open-ended) intervals: e.g. after the predicate
``CustomerId > 50`` the domain of CustomerId narrows from [-inf, +inf]
to (50, +inf]; ``CustomerId IN (1, 5) OR CustomerId BETWEEN 50 AND 100``
derives [1,1] U [5,5] U [50,100].  The optimizer intersects these sets
to prove predicates unsatisfiable (static pruning) and to generate
startup filters (runtime pruning).

Endpoints are ordered via the same coercions as SQL comparison, so
interval sets work for numbers, strings, and dates alike.
"""

from __future__ import annotations

import datetime as _dt
import math
from typing import Any, Iterable, Optional, Sequence

from repro.types.collation import DEFAULT_COLLATION


class _Infinity:
    """A signed infinity that compares beyond every SQL value."""

    __slots__ = ("positive",)

    def __init__(self, positive: bool):
        self.positive = positive

    def __repr__(self) -> str:
        return "+inf" if self.positive else "-inf"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Infinity) and self.positive == other.positive

    def __hash__(self) -> int:
        return hash(("_Infinity", self.positive))


POS_INF = _Infinity(True)
NEG_INF = _Infinity(False)


def _cmp(a: Any, b: Any) -> int:
    """Total order over SQL values extended with +/-inf.

    Returns -1, 0, or 1.  Mixed-type endpoints that SQL cannot compare
    fall back to comparing type names, which keeps the algebra total
    (such intervals only ever arise from contradictory predicates and
    the result is still sound for pruning: we never prune unless the
    comparison is meaningful).
    """
    if a is b:
        return 0
    if isinstance(a, _Infinity):
        if isinstance(b, _Infinity):
            if a.positive == b.positive:
                return 0
            return 1 if a.positive else -1
        return 1 if a.positive else -1
    if isinstance(b, _Infinity):
        return -1 if b.positive else 1
    if isinstance(a, bool):
        a = int(a)
    if isinstance(b, bool):
        b = int(b)
    a, b = _coerce_pair(a, b)
    try:
        if a == b:
            return 0
        return -1 if a < b else 1
    except TypeError:
        ta, tb = type(a).__name__, type(b).__name__
        if ta == tb:
            return 0
        return -1 if ta < tb else 1


def _coerce_pair(a: Any, b: Any) -> tuple[Any, Any]:
    """Coerce mixed-kind endpoints the way SQL comparison would:
    strings against dates parse as dates, strings against numbers as
    numbers, dates against datetimes widen to datetimes; string pairs
    fold to the default collation's comparison key (case-insensitive,
    like SQL Server's Latin1_General_CI_AS)."""
    if isinstance(a, str) and isinstance(b, str):
        return _normalize(a), _normalize(b)
    if isinstance(a, str) and isinstance(b, (_dt.date, _dt.datetime)):
        parsed = _parse_temporal_endpoint(a, b)
        if parsed is not None:
            a = parsed
    elif isinstance(b, str) and isinstance(a, (_dt.date, _dt.datetime)):
        parsed = _parse_temporal_endpoint(b, a)
        if parsed is not None:
            b = parsed
    elif isinstance(a, str) and isinstance(b, (int, float)):
        try:
            a = float(a)
        except ValueError:
            pass
    elif isinstance(b, str) and isinstance(a, (int, float)):
        try:
            b = float(b)
        except ValueError:
            pass
    if (
        isinstance(a, _dt.datetime)
        and isinstance(b, _dt.date)
        and not isinstance(b, _dt.datetime)
    ):
        b = _dt.datetime(b.year, b.month, b.day)
    elif (
        isinstance(b, _dt.datetime)
        and isinstance(a, _dt.date)
        and not isinstance(a, _dt.datetime)
    ):
        a = _dt.datetime(a.year, a.month, a.day)
    return a, b


def _parse_temporal_endpoint(text: str, like: Any) -> Any:
    try:
        if isinstance(like, _dt.datetime):
            return _dt.datetime.fromisoformat(text)
        return _dt.date.fromisoformat(text)
    except ValueError:
        try:
            # SQL-Serverish loose dates: '1992-1-1'
            parts = [int(p) for p in text.split("-")]
            if len(parts) == 3:
                if isinstance(like, _dt.datetime):
                    return _dt.datetime(*parts)
                return _dt.date(*parts)
        except (ValueError, TypeError):
            pass
        return None


class SortKey:
    """Sort adapter imposing the SQL total order (``_cmp``) on values.

    Use as ``sorted(values, key=SortKey)`` wherever SQL values of mixed
    or non-Python-orderable kinds must be ordered (B-trees, histograms,
    ORDER BY).  NULLs sort first, matching SQL Server.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "SortKey") -> bool:
        if self.value is None:
            return other.value is not None
        if other.value is None:
            return False
        return _cmp(self.value, other.value) < 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SortKey):
            return NotImplemented
        if self.value is None or other.value is None:
            return self.value is None and other.value is None
        return _cmp(self.value, other.value) == 0

    def __le__(self, other: "SortKey") -> bool:
        return self < other or self == other

    def __hash__(self) -> int:
        return hash(repr(self.value))


def native_sort_key(values: Sequence[Any]):
    """The cheapest ``key=`` that orders the non-NULL ``values`` exactly
    as :class:`SortKey` would, chosen from the kinds of value present
    (NULLs are ignored; :func:`sql_sorted` places them).

    ``None`` means the values order themselves: ``int``/``float`` and
    ``date``/naive ``datetime`` columns compare natively just as
    ``_cmp`` compares them.  Strings sort on the default collation's
    comparison key.  Everything else — mixed kinds, ``bool`` (which
    ``_cmp`` widens to ``int``), ``Decimal``, aware datetimes (which
    ``_cmp`` cannot order), and floats that include NaN (which no
    order places consistently, so where it lands depends on the exact
    comparisons made) — keeps :class:`SortKey`.
    """
    kinds = set(map(type, values))
    kinds.discard(_NONE)
    if kinds <= _NUMBERS:
        return SortKey if float in kinds and _has_nan(values) else None
    if kinds == _STR:
        return _normalize
    if kinds == _DATE:
        return None
    if kinds == _DATETIME and all(
        v.tzinfo is None for v in values if v is not None
    ):
        return None
    return SortKey


def sql_sorted(items: Iterable[Any], value_of, reverse: bool = False) -> list:
    """``items`` stably sorted on ``value_of(item)`` in the SQL order:
    NULLs first, or last when ``reverse`` (DESC), the rest on
    :func:`native_sort_key`'s key — the order, ties included, of
    ``sorted(items, key=lambda i: SortKey(value_of(i)), reverse=reverse)``.
    """
    items = list(items)
    values = list(map(value_of, items))
    key = native_sort_key(values)
    if key is SortKey:
        # not a consistent order over these kinds: the exact comparisons
        # decide, so NULLs stay in the one sort, as SortKey places them
        return sorted(
            items, key=lambda item: SortKey(value_of(item)), reverse=reverse
        )
    nulls: list = []
    if None in values:
        nulls = [item for item, v in zip(items, values) if v is None]
        items = [item for item, v in zip(items, values) if v is not None]
        values = [v for v in values if v is not None]
    if key is None:
        ordered = sorted(items, key=value_of, reverse=reverse)
    else:
        keys = list(map(key, values))
        order = sorted(range(len(items)), key=keys.__getitem__, reverse=reverse)
        ordered = [items[i] for i in order]
    return ordered + nulls if reverse else nulls + ordered


def sql_precedes(a: Any, b: Any) -> bool:
    """``SortKey(a) < SortKey(b)`` for two non-NULL values, compared
    natively when both are numbers, both strings (on the collation
    key) or both dates; any other pair goes through ``_cmp``."""
    kind_a, kind_b = type(a), type(b)
    if kind_a in _NUMBERS and kind_b in _NUMBERS:
        return a < b
    if kind_a is kind_b:
        if kind_a is str:
            return _normalize(a) < _normalize(b)
        if kind_a is _dt.date:
            return a < b
    return _cmp(a, b) < 0


def _has_nan(values: Sequence[Any]) -> bool:
    try:
        return any(map(math.isnan, values))
    except (TypeError, OverflowError):  # NULLs, or ints past float range
        return any(v != v for v in values if v is not None)


_NONE = type(None)
_NUMBERS = frozenset({int, float})
_STR = frozenset({str})
_DATE = frozenset({_dt.date})
_DATETIME = frozenset({_dt.datetime})
_normalize = DEFAULT_COLLATION.normalize


class Interval:
    """A contiguous range of SQL values with open/closed endpoints."""

    __slots__ = ("low", "high", "low_closed", "high_closed")

    def __init__(
        self,
        low: Any = NEG_INF,
        high: Any = POS_INF,
        low_closed: bool = False,
        high_closed: bool = False,
    ):
        self.low = low
        self.high = high
        # infinite endpoints are always open
        self.low_closed = low_closed and not isinstance(low, _Infinity)
        self.high_closed = high_closed and not isinstance(high, _Infinity)

    # -- constructors ---------------------------------------------------
    @staticmethod
    def point(value: Any) -> "Interval":
        """The degenerate interval [value, value]."""
        return Interval(value, value, True, True)

    @staticmethod
    def at_least(value: Any, closed: bool = True) -> "Interval":
        return Interval(value, POS_INF, closed, False)

    @staticmethod
    def at_most(value: Any, closed: bool = True) -> "Interval":
        return Interval(NEG_INF, value, False, closed)

    @staticmethod
    def full() -> "Interval":
        return Interval()

    # -- predicates -----------------------------------------------------
    def is_empty(self) -> bool:
        c = _cmp(self.low, self.high)
        if c > 0:
            return True
        if c == 0:
            return not (self.low_closed and self.high_closed)
        return False

    def is_point(self) -> bool:
        return (
            self.low_closed
            and self.high_closed
            and _cmp(self.low, self.high) == 0
        )

    def contains(self, value: Any) -> bool:
        c_low = _cmp(value, self.low)
        if c_low < 0 or (c_low == 0 and not self.low_closed):
            return False
        c_high = _cmp(value, self.high)
        if c_high > 0 or (c_high == 0 and not self.high_closed):
            return False
        return True

    # -- algebra ---------------------------------------------------------
    def intersect(self, other: "Interval") -> "Interval":
        if _cmp(self.low, other.low) > 0:
            low, low_closed = self.low, self.low_closed
        elif _cmp(self.low, other.low) < 0:
            low, low_closed = other.low, other.low_closed
        else:
            low, low_closed = self.low, self.low_closed and other.low_closed
        if _cmp(self.high, other.high) < 0:
            high, high_closed = self.high, self.high_closed
        elif _cmp(self.high, other.high) > 0:
            high, high_closed = other.high, other.high_closed
        else:
            high, high_closed = self.high, self.high_closed and other.high_closed
        return Interval(low, high, low_closed, high_closed)

    def overlaps_or_adjacent(self, other: "Interval") -> bool:
        """True when union with ``other`` is a single interval."""
        if self.is_empty() or other.is_empty():
            return True
        lo, hi = (self, other) if _cmp(self.low, other.low) <= 0 else (other, self)
        c = _cmp(lo.high, hi.low)
        if c > 0:
            return True
        if c == 0:
            return lo.high_closed or hi.low_closed
        return False

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval covering both (assumes overlap/adjacency)."""
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        if _cmp(self.low, other.low) < 0:
            low, low_closed = self.low, self.low_closed
        elif _cmp(self.low, other.low) > 0:
            low, low_closed = other.low, other.low_closed
        else:
            low, low_closed = self.low, self.low_closed or other.low_closed
        if _cmp(self.high, other.high) > 0:
            high, high_closed = self.high, self.high_closed
        elif _cmp(self.high, other.high) < 0:
            high, high_closed = other.high, other.high_closed
        else:
            high, high_closed = self.high, self.high_closed or other.high_closed
        return Interval(low, high, low_closed, high_closed)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        if self.is_empty() and other.is_empty():
            return True
        return (
            _cmp(self.low, other.low) == 0
            and _cmp(self.high, other.high) == 0
            and self.low_closed == other.low_closed
            and self.high_closed == other.high_closed
        )

    def __hash__(self) -> int:
        if self.is_empty():
            return hash("empty-interval")
        return hash((repr(self.low), repr(self.high), self.low_closed, self.high_closed))

    def __repr__(self) -> str:
        lo = "[" if self.low_closed else "("
        hi = "]" if self.high_closed else ")"
        return f"{lo}{self.low!r}, {self.high!r}{hi}"


class IntervalSet:
    """A canonical union of disjoint, sorted intervals.

    This is the ``domain property`` of a scalar expression in the
    constraint property framework.  The set is normalized on
    construction: empty intervals dropped, overlapping/adjacent
    intervals merged, results sorted by lower bound.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[Interval] = ()):
        self.intervals: tuple[Interval, ...] = self._normalize(intervals)

    @staticmethod
    def _normalize(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
        live = [iv for iv in intervals if not iv.is_empty()]
        if not live:
            return ()
        # insertion sort by lower bound under _cmp (endpoints are not
        # directly orderable by Python when infinities are involved)
        ordered: list[Interval] = []
        for iv in live:
            idx = len(ordered)
            while idx > 0 and _cmp(ordered[idx - 1].low, iv.low) > 0:
                idx -= 1
            ordered.insert(idx, iv)
        merged: list[Interval] = [ordered[0]]
        for iv in ordered[1:]:
            if merged[-1].overlaps_or_adjacent(iv):
                merged[-1] = merged[-1].hull(iv)
                # the hull may have closed an endpoint and become
                # adjacent to earlier intervals: re-merge backwards
                while len(merged) >= 2 and merged[-2].overlaps_or_adjacent(
                    merged[-1]
                ):
                    tail = merged.pop()
                    merged[-1] = merged[-1].hull(tail)
            else:
                merged.append(iv)
        return tuple(merged)

    # -- constructors ---------------------------------------------------
    @staticmethod
    def full() -> "IntervalSet":
        return IntervalSet([Interval.full()])

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet()

    @staticmethod
    def point(value: Any) -> "IntervalSet":
        return IntervalSet([Interval.point(value)])

    @staticmethod
    def points(values: Sequence[Any]) -> "IntervalSet":
        return IntervalSet([Interval.point(v) for v in values])

    @staticmethod
    def from_comparison(op: str, value: Any) -> "IntervalSet":
        """Domain implied by ``column <op> value``."""
        if op == "=":
            return IntervalSet.point(value)
        if op == "<":
            return IntervalSet([Interval.at_most(value, closed=False)])
        if op == "<=":
            return IntervalSet([Interval.at_most(value, closed=True)])
        if op == ">":
            return IntervalSet([Interval.at_least(value, closed=False)])
        if op == ">=":
            return IntervalSet([Interval.at_least(value, closed=True)])
        if op in ("<>", "!="):
            return IntervalSet(
                [
                    Interval(NEG_INF, value, False, False),
                    Interval(value, POS_INF, False, False),
                ]
            )
        return IntervalSet.full()

    # -- predicates -----------------------------------------------------
    def is_empty(self) -> bool:
        return not self.intervals

    def is_full(self) -> bool:
        return (
            len(self.intervals) == 1
            and isinstance(self.intervals[0].low, _Infinity)
            and isinstance(self.intervals[0].high, _Infinity)
            and not self.intervals[0].low.positive
            and self.intervals[0].high.positive
        )

    def contains(self, value: Any) -> bool:
        return any(iv.contains(value) for iv in self.intervals)

    def single_point(self) -> Optional[Any]:
        """The sole value of a one-point domain, else None."""
        if len(self.intervals) == 1 and self.intervals[0].is_point():
            return self.intervals[0].low
        return None

    # -- algebra ---------------------------------------------------------
    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        for a in self.intervals:
            for b in other.intervals:
                piece = a.intersect(b)
                if not piece.is_empty():
                    out.append(piece)
        return IntervalSet(out)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.intervals + other.intervals)

    def map_endpoints(self, fn) -> "IntervalSet":
        """Apply ``fn`` to every finite endpoint (type normalization)."""
        out = []
        for iv in self.intervals:
            low = iv.low if isinstance(iv.low, _Infinity) else fn(iv.low)
            high = iv.high if isinstance(iv.high, _Infinity) else fn(iv.high)
            out.append(Interval(low, high, iv.low_closed, iv.high_closed))
        return IntervalSet(out)

    def disjoint_from(self, other: "IntervalSet") -> bool:
        """True when no value satisfies both domains — the static
        pruning test of Section 4.1.5."""
        return self.intersect(other).is_empty()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:
        if not self.intervals:
            return "{}"
        return " U ".join(repr(iv) for iv in self.intervals)
