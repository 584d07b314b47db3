"""Equi-depth histograms.

Modeled on SQL Server's statistics objects: each bucket records an
upper-bound key, the number of rows equal to that key, the number of
rows strictly inside the bucket (below the bound, above the previous
bound), and the number of distinct values inside.  Histograms are built
from a sample of column values and support estimation of equality and
range selectivities.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Any, Iterable, Optional, Sequence

from repro.types.intervals import Interval, IntervalSet, _cmp, native_sort_key

_first = itemgetter(0)


class HistogramBucket:
    """One step of an equi-depth histogram."""

    __slots__ = ("upper_bound", "equal_rows", "range_rows", "distinct_range")

    def __init__(
        self,
        upper_bound: Any,
        equal_rows: float,
        range_rows: float,
        distinct_range: float,
    ):
        self.upper_bound = upper_bound
        self.equal_rows = equal_rows
        self.range_rows = range_rows
        self.distinct_range = distinct_range

    def __repr__(self) -> str:
        return (
            f"Bucket(<= {self.upper_bound!r}: eq={self.equal_rows}, "
            f"range={self.range_rows}, distinct={self.distinct_range})"
        )


class Histogram:
    """An equi-depth histogram over one column.

    ``null_rows`` counts NULLs, which live outside all buckets (SQL
    comparisons never select them).
    """

    def __init__(self, buckets: Sequence[HistogramBucket], null_rows: float = 0.0):
        self.buckets = list(buckets)
        self.null_rows = float(null_rows)

    # -- construction ----------------------------------------------------
    @staticmethod
    def build(values: Iterable[Any], max_buckets: int = 32) -> "Histogram":
        """Build an equi-depth histogram from raw column values.

        One pass: split off NULLs, sort on the cheapest key that keeps
        the SQL order (:func:`~repro.types.intervals.native_sort_key`),
        group equal keys into runs.  The sort is stable, so a run is
        represented by the value that came first in ``values``.
        """
        if not isinstance(values, (list, tuple)):
            values = list(values)
        non_null = [v for v in values if v is not None]
        null_rows = len(values) - len(non_null)
        if not non_null:
            return Histogram([], null_rows)
        key = native_sort_key(non_null)
        # runs of equal keys: (first value of the run, its length)
        if key is None:
            non_null.sort()
            runs = [(v, sum(1 for _ in run)) for v, run in groupby(non_null)]
        else:
            keyed = sorted(zip(map(key, non_null), non_null), key=_first)
            runs = [
                (next(run)[1], 1 + sum(1 for _ in run))
                for _, run in groupby(keyed, key=_first)
            ]
        target_depth = max(1, len(non_null) // max(1, max_buckets))
        buckets: list[HistogramBucket] = []
        range_rows = 0
        distinct_range = 0
        last = len(runs) - 1
        for index, (value, count) in enumerate(runs):
            # a run closes a bucket when accumulated depth is reached or
            # it is the first or last run: the first bucket holds only
            # the minimum (SQL Server's first step has RANGE_ROWS 0),
            # since below it there is no bound to interpolate from
            if range_rows + count >= target_depth or index in (0, last):
                buckets.append(
                    HistogramBucket(value, count, range_rows, distinct_range)
                )
                range_rows = 0
                distinct_range = 0
            else:
                range_rows += count
                distinct_range += 1
        return Histogram(buckets, null_rows)

    # -- basic facts -----------------------------------------------------
    @property
    def total_rows(self) -> float:
        return (
            sum(b.equal_rows + b.range_rows for b in self.buckets) + self.null_rows
        )

    @property
    def distinct_count(self) -> float:
        return sum(1 + b.distinct_range for b in self.buckets)

    @property
    def min_value(self) -> Optional[Any]:
        if not self.buckets:
            return None
        return self.buckets[0].upper_bound

    @property
    def max_value(self) -> Optional[Any]:
        if not self.buckets:
            return None
        return self.buckets[-1].upper_bound

    # -- estimation -------------------------------------------------------
    def estimate_equal(self, value: Any) -> float:
        """Estimated number of rows equal to ``value``."""
        if value is None or not self.buckets:
            return 0.0
        prev_bound: Any = None
        for bucket in self.buckets:
            c = _cmp(value, bucket.upper_bound)
            if c == 0:
                return float(bucket.equal_rows)
            if c < 0:
                if prev_bound is not None and _cmp(value, prev_bound) <= 0:
                    return 0.0
                if bucket.distinct_range > 0:
                    return bucket.range_rows / bucket.distinct_range
                return 0.0
            prev_bound = bucket.upper_bound
        return 0.0

    def estimate_interval(self, interval: Interval) -> float:
        """Estimated number of rows whose value falls in ``interval``."""
        if not self.buckets or interval.is_empty():
            return 0.0
        if interval.is_point():
            # a point has no width to interpolate over inside a bucket
            return self.estimate_equal(interval.low)
        total = 0.0
        prev_bound: Any = None
        for bucket in self.buckets:
            if bucket.upper_bound is not None and interval.contains(
                bucket.upper_bound
            ):
                total += bucket.equal_rows
            total += bucket.range_rows * self._range_fraction(
                prev_bound, bucket.upper_bound, interval
            )
            prev_bound = bucket.upper_bound
        return total

    def estimate_interval_set(self, domain: IntervalSet) -> float:
        """Estimated rows matching a disjoint interval set."""
        if domain.is_full():
            return self.total_rows - self.null_rows
        return sum(self.estimate_interval(iv) for iv in domain.intervals)

    @staticmethod
    def _range_fraction(low: Any, high: Any, interval: Interval) -> float:
        """Fraction of the open range (low, high) covered by ``interval``.

        Uses linear interpolation for numeric bounds and a coarse
        contains-check otherwise.
        """
        if low is None:
            # the first bucket holds only its upper bound (see build)
            return 0.0
        bucket_iv = Interval(low, high, False, False)
        overlap = bucket_iv.intersect(interval)
        if overlap.is_empty():
            return 0.0
        if isinstance(low, (int, float)) and isinstance(high, (int, float)):
            span = float(high) - float(low)
            if span <= 0:
                return 0.0
            o_low = low if not isinstance(overlap.low, (int, float)) else overlap.low
            o_high = (
                high if not isinstance(overlap.high, (int, float)) else overlap.high
            )
            o_low = max(float(o_low), float(low))
            o_high = min(float(o_high), float(high))
            return max(0.0, min(1.0, (o_high - o_low) / span))
        # non-numeric: assume the whole interior qualifies
        return 1.0

    def __repr__(self) -> str:
        return f"Histogram({len(self.buckets)} buckets, {self.total_rows:.0f} rows)"
