"""Selectivity estimation helpers shared by the optimizer.

When a histogram is available (local table, or a remote source that
exposes histogram rowsets per Section 3.2.4), estimates come from the
histogram; otherwise the classic System-R magic constants apply.  The
gap between the two is exactly what experiment E11 measures.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.stats.table_stats import ColumnStatistics
from repro.types.intervals import IntervalSet

#: default selectivity of ``col = const`` when no statistics exist
DEFAULT_EQUALITY_SELECTIVITY = 0.1
#: default selectivity of a range predicate when no statistics exist
DEFAULT_RANGE_SELECTIVITY = 0.3


def estimate_comparison_selectivity(
    op: str,
    value: Any,
    stats: Optional[ColumnStatistics],
    table_rows: float,
) -> float:
    """Selectivity of ``column <op> value`` in [0, 1]."""
    if table_rows <= 0:
        return 0.0
    if stats is None or stats.histogram is None or not stats.histogram.buckets:
        if op == "=":
            if stats is not None:
                return min(1.0, 1.0 / stats.distinct_count)
            return DEFAULT_EQUALITY_SELECTIVITY
        if op in ("<>", "!="):
            return 1.0 - DEFAULT_EQUALITY_SELECTIVITY
        return DEFAULT_RANGE_SELECTIVITY
    histogram = stats.histogram
    domain = IntervalSet.from_comparison(op, value)
    rows = histogram.estimate_interval_set(domain)
    # scale from the sampled histogram population to the live table
    population = max(1.0, histogram.total_rows - histogram.null_rows)
    return max(0.0, min(1.0, rows / population))


def estimate_join_selectivity(
    left_stats: Optional[ColumnStatistics],
    right_stats: Optional[ColumnStatistics],
) -> float:
    """Selectivity of an equi-join predicate ``l.a = r.b``.

    Classic formula: 1 / max(distinct(a), distinct(b)); falls back to a
    magic constant when neither side has statistics.
    """
    distincts = []
    if left_stats is not None:
        distincts.append(left_stats.distinct_count)
    if right_stats is not None:
        distincts.append(right_stats.distinct_count)
    if not distincts:
        return DEFAULT_EQUALITY_SELECTIVITY
    return 1.0 / max(distincts)
