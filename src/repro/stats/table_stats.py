"""Table- and column-level statistics objects.

A :class:`TableStatistics` is what a provider exposes through the
TABLES_INFO schema rowset (cardinality) plus per-column histogram
rowsets (Section 3.2.4) — two requests with two costs: the cardinality
rowset never builds a histogram, and a histogram is built for the one
column asked for.  Remote providers may or may not expose them —
experiment E11 measures the difference.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from repro.stats.histogram import Histogram
from repro.types.schema import Schema


class ColumnStatistics:
    """Statistics for one column: histogram + distinct/null counts."""

    __slots__ = ("column_name", "histogram", "distinct_count", "null_count")

    def __init__(
        self,
        column_name: str,
        histogram: Optional[Histogram],
        distinct_count: float,
        null_count: float,
    ):
        self.column_name = column_name
        self.histogram = histogram
        self.distinct_count = max(1.0, float(distinct_count))
        self.null_count = float(null_count)

    @staticmethod
    def build(column_name: str, values: Iterable[Any]) -> "ColumnStatistics":
        """Distinct and NULL counts are the histogram's own: a distinct
        value is a run of the build's sort, so strings count under the
        default collation exactly as ``=`` and GROUP BY compare them."""
        histogram = Histogram.build(values)
        return ColumnStatistics(
            column_name,
            histogram,
            histogram.distinct_count,
            histogram.null_rows,
        )

    def __repr__(self) -> str:
        return (
            f"ColumnStatistics({self.column_name}: "
            f"distinct={self.distinct_count:.0f}, nulls={self.null_count:.0f})"
        )


class TableStatistics:
    """Cardinality, average row width and on-demand column statistics.

    Row count and width are what the TABLES_INFO rowset carries; they
    cost one unsorted pass.  A column's histogram is built the first
    time :meth:`column` is asked for it, from the rows the statistics
    were built over, and kept for the life of this object (a table
    drops the whole object on every write).
    """

    def __init__(
        self,
        row_count: float,
        columns: Optional[Dict[str, ColumnStatistics]] = None,
        avg_row_width: float = 64.0,
    ):
        self.row_count = float(row_count)
        self.columns = dict(columns or {})
        self.avg_row_width = float(avg_row_width)
        self._schema: Optional[Schema] = None
        self._rows: Iterable[tuple[Any, ...]] = ()

    @staticmethod
    def build(
        schema: Schema, rows: Iterable[tuple[Any, ...]]
    ) -> "TableStatistics":
        """Count ``rows`` and average their widths; no column is looked
        at until asked for.  ``rows`` is read again for each column, so
        a one-shot iterator is kept as a list; a table passes its heap,
        which is not copied."""
        if iter(rows) is rows:
            rows = list(rows)
        row_count = 0
        width_total = 0
        width = schema.row_width_function()
        for row in rows:
            row_count += 1
            width_total += width(row)
        avg_width = width_total / row_count if row_count else schema.row_width()
        stats = TableStatistics(row_count, None, avg_width)
        stats._schema = schema
        stats._rows = rows
        return stats

    def column(self, name: str) -> Optional[ColumnStatistics]:
        """Per-column statistics, case-insensitive lookup; built on the
        first request.  Racing callers may each build the column, but
        only a finished object is ever published."""
        key = name.lower()
        stats = self.columns.get(key)
        if stats is None and self._schema is not None:
            for ordinal, column in enumerate(self._schema):
                if column.name.lower() == key:
                    stats = self.columns[key] = ColumnStatistics.build(
                        column.name, [row[ordinal] for row in self._rows]
                    )
                    break
        return stats

    def __repr__(self) -> str:
        return (
            f"TableStatistics(rows={self.row_count:.0f}, "
            f"columns={sorted(self.columns)})"
        )
