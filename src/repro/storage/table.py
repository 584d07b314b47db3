"""Tables: schema + heap + indexes + constraints + statistics.

A table is the unit the OLE DB layer opens rowsets on.  Insert, update,
and delete maintain every index transactionally (via the undo log of
the enclosing :class:`~repro.storage.transactions.LocalTransaction`
when one is active) and enforce constraints.  Statistics are built
lazily — per column, on request — and invalidated by writes.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence

from repro.errors import CatalogError, ConstraintError
from repro.stats.table_stats import TableStatistics
from repro.storage.btree import BTreeIndex, IndexMetadata
from repro.storage.constraints import (
    CheckConstraint,
    Constraint,
    UniqueConstraint,
    intersect_domains,
)
from repro.storage.heap import Heap, RowId
from repro.types.intervals import IntervalSet
from repro.types.schema import Schema


class Table:
    """A base table."""

    def __init__(self, name: str, schema: Schema):
        self.name = name
        self.schema = schema
        self.heap = Heap()
        self.indexes: dict[str, BTreeIndex] = {}
        self.constraints: list[Constraint] = []
        self._stats: Optional[TableStatistics] = None
        #: monotonically increasing schema version (delayed schema
        #: validation, Section 4.1.5, compares these across servers):
        #: whatever metadata discovery reads besides row count and
        #: width changes only together with it
        self.schema_version = 1

    # -- DDL ----------------------------------------------------------------
    def create_index(
        self, name: str, column_names: Sequence[str], unique: bool = False
    ) -> BTreeIndex:
        """Create and backfill a B-tree index."""
        if name in self.indexes:
            raise CatalogError(f"index {name!r} already exists on {self.name}")
        ordinals = [self.schema.ordinal_of(c) for c in column_names]
        metadata = IndexMetadata(name, self.name, column_names, unique)
        index = BTreeIndex(metadata, ordinals)
        for rid, row in self.heap.scan():
            index.insert(row, rid)
        self.indexes[name] = index
        self.schema_version += 1
        return index

    def add_constraint(self, constraint: Constraint) -> None:
        """Attach a constraint, validating existing rows.

        Unique constraints are backed by a unique index created here.
        """
        for __, row in self.heap.scan():
            constraint.validate(row, self.schema)
        if isinstance(constraint, UniqueConstraint):
            index_name = f"ix_{constraint.name}"
            if index_name not in self.indexes:
                self.create_index(index_name, constraint.column_names, unique=True)
        self.constraints.append(constraint)
        self.schema_version += 1

    def check_constraints(self) -> list[CheckConstraint]:
        """All CHECK constraints (the CHECK_CONSTRAINTS rowset lists these)."""
        return [c for c in self.constraints if isinstance(c, CheckConstraint)]

    def check_domains(self) -> dict[str, IntervalSet]:
        """Column name (lower) -> the intersection of every CHECK domain
        on that column (static pruning, startup filters and partition
        routing read these)."""
        return intersect_domains(
            (c.column_name, c.domain)
            for c in self.check_constraints()
            if c.column_name and c.domain is not None
        )

    # -- DML ----------------------------------------------------------------
    def insert(self, row: Sequence[Any], txn: Optional[Any] = None) -> RowId:
        """Validate, store, and index one row."""
        coerced = self.schema.validate_row(row)
        for constraint in self.constraints:
            constraint.validate(coerced, self.schema)
        rid = self.heap.insert(coerced)
        inserted_into: list[BTreeIndex] = []
        try:
            for index in self.indexes.values():
                index.insert(coerced, rid)
                inserted_into.append(index)
        except ConstraintError:
            for index in inserted_into:
                index.delete(coerced, rid)
            self.heap.remove_last(rid)
            raise
        self._stats = None
        if txn is not None:
            txn.record_insert(self, rid, coerced)
        return rid

    def delete(self, rid: RowId, txn: Optional[Any] = None) -> tuple[Any, ...]:
        """Delete the row at ``rid``; returns the old image."""
        old = self.heap.delete(rid)
        for index in self.indexes.values():
            index.delete(old, rid)
        self._stats = None
        if txn is not None:
            txn.record_delete(self, rid, old)
        return old

    def update(
        self, rid: RowId, row: Sequence[Any], txn: Optional[Any] = None
    ) -> tuple[Any, ...]:
        """Replace the row at ``rid``; returns the old image."""
        coerced = self.schema.validate_row(row)
        for constraint in self.constraints:
            constraint.validate(coerced, self.schema)
        old = self.heap.fetch(rid)
        for index in self.indexes.values():
            index.delete(old, rid)
        self.heap.update(rid, coerced)
        inserted_into: list[BTreeIndex] = []
        try:
            for index in self.indexes.values():
                index.insert(coerced, rid)
                inserted_into.append(index)
        except ConstraintError:
            # restore the old row image and every index entry
            for index in inserted_into:
                index.delete(coerced, rid)
            self.heap.update(rid, old)
            for index in self.indexes.values():
                index.insert(old, rid)
            raise
        self._stats = None
        if txn is not None:
            txn.record_update(self, rid, old, coerced)
        return old

    # -- reads ----------------------------------------------------------------
    def scan(self) -> Iterator[tuple[RowId, tuple[Any, ...]]]:
        return self.heap.scan()

    def rows(self) -> Iterator[tuple[Any, ...]]:
        return self.heap.rows()

    def fetch(self, rid: RowId) -> tuple[Any, ...]:
        return self.heap.fetch(rid)

    @property
    def row_count(self) -> int:
        return len(self.heap)

    # -- statistics --------------------------------------------------------
    @property
    def statistics(self) -> TableStatistics:
        """Row count and width, recounted lazily after writes; column
        statistics are built from the heap one column at a time, when
        :meth:`TableStatistics.column` is first asked for each."""
        if self._stats is None:
            self._stats = TableStatistics.build(self.schema, self.heap)
        return self._stats

    def invalidate_statistics(self) -> None:
        self._stats = None

    def __repr__(self) -> str:
        return f"Table({self.name}, {len(self.heap)} rows)"
