"""Heap storage: unordered rows addressed by stable row ids.

Row ids serve as OLE DB *bookmarks* (Section 3.3, index providers use
``IRowsetLocate`` to fetch base rows by bookmark).  Deleted slots are
tombstoned so bookmarks never dangle silently — fetching a deleted
bookmark raises.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.errors import ExecutionError

#: A bookmark: stable identifier of a row within one heap.
RowId = int


class Heap:
    """An append-friendly slotted row store."""

    __slots__ = ("_rows", "_live_count")

    def __init__(self) -> None:
        self._rows: list[Optional[tuple[Any, ...]]] = []
        self._live_count = 0

    def __len__(self) -> int:
        return self._live_count

    def insert(self, row: tuple[Any, ...]) -> RowId:
        """Append a row; returns its bookmark."""
        self._rows.append(row)
        self._live_count += 1
        return len(self._rows) - 1

    def fetch(self, rid: RowId) -> tuple[Any, ...]:
        """Fetch a row by bookmark; raises on deleted/invalid bookmarks."""
        if not 0 <= rid < len(self._rows):
            raise ExecutionError(f"invalid bookmark {rid}")
        row = self._rows[rid]
        if row is None:
            raise ExecutionError(f"bookmark {rid} refers to a deleted row")
        return row

    def delete(self, rid: RowId) -> tuple[Any, ...]:
        """Tombstone a row; returns the old image (for undo)."""
        old = self.fetch(rid)
        self._rows[rid] = None
        self._live_count -= 1
        return old

    def update(self, rid: RowId, row: tuple[Any, ...]) -> tuple[Any, ...]:
        """Replace a row in place; returns the old image (for undo)."""
        old = self.fetch(rid)
        self._rows[rid] = row
        return old

    def undelete(self, rid: RowId, row: tuple[Any, ...]) -> None:
        """Restore a tombstoned slot (transaction rollback)."""
        if not 0 <= rid < len(self._rows) or self._rows[rid] is not None:
            raise ExecutionError(f"cannot undelete bookmark {rid}")
        self._rows[rid] = row
        self._live_count += 1

    def remove_last(self, rid: RowId) -> None:
        """Undo an insert (the row must be the one at ``rid``)."""
        if not 0 <= rid < len(self._rows) or self._rows[rid] is None:
            raise ExecutionError(f"cannot undo insert of bookmark {rid}")
        self._rows[rid] = None
        self._live_count -= 1

    def scan(self) -> Iterator[tuple[RowId, tuple[Any, ...]]]:
        """Yield (bookmark, row) for every live row in heap order."""
        for rid, row in enumerate(self._rows):
            if row is not None:
                yield rid, row

    def rows(self) -> Iterator[tuple[Any, ...]]:
        """Yield every live row (no bookmarks)."""
        for row in self._rows:
            if row is not None:
                yield row

    __iter__ = rows
