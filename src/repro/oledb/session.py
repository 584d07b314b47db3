"""Sessions: transactional scope + rowset/command factory (Figure 3).

The session exposes ``IOpenRowset`` (open a rowset on a table, index,
or histogram — the paper's Table 2 lists exactly these three),
``IDBCreateCommand`` for query-capable providers, ``IDBSchemaRowset``
for metadata, and transaction enlistment for providers that support it.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

from repro.errors import NotSupportedError
from repro.oledb.interfaces import (
    IDB_CREATE_COMMAND,
    IDB_SCHEMA_ROWSET,
    IROWSET_INDEX,
    IROWSET_LOCATE,
)
from repro.oledb.rowset import MaterializedRowset, Rowset
from repro.storage.transactions import ResourceManager
from repro.types.intervals import Interval
from repro.types.schema import Schema


class Session:
    """Base session.  Providers override the ``IOpenRowset`` family and,
    when capable, command creation, schema rowsets, index navigation,
    bookmark fetch, histogram rowsets, and transactions."""

    def __init__(self, datasource: Any):
        self.datasource = datasource

    def _require(self, interface: str) -> None:
        if not self.datasource.supports_interface(interface):
            raise NotSupportedError(
                f"{self.datasource.provider_name} does not implement "
                f"{interface}"
            )

    def deliver(
        self,
        schema: Schema,
        rows: Iterable[tuple[Any, ...]],
        bookmarks: Optional[Iterable[int]] = None,
    ) -> Rowset:
        """The rowset the consumer receives: ``rows`` pass through the
        data source's channel, which alone decides what they cost."""
        return Rowset(
            schema, self.datasource.channel.deliver(rows, schema), bookmarks
        )

    # -- IOpenRowset -----------------------------------------------------------
    def open_rowset(self, table_name: str, **kwargs: Any) -> Rowset:
        """Open a rowset over a named table."""
        raise NotImplementedError

    def open_index_rowset(
        self,
        table_name: str,
        index_name: str,
        seek_key: Optional[Sequence[Any]] = None,
        range_interval: Optional[Interval] = None,
    ) -> Rowset:
        """Open a rowset over an index (IRowsetIndex seek / set-range).

        Yields (key columns..., bookmark) rows; consumers fetch base
        rows via :meth:`fetch_by_bookmarks`.
        """
        self._require(IROWSET_INDEX)
        raise NotImplementedError

    def fetch_by_bookmarks(
        self, table_name: str, bookmarks: Sequence[int]
    ) -> Rowset:
        """IRowsetLocate: fetch base-table rows by bookmark."""
        self._require(IROWSET_LOCATE)
        raise NotImplementedError

    def open_histogram_rowset(
        self, table_name: str, column_name: str
    ) -> MaterializedRowset:
        """Histogram rowset (Section 3.2.4 statistics extension)."""
        raise NotSupportedError(
            f"{self.datasource.provider_name} does not expose histogram "
            "rowsets"
        )

    # -- IDBSchemaRowset ---------------------------------------------------------
    def schema_rowset(
        self,
        which: str,
        database_name: Optional[str] = None,
        table_name: Optional[str] = None,
    ) -> MaterializedRowset:
        """Metadata rowsets: TABLES, COLUMNS, INDEXES, TABLES_INFO,
        CHECK_CONSTRAINTS.  ``table_name`` is OLE DB's TABLE_NAME
        restriction."""
        self._require(IDB_SCHEMA_ROWSET)
        raise NotImplementedError

    # -- IDBCreateCommand -----------------------------------------------------
    def create_command(self) -> "Command":  # noqa: F821
        self._require(IDB_CREATE_COMMAND)
        return self._make_command()

    def _make_command(self):
        raise NotImplementedError

    # -- transactions ------------------------------------------------------------
    def begin_transaction(self) -> ResourceManager:
        """Start a local transaction branch enlistable with the DTC."""
        raise NotSupportedError(
            f"{self.datasource.provider_name} does not support transactions"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.datasource.provider_name})"
