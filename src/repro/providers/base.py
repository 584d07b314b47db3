"""Shared provider machinery.

:class:`TableBackedSession` implements the full IOpenRowset /
IRowsetIndex / IRowsetLocate / IDBSchemaRowset / histogram surface
against a :class:`~repro.storage.catalog.Database`, delivering every
rowset through the provider's network channel so experiments can
account for bytes moved.  The table-backed providers (SQL Server,
ISAM) share it and differ only in which interfaces they advertise.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

from repro.errors import CatalogError, ProviderError
from repro.oledb.rowset import MaterializedRowset, Rowset
from repro.oledb.schema_rowsets import (
    check_constraints_rowset,
    columns_rowset,
    histogram_rowset,
    indexes_rowset,
    tables_info_rowset,
    tables_rowset,
)
from repro.oledb.session import Session
from repro.storage.catalog import Database
from repro.storage.table import Table
from repro.types.datatypes import BIGINT
from repro.types.intervals import Interval
from repro.types.schema import Column, Schema


class TableBackedSession(Session):
    """A session serving rowsets from a Database object.

    When constructed with a full ``catalog``, requests may address any
    database on the server via ``database_name`` (three-part naming);
    otherwise only the bound default database is visible.
    """

    def __init__(self, datasource: Any, database: Database, catalog: Any = None):
        super().__init__(datasource)
        self.database = database
        self.catalog = catalog

    # -- helpers -----------------------------------------------------------
    def _database(self, database_name: Optional[str]) -> Database:
        if database_name is None:
            return self.database
        if self.catalog is None:
            if database_name.lower() == self.database.name.lower():
                return self.database
            raise CatalogError(
                f"session is bound to database {self.database.name!r}"
            )
        return self.catalog.database(database_name)

    def _table(
        self,
        table_name: str,
        schema_name: Optional[str] = None,
        database_name: Optional[str] = None,
    ) -> Table:
        return self._database(database_name).table(
            table_name, schema_name or "dbo"
        )

    # -- IOpenRowset -----------------------------------------------------------
    def open_rowset(
        self,
        table_name: str,
        schema_name: Optional[str] = None,
        database_name: Optional[str] = None,
        **kwargs: Any,
    ) -> Rowset:
        table = self._table(table_name, schema_name, database_name)
        rids = []
        rows = []
        for rid, row in table.scan():
            rids.append(rid)
            rows.append(row)
        return self.deliver(table.schema, rows, bookmarks=rids)

    # -- IRowsetIndex -----------------------------------------------------------
    def open_index_rowset(
        self,
        table_name: str,
        index_name: str,
        seek_key: Optional[Sequence[Any]] = None,
        range_interval: Optional[Interval] = None,
        schema_name: Optional[str] = None,
        database_name: Optional[str] = None,
    ) -> Rowset:
        """Rowset over an index: yields key columns + a BOOKMARK column."""
        self._require("IRowsetIndex")
        table = self._table(table_name, schema_name, database_name)
        if index_name not in table.indexes:
            raise CatalogError(
                f"index {index_name!r} not found on table {table_name!r}"
            )
        index = table.indexes[index_name]
        if seek_key is not None:
            entries = index.seek(seek_key)
        elif range_interval is not None:
            entries = index.set_range(range_interval)
        else:
            entries = index.scan()
        key_columns = [
            table.schema[ordinal] for ordinal in index.key_ordinals
        ]
        out_schema = Schema(
            key_columns + [Column("BOOKMARK", BIGINT, nullable=False)]
        )
        rows = (key + (rid,) for key, rid in entries)
        return self.deliver(out_schema, rows)

    # -- IRowsetLocate -----------------------------------------------------------
    def fetch_by_bookmarks(
        self,
        table_name: str,
        bookmarks: Sequence[int],
        schema_name: Optional[str] = None,
        database_name: Optional[str] = None,
    ) -> Rowset:
        self._require("IRowsetLocate")
        table = self._table(table_name, schema_name, database_name)
        rows = (table.fetch(rid) for rid in bookmarks)
        return self.deliver(table.schema, rows)

    # -- histogram rowsets (statistics extension) ------------------------------
    def open_histogram_rowset(
        self,
        table_name: str,
        column_name: str,
        schema_name: Optional[str] = None,
        database_name: Optional[str] = None,
    ) -> MaterializedRowset:
        table = self._table(table_name, schema_name, database_name)
        column_stats = table.statistics.column(column_name)
        if column_stats is None or column_stats.histogram is None:
            raise ProviderError(
                f"no histogram for {table_name}.{column_name}"
            )
        return histogram_rowset(column_stats.histogram)

    # -- IDBSchemaRowset -----------------------------------------------------------
    def schema_rowset(
        self,
        which: str,
        database_name: Optional[str] = None,
        table_name: Optional[str] = None,
    ) -> MaterializedRowset:
        """One schema rowset; ``table_name`` is OLE DB's TABLE_NAME
        restriction — rows about that table only, and no work (such as
        a statistics build) on behalf of any other."""
        self._require("IDBSchemaRowset")
        kind = which.upper()
        database = self._database(database_name)
        wanted = None if table_name is None else table_name.lower()

        def restricted(named: Iterable[tuple[str, Any]]) -> list:
            return [
                (schema_name, item)
                for schema_name, item in named
                if wanted is None or item.name.lower() == wanted
            ]

        tables = restricted(database.tables())
        all_tables = [table for __, table in tables]
        if kind == "TABLES":
            entries = [
                (schema_name, "TABLE", table) for schema_name, table in tables
            ]
            entries += [
                (schema_name, "VIEW", _ViewAsTable(view.name))
                for schema_name, view in restricted(database.views())
            ]
            return tables_rowset(entries, catalog_name=database.name)
        if kind == "COLUMNS":
            return columns_rowset(all_tables)
        if kind == "INDEXES":
            return indexes_rowset(all_tables)
        if kind == "TABLES_INFO":
            return tables_info_rowset(all_tables)
        if kind == "CHECK_CONSTRAINTS":
            return check_constraints_rowset(all_tables)
        raise ProviderError(f"unknown schema rowset {which!r}")


class _ViewAsTable:
    """Adapter so views appear in the TABLES schema rowset."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
