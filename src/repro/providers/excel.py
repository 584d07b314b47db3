"""An Excel-like tabular provider.

Section 2.1 lists Microsoft Excel among the tabular sources reachable
through linked servers.  A :class:`Workbook` holds named worksheets
whose first row is the header; each sheet is exposed as a named rowset
(``Sheet1$`` naming convention preserved).  Like the real Excel
provider, it reports minimal SQL support — the DHQP compensates.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from repro.errors import CatalogError, ConnectionError_
from repro.network.channel import NetworkChannel
from repro.oledb.datasource import DataSource
from repro.oledb.interfaces import SIMPLE_PROVIDER_INTERFACES
from repro.oledb.properties import ProviderCapabilities, SqlSupportLevel
from repro.oledb.rowset import Rowset
from repro.oledb.session import Session
from repro.types.datatypes import infer_type, varchar
from repro.types.schema import Column, Schema


class Workbook:
    """Named worksheets of raw cell rows (first row = header)."""

    def __init__(self, path: str = "workbook.xls"):
        self.path = path
        self._sheets: Dict[str, list[tuple[Any, ...]]] = {}

    def add_sheet(self, name: str, rows: Iterable[tuple[Any, ...]]) -> None:
        self._sheets[name.lower()] = [tuple(r) for r in rows]

    def sheet(self, name: str) -> list[tuple[Any, ...]]:
        key = name.lower().rstrip("$")
        if key not in self._sheets:
            raise CatalogError(f"worksheet {name!r} not found in {self.path}")
        return self._sheets[key]

    def sheet_names(self) -> list[str]:
        return sorted(self._sheets)


class ExcelDataSource(DataSource):
    """Workbook provider: each sheet is a named rowset."""

    provider_name = "Microsoft.Jet.OLEDB.Excel"
    INTERFACES = SIMPLE_PROVIDER_INTERFACES

    def __init__(self, workbook: Workbook, channel: Optional[NetworkChannel] = None):
        super().__init__(
            channel,
            ProviderCapabilities(
                sql_support=SqlSupportLevel.NONE,
                query_language="none",
                dialect_name="excel",
            ),
        )
        self.workbook = workbook

    def _check_connection(self) -> None:
        if not self.workbook.sheet_names():
            raise ConnectionError_(
                f"workbook {self.workbook.path} has no sheets"
            )

    def _make_session(self) -> "ExcelSession":
        return ExcelSession(self)


class ExcelSession(Session):
    def open_rowset(self, table_name: str, **kwargs: Any) -> Rowset:
        cells = self.datasource.workbook.sheet(table_name)
        if not cells:
            raise CatalogError(f"worksheet {table_name!r} is empty")
        header, data = cells[0], cells[1:]
        columns = []
        for ordinal, name in enumerate(header):
            sample = next(
                (row[ordinal] for row in data if row[ordinal] is not None), None
            )
            column_type = infer_type(sample) if sample is not None else varchar()
            columns.append(Column(str(name), column_type))
        return self.deliver(Schema(columns), data)
