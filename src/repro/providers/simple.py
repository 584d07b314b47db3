"""A *simple provider* (Section 3.3).

"A simple provider is an OLE DB provider which supports only the
mandatory OLE DB interfaces of being able to connect and retrieve named
rowsets.  In this case, DHQP provides all of the querying functionality
on top of this base provider."

This one serves delimited text files: each registered "file" is a named
rowset whose schema is inferred from a header line and the first data
rows.  No command object, no indexes, no statistics, no schema rowsets
beyond the mandatory surface — the worst case the DHQP must handle.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.errors import CatalogError, ConnectionError_
from repro.network.channel import NetworkChannel
from repro.oledb.datasource import DataSource
from repro.oledb.interfaces import SIMPLE_PROVIDER_INTERFACES
from repro.oledb.properties import ProviderCapabilities, SqlSupportLevel
from repro.oledb.rowset import Rowset
from repro.oledb.session import Session
from repro.types.datatypes import FLOAT, INT, infer_type, varchar
from repro.types.schema import Column, Schema


def _parse_cell(text: str) -> Any:
    """Best-effort typed parse of one CSV cell."""
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_delimited(content: str, delimiter: str = ",") -> tuple[Schema, list[tuple[Any, ...]]]:
    """Parse header + rows from delimited text, inferring column types."""
    lines = [line for line in content.splitlines() if line.strip()]
    if not lines:
        raise CatalogError("empty delimited file")
    names = [name.strip() for name in lines[0].split(delimiter)]
    raw_rows = [
        tuple(_parse_cell(cell.strip()) for cell in line.split(delimiter))
        for line in lines[1:]
    ]
    columns = []
    for ordinal, name in enumerate(names):
        sample = next(
            (row[ordinal] for row in raw_rows if ordinal < len(row) and row[ordinal] is not None),
            None,
        )
        inferred = infer_type(sample) if sample is not None else varchar()
        if inferred == INT and any(
            isinstance(row[ordinal], float)
            for row in raw_rows
            if ordinal < len(row) and row[ordinal] is not None
        ):
            inferred = FLOAT
        columns.append(Column(name, inferred))
    schema = Schema(columns)
    rows = [
        tuple(row[i] if i < len(row) else None for i in range(len(columns)))
        for row in raw_rows
    ]
    return schema, rows


class SimpleDataSource(DataSource):
    """Text-file provider: connect + named rowsets, nothing else."""

    provider_name = "MSDASQL.TEXT"
    INTERFACES = SIMPLE_PROVIDER_INTERFACES

    def __init__(
        self,
        files: Dict[str, str],
        channel: Optional[NetworkChannel] = None,
        delimiter: str = ",",
    ):
        super().__init__(
            channel,
            ProviderCapabilities(
                sql_support=SqlSupportLevel.NONE,
                query_language="none",
                dialect_name="text",
            ),
        )
        self._files = dict(files)
        self._delimiter = delimiter
        self._parsed: Dict[str, tuple[Schema, list[tuple[Any, ...]]]] = {}

    def _check_connection(self) -> None:
        if not self._files:
            raise ConnectionError_("text provider: no files registered")

    def _make_session(self) -> "SimpleSession":
        return SimpleSession(self)

    # -- file access used by the session -----------------------------------
    def parsed_file(self, name: str) -> tuple[Schema, list[tuple[Any, ...]]]:
        key = name.lower()
        if key not in self._parsed:
            match = next(
                (f for f in self._files if f.lower() == key), None
            )
            if match is None:
                raise CatalogError(f"file {name!r} not registered")
            self._parsed[key] = parse_delimited(
                self._files[match], self._delimiter
            )
        return self._parsed[key]


class SimpleSession(Session):
    """Named rowsets over registered files; everything else unsupported."""

    def open_rowset(self, table_name: str, **kwargs: Any) -> Rowset:
        schema, rows = self.datasource.parsed_file(table_name)
        return self.deliver(schema, rows)
