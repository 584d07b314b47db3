"""The "MSIDXS" full-text provider.

A *query provider with a proprietary syntax* (Section 3.3): its command
language is the Index Server Query Language of Table 1, so the DHQP
only ever passes whole queries through (OpenRowset/OpenQuery) — it
never decomposes them.

The language we accept is the subset the paper's Section 2.2 example
uses::

    SELECT <columns> FROM SCOPE() WHERE CONTAINS('<contains-expr>')

where columns come from {Path, Directory, FileName, Size, Create,
Write, Rank}.  Relational catalogs answer the simpler surface used by
the Section 2.3 integration: :meth:`FullTextSession.contains_rowset`
returns the (KEY, RANK) rowset the relational engine joins to the base
table.
"""

from __future__ import annotations

import re
from typing import Any, Optional

from repro.errors import FullTextError, ProviderError
from repro.fulltext.service import FullTextCatalog, FullTextService
from repro.network.channel import NetworkChannel
from repro.oledb.command import Command
from repro.oledb.datasource import DataSource
from repro.oledb.interfaces import (
    ICOMMAND,
    IDB_CREATE_COMMAND,
    IDB_INFO,
    SIMPLE_PROVIDER_INTERFACES,
)
from repro.oledb.properties import ProviderCapabilities, SqlSupportLevel
from repro.oledb.rowset import MaterializedRowset, Rowset
from repro.oledb.session import Session
from repro.types.datatypes import DATETIME, FLOAT, INT, varchar
from repro.types.schema import Column, Schema

#: all columns SCOPE() can project
_SCOPE_COLUMNS = {
    "path": Column("Path", varchar(), nullable=False),
    "directory": Column("Directory", varchar()),
    "filename": Column("FileName", varchar()),
    "size": Column("Size", INT),
    "create": Column("Create", DATETIME),
    "write": Column("Write", DATETIME),
    "rank": Column("Rank", FLOAT),
}

#: the (key, rank) schema returned for relational catalogs (Figure 2)
KEY_RANK_SCHEMA = Schema(
    [
        Column("KEY", varchar(), nullable=False),
        Column("RANK", FLOAT, nullable=False),
    ]
)

_QUERY = re.compile(
    r"^\s*select\s+(?P<cols>.+?)\s+from\s+scope\s*\(\s*\)\s+"
    r"where\s+contains\s*\(\s*(?P<pred>.+)\s*\)\s*$",
    re.IGNORECASE | re.DOTALL,
)


class FullTextDataSource(DataSource):
    """DSO bound to one catalog of a :class:`FullTextService`."""

    provider_name = "MSIDXS"
    INTERFACES = SIMPLE_PROVIDER_INTERFACES | {
        IDB_INFO, IDB_CREATE_COMMAND, ICOMMAND,
    }

    def __init__(
        self,
        service: FullTextService,
        catalog_name: str,
        channel: Optional[NetworkChannel] = None,
    ):
        super().__init__(
            channel,
            ProviderCapabilities(
                sql_support=SqlSupportLevel.PROPRIETARY,
                query_language="Index Server Query Language",
                dialect_name="msidxs",
            ),
        )
        self.service = service
        self.catalog_name = catalog_name

    def _check_connection(self) -> None:
        self.service.catalog(self.catalog_name)  # raises if missing

    def _make_session(self) -> "FullTextSession":
        return FullTextSession(self)


class FullTextSession(Session):
    @property
    def catalog(self) -> FullTextCatalog:
        return self.datasource.service.catalog(self.datasource.catalog_name)

    def open_rowset(self, table_name: str, **kwargs: Any) -> Rowset:
        """Opening 'SCOPE()' yields every indexed document's properties."""
        if table_name.lower().replace(" ", "") not in ("scope()", "scope"):
            raise ProviderError(
                f"MSIDXS exposes only SCOPE(), not {table_name!r}"
            )
        schema = Schema(list(_SCOPE_COLUMNS.values()))
        rows = [
            self._document_row(path, None, list(_SCOPE_COLUMNS))
            for path in sorted(self.catalog.documents)
        ]
        return self.deliver(schema, rows)

    def _make_command(self) -> "FullTextCommand":
        return FullTextCommand(self)

    # -- relational catalog surface (Section 2.3 / Figure 2) ----------------
    def contains_rowset(self, contains_text: str) -> MaterializedRowset:
        """(KEY, RANK) rowset for a CONTAINS predicate over a relational
        catalog — the exact rowset Figure 2's query support returns."""
        matches = self.catalog.search(contains_text)
        rows = [(match.key, match.rank) for match in matches]
        return MaterializedRowset(KEY_RANK_SCHEMA, rows)

    # -- helpers ------------------------------------------------------------
    def _document_row(
        self, path: str, rank: Optional[float], column_names: list[str]
    ) -> tuple[Any, ...]:
        document = self.catalog.document(path)
        values = {
            "path": document.path,
            "directory": document.directory,
            "filename": document.filename,
            "size": document.size,
            "create": document.created,
            "write": document.written,
            "rank": rank,
        }
        return tuple(values[name] for name in column_names)


class FullTextCommand(Command):
    """Executes Index Server Query Language text."""

    def describe(self) -> Schema:
        """Result schema from the projected SCOPE() columns."""
        if self.text is None:
            raise NotImplementedError
        match = _QUERY.match(self.text)
        if match is None:
            raise NotImplementedError
        requested = [c.strip().lower() for c in match.group("cols").split(",")]
        unknown = [c for c in requested if c not in _SCOPE_COLUMNS]
        if unknown:
            raise FullTextError(f"unknown SCOPE() columns: {unknown}")
        return Schema([_SCOPE_COLUMNS[c] for c in requested])

    def _execute(self, text: str) -> Rowset:
        session: FullTextSession = self.session
        match = _QUERY.match(text)
        if match is None:
            raise FullTextError(
                "MSIDXS command must be: SELECT <cols> FROM SCOPE() "
                f"WHERE CONTAINS(...); got {text[:60]!r}"
            )
        requested = [c.strip().lower() for c in match.group("cols").split(",")]
        unknown = [c for c in requested if c not in _SCOPE_COLUMNS]
        if unknown:
            raise FullTextError(f"unknown SCOPE() columns: {unknown}")
        predicate = match.group("pred").strip()
        # T-SQL escaping: doubled single quotes inside OpenRowset text
        # (the paper's example) collapse to one
        predicate = predicate.replace("''", "'")
        # strip one matching outer single-quote pair, if present
        if len(predicate) >= 2 and predicate[0] == predicate[-1] == "'":
            predicate = predicate[1:-1]
        matches = session.catalog.search(predicate)
        schema = Schema([_SCOPE_COLUMNS[c] for c in requested])
        rows = [
            session._document_row(m.key, m.rank, requested) for m in matches
        ]
        return MaterializedRowset(schema, rows)
