"""The SQL provider ("SQLOLEDB" and friends).

Fronts any object implementing :class:`SqlBackend` — in practice a
:class:`~repro.engine.ServerInstance`, whether it plays the local
engine (Figure 1's "OLE DB / Storage Engine" path) or a simulated
remote server reachable over a network channel.

The same class models non-SQL-Server relational sources (Oracle- or
DB2-like): construct it with a lower :class:`SqlSupportLevel`, a
different dialect name, and different identifier quotes, and the DHQP's
decoder will restrict what it remotes accordingly (Section 3.3:
"The DHQP constructs plans such that the provider's capabilities are
fully used while not overshooting its limitations").
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, Sequence

from repro.network.channel import NetworkChannel
from repro.oledb.command import Command
from repro.oledb.datasource import DataSource
from repro.oledb.interfaces import ALL_INTERFACES
from repro.oledb.properties import ProviderCapabilities, SqlSupportLevel
from repro.oledb.rowset import Rowset
from repro.providers.base import TableBackedSession
from repro.storage.catalog import Catalog
from repro.storage.transactions import ResourceManager
from repro.types.schema import Schema


class SqlBackend(Protocol):
    """What a SQL-capable server must offer its provider."""

    name: str
    catalog: Catalog

    def execute_sql(
        self, text: str, params: Optional[Sequence[Any]] = None, txn: Any = None
    ) -> Rowset:
        """Parse/plan/execute SQL text with ``params`` bound to its
        positional ``?`` markers, returning the result rowset."""
        ...

    def describe_sql(self, text: str) -> Schema:
        """The result schema of a SELECT, bound but not executed."""
        ...

    def begin_transaction(self) -> ResourceManager:
        ...


class SqlServerDataSource(DataSource):
    """Data source object for a SQL-capable server."""

    provider_name = "SQLOLEDB"
    #: the whole Table 2 surface
    INTERFACES = ALL_INTERFACES

    def __init__(
        self,
        backend: SqlBackend,
        channel: Optional[NetworkChannel] = None,
        sql_support: SqlSupportLevel = SqlSupportLevel.SQL92_FULL,
        dialect_name: str = "tsql",
        identifier_quotes: str = "[]",
        supports_nested_select: bool = True,
        provider_name: Optional[str] = None,
        database_name: Optional[str] = None,
    ):
        super().__init__(
            channel,
            ProviderCapabilities(
                sql_support=sql_support,
                query_language=(
                    "Transact-SQL" if dialect_name == "tsql"
                    else f"SQL ({dialect_name})"
                ),
                supports_indexes=True,
                supports_statistics=True,
                supports_nested_select=supports_nested_select,
                supports_parallel_scan=dialect_name == "tsql",
                supports_transactions=True,
                identifier_quotes=identifier_quotes,
                dialect_name=dialect_name,
            ),
        )
        self.backend = backend
        self.database_name = database_name
        if provider_name is not None:
            self.provider_name = provider_name

    def _make_session(self) -> "SqlServerSession":
        database = self.backend.catalog.database(self.database_name)
        return SqlServerSession(self, database, self.backend.catalog)


class SqlServerSession(TableBackedSession):
    """Session over a SQL backend: table rowsets + SQL commands.

    The session is the transactional scope (Section 3.1): a transaction
    begun here covers every command the session executes until it
    completes.
    """

    def __init__(self, datasource: Any, database: Any, catalog: Any = None):
        super().__init__(datasource, database, catalog)
        self.active_transaction: Optional[ResourceManager] = None

    def _make_command(self) -> "SqlCommand":
        return SqlCommand(self)

    def begin_transaction(self) -> ResourceManager:
        self.active_transaction = self.datasource.backend.begin_transaction()
        return self.active_transaction


class SqlCommand(Command):
    """ICommand whose text is SQL executed by the backing server.

    Results stream back through the channel, charging the bytes the
    paper's cost model is designed to minimize.
    """

    def describe(self) -> Schema:
        """Result schema without execution (bind-only on the backend)."""
        return self.session.datasource.backend.describe_sql(self.text)

    def _execute(self, rendered: str) -> Rowset:
        # the backend gets the marker text and the values, so it parses
        # and plans the text once however many value vectors follow
        return self.session.datasource.backend.execute_sql(
            self.text, self.parameters, txn=self.session.active_transaction
        )
