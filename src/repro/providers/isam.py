"""An Access/Jet-like *index provider* (Section 3.3).

"If the provider supports indexes, then the DHQP can generate plans
that use these indexes.  Index support requires reporting metadata on
the indexes (through IDBSchemaRowset ...), ability to open OLE DB
rowsets on indexes, the ability to seek ... on the index for given key
values (using the IRowsetIndex interface) and the ability to locate
base table rows using bookmark values retrieved from the index (using
the IRowsetLocate interface)."

This provider stores real tables (an ``.mdb``-like database) and
exposes exactly that surface — but **no** command object, so the DHQP
must compose remote range/fetch plans itself rather than pushing SQL.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConnectionError_
from repro.network.channel import NetworkChannel
from repro.oledb.datasource import DataSource
from repro.oledb.interfaces import ALL_INTERFACES, ICOMMAND, IDB_CREATE_COMMAND
from repro.oledb.properties import ProviderCapabilities, SqlSupportLevel
from repro.providers.base import TableBackedSession
from repro.storage.catalog import Database


class IsamDataSource(DataSource):
    """Data source over an .mdb-like database of tables + indexes."""

    provider_name = "Microsoft.Jet.OLEDB"
    #: everything but a command object
    INTERFACES = ALL_INTERFACES - {IDB_CREATE_COMMAND, ICOMMAND}

    def __init__(
        self,
        database: Database,
        channel: Optional[NetworkChannel] = None,
        path: str = "",
    ):
        super().__init__(
            channel,
            ProviderCapabilities(
                sql_support=SqlSupportLevel.NONE,
                query_language="none (ISAM navigation)",
                supports_indexes=True,
                supports_statistics=True,
                dialect_name="jet",
            ),
        )
        self.database = database
        self.path = path

    def _check_connection(self) -> None:
        if self.database is None:
            raise ConnectionError_("ISAM provider: no database attached")

    def _make_session(self) -> "IsamSession":
        return IsamSession(self, self.database)


class IsamSession(TableBackedSession):
    """Full ISAM surface; no command creation (raises NotSupported)."""
