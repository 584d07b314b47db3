"""A generic proprietary-language query provider.

Models Table 1's non-SQL command languages (MDX for OLAP Services,
LDAP for Active Directory) without building those engines: the
application registers handler functions per command pattern, and the
DHQP treats the provider as pass-through-only, exactly as Section 3.3
prescribes ("If the query syntax is a proprietary syntax, then DHQP
supports only pass-through queries against this provider using the
OpenQuery function").
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ConnectionError_, ProviderError
from repro.network.channel import NetworkChannel
from repro.oledb.command import Command
from repro.oledb.datasource import DataSource
from repro.oledb.interfaces import (
    ICOMMAND,
    IDB_CREATE_COMMAND,
    IDB_INFO,
    IROWSET,
    MANDATORY_DSO_INTERFACES,
)
from repro.oledb.properties import ProviderCapabilities, SqlSupportLevel
from repro.oledb.rowset import Rowset
from repro.oledb.session import Session

#: a handler takes the command text and returns a rowset
CommandHandler = Callable[[str], Rowset]


class PassThroughDataSource(DataSource):
    """Provider whose only capability is executing opaque commands."""

    provider_name = "GENERIC.QUERY"
    #: commands only: no IOpenRowset, so no named rowsets
    INTERFACES = MANDATORY_DSO_INTERFACES | {
        IDB_INFO, IDB_CREATE_COMMAND, ICOMMAND, IROWSET,
    }

    def __init__(
        self,
        handler: CommandHandler,
        query_language: str = "proprietary",
        channel: Optional[NetworkChannel] = None,
        provider_name: Optional[str] = None,
    ):
        super().__init__(
            channel,
            ProviderCapabilities(
                sql_support=SqlSupportLevel.PROPRIETARY,
                query_language=query_language,
                dialect_name="proprietary",
            ),
        )
        self._handler = handler
        if provider_name is not None:
            self.provider_name = provider_name

    def _check_connection(self) -> None:
        if self._handler is None:
            raise ConnectionError_("pass-through provider has no handler")

    def _make_session(self) -> "PassThroughSession":
        return PassThroughSession(self)


class PassThroughSession(Session):
    def open_rowset(self, table_name: str, **kwargs: object) -> Rowset:
        raise ProviderError(
            f"{self.datasource.provider_name} has no named rowsets; "
            "use OpenQuery with a command in its native language"
        )

    def _make_command(self) -> "PassThroughCommand":
        return PassThroughCommand(self)


class PassThroughCommand(Command):
    def _execute(self, text: str) -> Rowset:
        return self.session.datasource._handler(text)
