"""The mail-file provider (Section 2.4).

"MakeTable is a table-valued function that transforms the mail file
(d:\\mail\\smith.mmf) into a stream of rows, each representing a
message."  A :class:`MailFile` is our ``.mmf`` substitute: a list of
:class:`MailMessage` objects with the columns the paper's query touches
(MsgId, From, Date, InReplyTo, ...).

Mail is also the paper's canonical *heterogeneous data* example
(Section 3.2.3): messages carry format-specific extras (meeting
invites have locations, receipts have amounts) and attachments form a
containment hierarchy — so this provider additionally exposes its data
as a chaptered rowset of row objects.
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, Dict, Iterable, Optional

from repro.errors import CatalogError, ConnectionError_
from repro.network.channel import NetworkChannel
from repro.oledb.datasource import DataSource
from repro.oledb.interfaces import SIMPLE_PROVIDER_INTERFACES
from repro.oledb.properties import ProviderCapabilities, SqlSupportLevel
from repro.oledb.row_object import ChapteredRowset, RowObject
from repro.oledb.rowset import Rowset
from repro.oledb.session import Session
from repro.types.datatypes import DATETIME, INT, varchar
from repro.types.schema import Column, Schema

#: the common columns every message exposes through the rowset view
MAIL_SCHEMA = Schema(
    [
        Column("MsgId", INT, nullable=False),
        Column("From", varchar()),
        Column("To", varchar()),
        Column("Subject", varchar()),
        Column("Date", DATETIME),
        Column("InReplyTo", INT),
        Column("Body", varchar()),
    ]
)

ATTACHMENT_SCHEMA = Schema(
    [
        Column("FileName", varchar(), nullable=False),
        Column("Size", INT, nullable=False),
    ]
)


class MailMessage:
    """One message; ``extras`` holds row-specific columns."""

    def __init__(
        self,
        msg_id: int,
        sender: str,
        to: str,
        subject: str,
        date: _dt.datetime,
        in_reply_to: Optional[int] = None,
        body: str = "",
        extras: Optional[Dict[str, Any]] = None,
        attachments: Optional[list[tuple[str, int]]] = None,
    ):
        self.msg_id = msg_id
        self.sender = sender
        self.to = to
        self.subject = subject
        self.date = date
        self.in_reply_to = in_reply_to
        self.body = body
        self.extras = dict(extras or {})
        self.attachments = list(attachments or [])

    def as_row(self) -> tuple[Any, ...]:
        return (
            self.msg_id,
            self.sender,
            self.to,
            self.subject,
            self.date,
            self.in_reply_to,
            self.body,
        )

    def __repr__(self) -> str:
        return f"MailMessage({self.msg_id}, from={self.sender!r})"


class MailFile:
    """An .mmf-like mailbox file."""

    def __init__(self, path: str):
        self.path = path
        self.messages: list[MailMessage] = []

    def add(self, message: MailMessage) -> None:
        self.messages.append(message)

    def __len__(self) -> int:
        return len(self.messages)

    def __repr__(self) -> str:
        return f"MailFile({self.path}, {len(self.messages)} messages)"


class EmailDataSource(DataSource):
    """Provider over one or more registered mail files."""

    provider_name = "Microsoft.Mail.OLEDB"
    INTERFACES = SIMPLE_PROVIDER_INTERFACES

    def __init__(
        self,
        mail_files: Iterable[MailFile],
        channel: Optional[NetworkChannel] = None,
    ):
        super().__init__(
            channel,
            ProviderCapabilities(
                sql_support=SqlSupportLevel.NONE,
                query_language="SQL with hierarchical query extensions",
                dialect_name="mail",
            ),
        )
        self._files = {mf.path.lower(): mf for mf in mail_files}

    def _check_connection(self) -> None:
        if not self._files:
            raise ConnectionError_("mail provider: no mail files registered")

    def mail_file(self, path: str) -> MailFile:
        key = path.lower()
        if key not in self._files:
            raise CatalogError(f"mail file {path!r} not registered")
        return self._files[key]

    def _make_session(self) -> "EmailSession":
        return EmailSession(self)


class EmailSession(Session):
    """Messages as a rowset (MakeTable) or a chaptered rowset."""

    def open_rowset(self, table_name: str, **kwargs: Any) -> Rowset:
        """``table_name`` is the mail-file path (MakeTable semantics)."""
        mail_file = self.datasource.mail_file(table_name)
        rows = [message.as_row() for message in mail_file.messages]
        return self.deliver(MAIL_SCHEMA, rows)

    def open_chaptered_rowset(self, table_name: str) -> ChapteredRowset:
        """Heterogeneous view: row objects + attachment chapters."""
        mail_file = self.datasource.mail_file(table_name)
        row_objects = []
        chapters: Dict[int, Dict[str, ChapteredRowset]] = {}
        for index, message in enumerate(mail_file.messages):
            row_objects.append(
                RowObject(MAIL_SCHEMA, message.as_row(), message.extras)
            )
            if message.attachments:
                child = ChapteredRowset(
                    ATTACHMENT_SCHEMA,
                    [
                        RowObject(ATTACHMENT_SCHEMA, (name, size))
                        for name, size in message.attachments
                    ],
                )
                chapters[index] = {"attachments": child}
        return ChapteredRowset(MAIL_SCHEMA, row_objects, chapters)
