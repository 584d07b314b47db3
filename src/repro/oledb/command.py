"""Command objects (Section 3.2.1).

"The command object encapsulates the functions that enable a consumer
to invoke the execution of data definition or data manipulation
statements" — set text, optionally bind parameters, execute, receive a
rowset.  The language of the text is entirely provider-defined
(Table 1): T-SQL for the SQL Server provider, the Index Server query
language for the full-text provider, and so on.

Parameters are positional ``?`` markers, found by the SQL lexer's token
stream — the rule the receiving server applies — so a ``?`` inside a
string literal, a bracketed name or a comment is text.  A command keeps
its marker text and its bound values apart: a SQL provider hands both
to its backend, which therefore sees one text however many value
vectors follow and parses and plans it once (the point of Section
4.1.2's parameterization rule).  The *rendered* text — values written
in as literals — exists for two things only: it is what the channel is
charged for, so the wire model is the one every recorded byte count
was taken under, and it is what a provider whose language has no
markers executes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Optional, Sequence

from repro.errors import ProviderError
from repro.oledb.rowset import Rowset
from repro.sql.lexer import tokenize_sql


@lru_cache(maxsize=256)
def marker_positions(text: str) -> tuple[int, ...]:
    """Offsets of the positional ``?`` markers in ``text``, in order.

    A marker is what the SQL lexer says is one — the rule the server
    that receives the text applies — so a ``?`` inside a string
    literal, a bracketed name or a comment is not.  Remembered per
    text: a cached plan executes one command text many times.
    """
    return tuple(
        token.position
        for token in tokenize_sql(text)
        if token.kind == "parameter" and token.value.startswith("?")
    )


class Command:
    """Base command.  Providers implement :meth:`_execute`."""

    def __init__(self, session: Any):
        self.session = session
        self.text: Optional[str] = None
        self.parameters: list[Any] = []

    def set_text(self, text: str) -> None:
        """Set the command text (query or DML in the provider's language)."""
        self.text = text

    def bind_parameters(self, values: Sequence[Any]) -> None:
        """Bind positional parameter values (the remote parameterization
        rule of Section 4.1.2 relies on this)."""
        self.parameters = list(values)

    def execute(self) -> Rowset:
        """Execute the command; returns the result rowset.

        The channel is charged for the outgoing text before executing:
        the text with the bound values written in, which is as long as
        the message a real provider sends (marker text plus a parameter
        block would be about as long, and every recorded byte count
        assumes this length).  That request also pays for the result's
        first message; the result rows come back through the same
        channel.
        """
        if self.text is None:
            raise ProviderError("command has no text")
        rendered = self._render_text()
        channel = self.session.datasource.channel
        channel.send_command(rendered)
        result = self._execute(rendered)
        return Rowset(
            result.schema,
            channel.reply(result, result.schema),
        )

    def _render_text(self) -> str:
        """The text with each ``?`` marker replaced by its bound value
        as a SQL literal; providers with exotic literal syntax override
        :meth:`_render_literal`."""
        assert self.text is not None
        if not self.parameters:
            return self.text
        text, positions = self.text, marker_positions(self.text)
        if len(positions) != len(self.parameters):
            raise ProviderError(
                f"command has {len(positions)} parameter markers but "
                f"{len(self.parameters)} bound values"
            )
        out, start = [], 0
        for position, value in zip(positions, self.parameters):
            out.append(text[start:position])
            out.append(self._render_literal(value))
            start = position + 1
        out.append(text[start:])
        return "".join(out)

    @staticmethod
    def _render_literal(value: Any) -> str:
        from repro.types.datatypes import infer_type

        return infer_type(value).render_literal(value)

    def _execute(self, rendered: str) -> Rowset:
        """Run the command at the provider's end; :meth:`execute` ships
        the result back.  ``rendered`` is all a provider whose language
        has no markers needs; a SQL provider sends ``text`` and
        ``parameters`` instead and never executes rendered text."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.text!r})"
