"""SQL lexer."""

from __future__ import annotations

import re

from repro.errors import LexerError

KEYWORDS = frozenset(
    """select from where group by having order asc desc top distinct as
    inner left right outer cross join on and or not null is in exists
    between like union all insert into values update set delete create
    table view index unique primary key check constraint database drop
    if contains freetext openrowset openquery maketable case when then
    else end with schemabinding default references foreign explain""".split()
)


class Token:
    __slots__ = ("kind", "value", "position")

    KINDS = (
        "keyword",
        "identifier",
        "number",
        "string",
        "operator",
        "punct",
        "parameter",
        "eof",
    )

    def __init__(self, kind: str, value: str, position: int):
        self.kind = kind
        self.value = value
        self.position = position

    def is_keyword(self, *words: str) -> bool:
        return self.kind == "keyword" and self.value.lower() in {
            w.lower() for w in words
        }

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r})"


#: (group name, pattern), tried in this order at every position; "junk"
#: matches any one character nothing else did, so a scan never skips
_PATTERNS = (
    ("ws", r"\s+"),
    ("comment", r"--[^\n]*"),
    ("block_comment", r"/\*(?s:.*?)\*/"),
    # windows-style paths may appear unquoted in MakeTable() per the paper
    ("path", r"[A-Za-z]:[\\/][^\s,()']*"),
    ("number", r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+|\d+(?:[eE][+-]?\d+)?"),
    ("string", r"'(?:[^']|'')*'"),
    ("bracket_ident", r"\[[^\]]*\]"),
    ("quoted_ident", r'"[^"]*"'),
    ("parameter", r"@[A-Za-z_][A-Za-z0-9_]*"),
    ("marker", r"\?"),
    ("identifier", r"[A-Za-z_#][A-Za-z0-9_$#]*"),
    ("operator", r"<>|!=|<=|>=|=|<|>|\+|-|\*|/|%"),
    ("punct", r"[(),.;:]"),
    ("junk", r"(?s:.)"),
)

#: one alternation, dispatched on ``match.lastgroup``: the first
#: alternative that matches is the first pattern that matches
_TOKEN = re.compile(
    "|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _PATTERNS)
)


def marker_name(ordinal: int) -> str:
    """The parameter name of the ``ordinal``-th (0-based) positional
    ``?`` marker of a statement.  No ``@name`` can spell it, so named
    and positional parameters never collide."""
    return f"?{ordinal}"


def tokenize_sql(text: str) -> list[Token]:
    """Tokenize SQL text; raises :class:`LexerError` on junk.

    A positional ``?`` marker is a ``parameter`` token named by its
    ordinal among the statement's markers (:func:`marker_name`)."""
    tokens: list[Token] = []
    append = tokens.append
    markers = 0
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "ws":
            continue
        lexeme = match.group()
        position = match.start()
        if kind == "identifier":
            append(
                Token(
                    "keyword" if lexeme.lower() in KEYWORDS else "identifier",
                    lexeme,
                    position,
                )
            )
        elif kind == "punct" or kind == "operator" or kind == "number":
            append(Token(kind, lexeme, position))
        elif kind == "string":
            # undouble embedded quotes
            append(Token("string", lexeme[1:-1].replace("''", "'"), position))
        elif kind == "bracket_ident" or kind == "quoted_ident":
            append(Token("identifier", lexeme[1:-1], position))
        elif kind == "parameter":
            append(Token("parameter", lexeme, position))
        elif kind == "marker":
            append(Token("parameter", marker_name(markers), position))
            markers += 1
        elif kind == "path":
            append(Token("string", lexeme, position))
        elif kind == "junk":
            raise LexerError(f"unexpected character {lexeme!r}", position)
        # comments produce nothing
    tokens.append(Token("eof", "", len(text)))
    return tokens
