"""Collation units, error hierarchy, and front-end robustness fuzzing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors
from repro.errors import LexerError, ParseError, ReproError
from repro.sql.parser import parse_sql
from repro.oledb.properties import ProviderCapabilities, SqlSupportLevel
from repro.types.collation import Collation, DEFAULT_COLLATION


def _quote(identifier: str, quotes: str = "[]") -> str:
    """Quote as a provider with ``identifier_quotes=quotes`` does."""
    capabilities = ProviderCapabilities(
        SqlSupportLevel.SQL92_FULL, identifier_quotes=quotes
    )
    return capabilities.quote_identifier(identifier)


class TestCollation:
    def test_default_case_insensitive(self):
        assert DEFAULT_COLLATION.equals("Seattle", "SEATTLE")
        assert not DEFAULT_COLLATION.equals("Seattle", "Tacoma")

    def test_ansi_case_sensitive(self):
        ansi = Collation("ANSI_CS", case_sensitive=True)
        assert not ansi.equals("Seattle", "SEATTLE")

    # identifier quoting is a provider capability, not a collation
    def test_bracket_quoting(self):
        assert _quote("My Table") == "[My Table]"

    def test_bracket_escaping(self):
        assert _quote("a]b") == "[a]]b]"

    def test_ansi_quoting(self):
        assert _quote("emp", '""') == '"emp"'
        assert _quote('a"b', '""') == '"a""b"'

    def test_custom_collation(self):
        assert _quote("t", "``") == "`t`"


class TestErrorHierarchy:
    def test_every_error_derives_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, ReproError) or obj is ReproError, name

    def test_positions_carried(self):
        try:
            parse_sql("SELECT FROM")
        except ParseError as exc:
            assert exc.position >= 0


class TestParserRobustness:
    """The front end may reject input, but only with its own errors."""

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=80))
    def test_arbitrary_text_never_crashes(self, text):
        try:
            parse_sql(text)
        except (LexerError, ParseError):
            pass  # rejection is fine; crashes are not

    @settings(max_examples=100, deadline=None)
    @given(
        st.text(
            alphabet="SELECT FROM WHERE abct123*(),.'=<>@",
            max_size=60,
        )
    )
    def test_sqlish_text_never_crashes(self, text):
        try:
            parse_sql(text)
        except (LexerError, ParseError):
            pass

    def test_deeply_nested_parens(self):
        expr = "(" * 50 + "1" + ")" * 50
        stmt = parse_sql(f"SELECT {expr}")
        assert stmt.items

    def test_long_in_list(self):
        values = ", ".join(str(i) for i in range(500))
        stmt = parse_sql(f"SELECT 1 FROM t WHERE x IN ({values})")
        assert len(stmt.where.items) == 500
