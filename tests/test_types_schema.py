"""Tests for columns and schemas."""

import datetime as dt

import pytest

from repro.errors import BindError, CatalogError
from repro.types import (
    BIGINT, BOOL, DATE, DATETIME, FLOAT, INT, Column, Schema, varchar,
)


@pytest.fixture
def schema():
    return Schema(
        [
            Column("id", INT, nullable=False, table_alias="t"),
            Column("name", varchar(20), table_alias="t"),
            Column("name", varchar(20), table_alias="u"),
        ]
    )


class TestResolution:
    def test_qualified_lookup(self, schema):
        assert schema.ordinal_of("name", "t") == 1
        assert schema.ordinal_of("name", "u") == 2

    def test_unqualified_unique(self, schema):
        assert schema.ordinal_of("id") == 0

    def test_unqualified_ambiguous(self, schema):
        with pytest.raises(BindError, match="ambiguous"):
            schema.ordinal_of("name")

    def test_missing_column(self, schema):
        with pytest.raises(BindError, match="not found"):
            schema.ordinal_of("nope")

    def test_case_insensitive(self, schema):
        assert schema.ordinal_of("ID") == 0
        assert schema.ordinal_of("Name", "T") == 1

    def test_maybe_ordinal_returns_none(self, schema):
        assert schema.maybe_ordinal_of("nope") is None

    def test_maybe_ordinal_still_raises_on_ambiguity(self, schema):
        with pytest.raises(BindError):
            schema.maybe_ordinal_of("name")


class TestRowValidation:
    def test_coerces_values(self, schema):
        row = schema.validate_row(("1", "a", "b"))
        assert row == (1, "a", "b")

    def test_arity_mismatch(self, schema):
        with pytest.raises(CatalogError, match="arity"):
            schema.validate_row((1, "a"))

    def test_not_null_enforced(self, schema):
        with pytest.raises(CatalogError, match="NOT NULL"):
            schema.validate_row((None, "a", "b"))

    def test_nullable_accepts_none(self, schema):
        row = schema.validate_row((1, None, None))
        assert row == (1, None, None)


class TestCombinators:
    def test_concat(self, schema):
        other = Schema([Column("x", INT)])
        merged = schema.concat(other)
        assert len(merged) == 4
        assert merged.names == ("id", "name", "name", "x")

    def test_project(self, schema):
        projected = schema.project([2, 0])
        assert projected.names == ("name", "id")
        assert projected[0].table_alias == "u"

    def test_with_alias(self, schema):
        aliased = schema.with_alias("z")
        assert all(c.table_alias == "z" for c in aliased)

    def test_row_width_with_values(self, schema):
        assert schema.row_width((1, "ab", "abcd")) == 4 + 4 + 6

    def test_row_width_is_the_sum_of_column_widths(self):
        # every type, NULLs included: the precomputed function adds up
        # to what each column's byte_width says of its value
        wide = Schema(
            Column(f"c{i}", t)
            for i, t in enumerate(
                (INT, BIGINT, FLOAT, BOOL, DATE, DATETIME, varchar(), varchar(9))
            )
        )
        rows = [
            (1, 2, 1.5, True, dt.date(2000, 1, 1), dt.datetime(2000, 1, 1), "abc", 7),
            (None,) * 8,
            (None, None, None, None, None, None, "", "longer text"),
        ]
        for row in rows:
            assert wide.row_width(row) == sum(
                c.type.byte_width(v) for c, v in zip(wide, row)
            )
        assert wide.row_width_function() is wide.row_width_function()
        # a ragged row still sums the columns it pairs with
        assert wide.row_width((1, 2)) == 4 + 8

    def test_equality_and_hash(self, schema):
        clone = Schema(list(schema.columns))
        assert clone == schema
        assert hash(clone) == hash(schema)
