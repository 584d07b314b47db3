"""Tests for the OLE DB abstraction layer (Section 3)."""

import pytest

from repro.errors import ConnectionError_, NotSupportedError
from repro.oledb import (
    ChapteredRowset,
    MANDATORY_DSO_INTERFACES,
    MaterializedRowset,
    ProviderCapabilities,
    RowObject,
    Rowset,
    SqlSupportLevel,
)
from repro.oledb.properties import Operation
from repro.oledb.schema_rowsets import (
    histogram_from_rowset,
    histogram_rowset,
)
from repro.stats import Histogram
from repro.types import Column, INT, Schema, varchar

SCHEMA = Schema([Column("a", INT), Column("b", varchar())])


class TestRowset:
    def test_forward_only_iteration(self):
        rs = Rowset(SCHEMA, iter([(1, "x"), (2, "y")]))
        assert rs.fetch_all() == [(1, "x"), (2, "y")]

    def test_bookmarks(self):
        rs = Rowset(SCHEMA, iter([(1, "x")]), bookmarks=iter([42]))
        assert list(rs.iter_with_bookmarks()) == [(42, (1, "x"))]

    def test_no_bookmarks_raises(self):
        rs = Rowset(SCHEMA, iter([(1, "x")]))
        with pytest.raises(NotSupportedError):
            rs.iter_with_bookmarks()

    def test_materialized_reiterable(self):
        rs = MaterializedRowset(SCHEMA, [(1, "x")])
        assert rs.fetch_all() == [(1, "x")]
        assert rs.fetch_all() == [(1, "x")]  # again
        assert len(rs) == 1

    def test_map(self):
        rs = Rowset(SCHEMA, iter([(1, "x")]))
        out_schema = Schema([Column("a2", INT)])
        mapped = rs.map(lambda r: (r[0] * 2,), out_schema)
        assert mapped.fetch_all() == [(2,)]


class TestRowObjects:
    def test_common_and_specific_columns(self):
        ro = RowObject(SCHEMA, (1, "x"), {"Location": "R1"})
        assert ro.common("a") == 1
        assert ro.specific("Location") == "R1"
        with pytest.raises(NotSupportedError):
            ro.specific("Missing")
        assert "Location" in ro.column_names()

    def test_chaptered_rowset_generic_view(self):
        # generic consumers see the common columns like a plain rowset
        rows = [RowObject(SCHEMA, (1, "x"), {"extra": 1}),
                RowObject(SCHEMA, (2, "y"))]
        ch = ChapteredRowset(SCHEMA, rows)
        assert list(ch) == [(1, "x"), (2, "y")]

    def test_chapter_navigation(self):
        child = ChapteredRowset(SCHEMA, [RowObject(SCHEMA, (9, "z"))])
        ch = ChapteredRowset(
            SCHEMA,
            [RowObject(SCHEMA, (1, "x"))],
            chapters={0: {"kids": child}},
        )
        assert ch.chapter_names(0) == ["kids"]
        assert list(ch.chapter(0, "kids")) == [(9, "z")]
        with pytest.raises(NotSupportedError):
            ch.chapter(0, "nope")


class TestProperties:
    def test_idbproperties_roundtrip(self):
        from repro.providers import SimpleDataSource

        ds = SimpleDataSource({"f.csv": "a\n1"})
        ds.set_property("DBPROP_INIT_DATASOURCE", "f.csv")
        ds.set_property("DBPROP_INIT_DATASOURCE", "g.csv")
        assert ds.get_property("DBPROP_INIT_DATASOURCE") == "g.csv"
        assert ds.get_property("missing", "d") == "d"
        assert SimpleDataSource({"f.csv": "a\n1"}).get_property(
            "DBPROP_INIT_DATASOURCE"
        ) is None

    def test_sql_levels_ordered(self):
        assert SqlSupportLevel.SQL92_FULL > SqlSupportLevel.SQL_MINIMUM
        assert SqlSupportLevel.SQL_MINIMUM.is_sql
        assert not SqlSupportLevel.PROPRIETARY.is_sql

    def test_simple_provider_category(self):
        caps = ProviderCapabilities(SqlSupportLevel.NONE)
        assert caps.is_simple_provider
        assert not caps.is_query_provider
        assert not caps.can_remote(Operation.RESTRICT)

    def test_query_provider_category(self):
        caps = ProviderCapabilities(
            SqlSupportLevel.PROPRIETARY, query_language="MDX"
        )
        assert caps.is_query_provider
        assert not caps.is_sql_provider

    def test_sql_minimum_operations(self):
        caps = ProviderCapabilities(SqlSupportLevel.SQL_MINIMUM)
        assert caps.can_remote(Operation.RESTRICT)
        assert caps.can_remote(Operation.PROJECT)
        assert not caps.can_remote(Operation.JOIN)
        assert not caps.can_remote(Operation.GROUP_BY)

    def test_sql92_entry_operations(self):
        caps = ProviderCapabilities(SqlSupportLevel.SQL92_ENTRY)
        assert caps.can_remote(Operation.JOIN)
        assert caps.can_remote(Operation.GROUP_BY)
        assert not caps.can_remote(Operation.TOP)

    def test_full_has_everything(self):
        caps = ProviderCapabilities(SqlSupportLevel.SQL92_FULL)
        for op in Operation:
            assert caps.can_remote(op)

    def test_removed_operations(self):
        caps = ProviderCapabilities(
            SqlSupportLevel.SQL92_FULL,
            removed_operations=[Operation.UNION],
        )
        assert not caps.can_remote(Operation.UNION)

    def test_describe_matrix_row(self):
        caps = ProviderCapabilities(
            SqlSupportLevel.SQL92_FULL, query_language="Transact-SQL"
        )
        row = caps.describe()
        assert row["sql_support"] == "SQL92_FULL"
        assert row["query_language"] == "Transact-SQL"


class TestHistogramRowsets:
    def test_roundtrip(self):
        h = Histogram.build(list(range(100)) * 2 + [None] * 3)
        rowset = histogram_rowset(h)
        back = histogram_from_rowset(rowset)
        assert back.total_rows == h.total_rows
        assert back.null_rows == 3
        assert back.estimate_equal(50) == h.estimate_equal(50)


class TestDataSourceLifecycle:
    def test_session_requires_initialize(self):
        from repro.providers import SimpleDataSource

        ds = SimpleDataSource({"f.csv": "a\n1"})
        with pytest.raises(ConnectionError_, match="not initialized"):
            ds.create_session()
        ds.initialize()
        assert ds.create_session() is not None

    def test_mandatory_interfaces_present_everywhere(self):
        from repro.providers import SimpleDataSource

        ds = SimpleDataSource({"f.csv": "a\n1"})
        assert MANDATORY_DSO_INTERFACES <= ds.interfaces()
