"""Statistics cost what they are worth (Section 3.2.4).

The paper hands the optimizer two different things: a cheap cardinality
rowset (TABLES_INFO) and, per column and on request, a histogram
rowset.  These tests count ``Histogram.build`` calls to pin down which
request pays for what: cardinality never builds a histogram, a compile
builds the columns its estimates read and no others, a plan-cache hit
builds none, and every invalidation point drops what was built.
"""

import pytest

from repro.stats import Histogram, TableStatistics
from repro.storage.transactions import LocalTransaction
from repro.testcheck.worlds import FIG4_SQL, build_fig4_world
from repro.workloads.tpcc import build_federation, new_order


@pytest.fixture
def builds(monkeypatch):
    """Every ``Histogram.build`` call made while the test runs."""
    calls = []
    real = Histogram.build

    def counting(values, max_buckets=32):
        calls.append(max_buckets)
        return real(values, max_buckets)

    monkeypatch.setattr(Histogram, "build", staticmethod(counting))
    return calls


@pytest.fixture
def fig4_world():
    local, remote, channel = build_fig4_world(customers=200, suppliers=20)
    try:
        yield local, remote
    finally:
        local.close()
        remote.close()


def _built_columns(table):
    return sorted(table.statistics.columns)


class TestCardinalityBuildsNoHistogram:
    def test_tables_info_over_a_freshly_written_database(self, fig4_world, builds):
        local, remote = fig4_world
        link = local.linked_server("remote0")
        rowset = link.session.schema_rowset("TABLES_INFO", database_name="tpch10g")
        cardinalities = {name: rows for name, rows, __, ___ in rowset}
        assert cardinalities == {"customer": 200, "supplier": 20}
        info = link.table_info("customer", "tpch10g")
        assert info.cardinality == 200 and info.avg_row_width > 0
        assert builds == []

    def test_histogram_rowset_builds_the_one_column_asked_for(
        self, fig4_world, builds
    ):
        local, remote = fig4_world
        link = local.linked_server("remote0")
        link.session.open_histogram_rowset(
            "customer", "c_acctbal", database_name="tpch10g"
        )
        assert len(builds) == 1
        customer = remote.catalog.database("tpch10g").table("customer")
        assert _built_columns(customer) == ["c_acctbal"]


class TestCompileBuildsOnlyWhatEstimatesRead:
    def test_fig4_builds_the_join_keys_only(self, fig4_world, builds):
        local, remote = fig4_world
        local.execute("EXPLAIN " + FIG4_SQL)
        database = remote.catalog.database("tpch10g")
        # c_name / c_address / c_phone are projected, the rest are not
        # referenced at all: none of them is worth a histogram
        assert _built_columns(database.table("customer")) == ["c_nationkey"]
        assert _built_columns(database.table("supplier")) == ["s_nationkey"]
        nation = local.catalog.database().table("nation")
        assert _built_columns(nation) == ["n_nationkey"]
        assert len(builds) == 3

    def test_each_column_is_built_once_per_compile(self, fig4_world, builds):
        local, __ = fig4_world
        local.execute("EXPLAIN " + FIG4_SQL)
        first = len(builds)
        # nothing was written: a second compile finds every column built
        local.execute("EXPLAIN " + FIG4_SQL)
        assert len(builds) == first


class TestPlanCacheHitBuildsNothing:
    def test_pv_insert_then_cached_point_read(self, builds):
        federation = build_federation(
            member_count=2, warehouses_per_member=1, customers_per_warehouse=20
        )
        try:
            # compile + cache the read, on the coordinator and (the
            # shipped text) on each member it can route to
            new_order(federation, 1, 3, 10.0)
            new_order(federation, 2, 3, 10.0)
            hits = federation.coordinator.plan_cache.hits
            del builds[:]
            # every member's orders table has just been written; the
            # reads below revalidate schema versions over TABLES_INFO
            new_order(federation, 1, 4, 20.0)
            new_order(federation, 2, 5, 30.0)
            assert federation.coordinator.plan_cache.hits >= hits + 2
            assert builds == []
        finally:
            federation.coordinator.close()
            for member in federation.members:
                member.close()


class TestInvalidationPoints:
    """A write, ``invalidate_statistics()`` and a rolled-back
    transaction each drop every built column."""

    @pytest.fixture
    def table(self, fig4_world):
        __, remote = fig4_world
        table = remote.catalog.database("tpch10g").table("supplier")
        table.statistics.column("s_nationkey")
        table.statistics.column("s_name")
        assert _built_columns(table) == ["s_name", "s_nationkey"]
        return table

    def test_insert_update_delete(self, table):
        row = next(table.rows())
        rid = table.insert((10_000,) + row[1:])
        assert _built_columns(table) == []
        table.statistics.column("s_name")
        table.update(rid, (10_001,) + row[1:])
        assert _built_columns(table) == []
        table.statistics.column("s_name")
        table.delete(rid)
        assert _built_columns(table) == []

    def test_invalidate_statistics(self, table):
        table.invalidate_statistics()
        assert _built_columns(table) == []

    def test_rollback(self, table):
        before = list(table.rows())
        row = before[0]
        txn = LocalTransaction("t")
        rid = table.insert((10_000,) + row[1:], txn)
        table.update(rid, (10_000, "Renamed") + row[2:], txn)
        # built inside the transaction: sees the uncommitted row
        assert table.statistics.row_count == len(before) + 1
        inside = table.statistics.column("s_name")
        txn.abort()
        assert _built_columns(table) == []
        assert list(table.rows()) == before
        fresh = TableStatistics.build(table.schema, before)
        assert table.statistics.row_count == fresh.row_count
        assert table.statistics.avg_row_width == fresh.avg_row_width
        for column in table.schema:
            after = table.statistics.column(column.name)
            expected = fresh.column(column.name)
            assert after.distinct_count == expected.distinct_count
            assert after.null_count == expected.null_count
            assert _buckets(after) == _buckets(expected)
        assert table.statistics.column("s_name") is not inside


def _buckets(stats):
    return [
        (b.upper_bound, b.equal_rows, b.range_rows, b.distinct_range)
        for b in stats.histogram.buckets
    ]
