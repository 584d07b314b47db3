"""Tests for histograms and cardinality estimation (Section 3.2.4)."""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import (
    ColumnStatistics,
    Histogram,
    TableStatistics,
    estimate_comparison_selectivity,
    estimate_join_selectivity,
)
from repro.types import NEG_INF, Column, INT, Interval, IntervalSet, Schema, varchar
from repro.types.intervals import SortKey, _cmp


class TestHistogramBuild:
    def test_empty(self):
        h = Histogram.build([])
        assert h.total_rows == 0
        assert h.estimate_equal(5) == 0.0

    def test_all_nulls(self):
        h = Histogram.build([None, None])
        assert h.null_rows == 2
        assert h.estimate_equal(None) == 0.0

    def test_total_rows_conserved(self):
        values = list(range(100)) * 3
        h = Histogram.build(values)
        assert h.total_rows == 300

    def test_equal_estimate_on_boundary_value_exact(self):
        values = [1] * 10 + [2] * 20 + [3] * 5
        h = Histogram.build(values, max_buckets=3)
        assert h.estimate_equal(h.buckets[0].upper_bound) == \
            h.buckets[0].equal_rows

    def test_min_max(self):
        h = Histogram.build([5, 1, 9])
        assert h.min_value == 1
        assert h.max_value == 9

    def test_distinct_count(self):
        h = Histogram.build([1, 1, 2, 3, 3, 3], max_buckets=10)
        assert h.distinct_count == 3


class TestHistogramEstimation:
    def test_range_estimate_reasonable(self):
        values = list(range(1000))
        h = Histogram.build(values, max_buckets=50)
        domain = IntervalSet([Interval(100, 199, True, True)])
        estimate = h.estimate_interval_set(domain)
        assert 50 <= estimate <= 200  # true value is 100

    def test_full_domain_is_all_non_null(self):
        h = Histogram.build(list(range(50)) + [None] * 5)
        assert h.estimate_interval_set(IntervalSet.full()) == 50

    def test_empty_domain_is_zero(self):
        h = Histogram.build(list(range(50)))
        assert h.estimate_interval_set(IntervalSet.empty()) == 0.0

    def test_skew_detected(self):
        # one heavy value among many light ones
        values = [0] * 900 + list(range(1, 101))
        h = Histogram.build(values, max_buckets=32)
        heavy = h.estimate_equal(0)
        light = h.estimate_equal(50)
        assert heavy > 50 * max(1.0, light)

    def test_first_bucket_holds_only_the_minimum(self):
        # rows below the first bucket's bound used to sit in a bucket
        # with no interior to interpolate over: k < 50 estimated 0
        h = Histogram.build(list(range(2000)))
        first = h.buckets[0]
        assert (first.upper_bound, first.range_rows) == (0, 0)
        below_50 = h.estimate_interval(Interval(NEG_INF, 50, False, False))
        assert below_50 == pytest.approx(50, rel=0.1)
        first_ten = h.estimate_interval(Interval(0, 9, True, True))
        assert first_ten == pytest.approx(10, rel=0.1)

    def test_point_interval_is_an_equality(self):
        h = Histogram.build(list(range(2000)))
        assert h.estimate_interval(Interval.point(42)) == pytest.approx(1.0)
        assert h.estimate_interval_set(
            IntervalSet.points([0, 42, 100])
        ) == pytest.approx(3.0)

    def test_equalities_on_a_linked_isam_key(self):
        from repro import Engine, NetworkChannel
        from repro.core import physical as P
        from repro.providers import IsamDataSource
        from repro.storage.catalog import Database

        db = Database("acc")
        table = db.create_table(
            "Customers",
            Schema([Column("id", INT, nullable=False), Column("city", varchar(30))]),
        )
        for i in range(2000):
            table.insert((i, f"city{i % 20}"))
        table.create_index("ix_id", ["id"], unique=True)
        local = Engine("local")
        local.add_linked_server(
            "acc", IsamDataSource(db, channel=NetworkChannel("acc-ch"))
        )
        for predicate, expected in (("= 42", 1.0), ("IN (1, 50, 99)", 3.0)):
            plan = local.plan(
                f"SELECT c.city FROM acc.acc.dbo.Customers c WHERE c.id {predicate}"
            ).plan
            (node,) = [n for n in plan.walk() if isinstance(n, P.RemoteRange)]
            assert node.est_rows == pytest.approx(expected), predicate


class TestColumnStatistics:
    def test_build(self):
        stats = ColumnStatistics.build("c", [1, 1, 2, None])
        assert stats.distinct_count == 2
        assert stats.null_count == 1

    def test_selectivity_with_histogram(self):
        stats = ColumnStatistics.build("c", [1] * 90 + [2] * 10)
        sel = estimate_comparison_selectivity("=", 2, stats, 100)
        assert 0.05 <= sel <= 0.15

    def test_selectivity_without_stats_uses_default(self):
        sel = estimate_comparison_selectivity("=", 2, None, 100)
        assert sel == 0.1

    def test_range_selectivity(self):
        stats = ColumnStatistics.build("c", list(range(100)))
        sel = estimate_comparison_selectivity(">", 89, stats, 100)
        assert sel <= 0.25


class TestJoinSelectivity:
    def test_uses_max_distinct(self):
        a = ColumnStatistics("a", None, 100, 0)
        b = ColumnStatistics("b", None, 10, 0)
        assert estimate_join_selectivity(a, b) == pytest.approx(0.01)

    def test_defaults_without_stats(self):
        assert estimate_join_selectivity(None, None) == 0.1


class TestTableStatistics:
    def test_build_from_schema(self):
        schema = Schema([Column("id", INT), Column("name", varchar(20))])
        rows = [(i, f"n{i % 4}") for i in range(20)]
        stats = TableStatistics.build(schema, rows)
        assert stats.row_count == 20
        assert stats.column("name").distinct_count == 4
        assert stats.column("ID") is not None  # case-insensitive
        assert stats.avg_row_width > 4


class TestHistogramProperties:
    @given(st.lists(st.integers(-50, 50), max_size=200))
    def test_total_rows_matches_input(self, values):
        h = Histogram.build(values)
        assert h.total_rows == len(values)

    @given(
        st.lists(st.integers(-20, 20), min_size=1, max_size=100),
        st.integers(-20, 20),
        st.integers(-20, 20),
    )
    def test_estimates_bounded_by_total(self, values, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        h = Histogram.build(values)
        domain = IntervalSet([Interval(lo, hi, True, True)])
        estimate = h.estimate_interval_set(domain)
        assert 0.0 <= estimate <= h.total_rows + 1e-9

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=100))
    def test_point_estimates_sum_to_total(self, values):
        h = Histogram.build(values, max_buckets=100)
        # with enough buckets every distinct value is a boundary, so
        # point estimates are exact
        total = sum(h.estimate_equal(v) for v in set(values))
        assert total == pytest.approx(len(values))


# ----------------------------------------------------------------------
# equivalence: the one-pass native-key build against the algorithm it
# replaced (every value ordered through SortKey/_cmp), kept here as the
# reference
# ----------------------------------------------------------------------
def reference_histogram(values, max_buckets=32):
    """(buckets, null_rows) as ``Histogram.build`` computes them, but
    sorting on ``SortKey`` and finding runs with ``_cmp`` as it once
    did; the bucket rule (the first run closes alone) is the build's."""
    non_null = []
    null_rows = 0
    for v in values:
        if v is None:
            null_rows += 1
        else:
            non_null.append(v)
    if not non_null:
        return [], null_rows
    non_null.sort(key=SortKey)
    runs = []
    for v in non_null:
        if runs and _cmp(runs[-1][0], v) == 0:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((v, 1))
    target_depth = max(1, len(non_null) // max(1, max_buckets))
    buckets = []
    range_rows = 0
    distinct_range = 0
    for index, (value, count) in enumerate(runs):
        # the first and last runs by position (NaN runs can compare
        # equal as tuples); the first closes alone: RANGE_ROWS 0
        if range_rows + count >= target_depth or index in (0, len(runs) - 1):
            buckets.append((value, count, range_rows, distinct_range))
            range_rows = 0
            distinct_range = 0
        else:
            range_rows += count
            distinct_range += 1
    return buckets, null_rows


def histogram_tuples(h):
    """A built histogram in ``reference_histogram``'s shape."""
    return (
        [
            (b.upper_bound, b.equal_rows, b.range_rows, b.distinct_range)
            for b in h.buckets
        ],
        h.null_rows,
    )


def built_histogram(values, max_buckets=32):
    return histogram_tuples(Histogram.build(values, max_buckets))


def same_histogram(built, expected) -> bool:
    """Equal bucket for bucket, and the *same* representative: 1 vs 1.0
    vs True, or 'a' vs 'A', compare equal but are different bounds."""
    (b_buckets, b_nulls), (e_buckets, e_nulls) = built, expected
    return (
        b_nulls == e_nulls
        and b_buckets == e_buckets
        and [(type(b[0]), repr(b[0])) for b in b_buckets]
        == [(type(e[0]), repr(e[0])) for e in e_buckets]
    )


_INTS = st.integers(-30, 30)
_FLOATS = st.one_of(
    st.floats(-30, 30, allow_nan=False),
    st.integers(-30, 30).map(float),  # collide with the ints
)
_FLOATS_NAN = st.sampled_from(  # NaN sends the build to SortKey
    [float("nan"), -0.0, 0.0, 1.5, float("inf"), float("-inf")]
)
_STRINGS = st.text(alphabet="aAbBcC 1", max_size=3)  # case variants abound
_DATES = st.dates(dt.date(1992, 1, 1), dt.date(1992, 3, 1))
_DATETIMES = st.datetimes(
    dt.datetime(1992, 1, 1), dt.datetime(1992, 1, 3)
).map(lambda v: v.replace(microsecond=0, second=0, minute=0))


def _column(*kinds):
    """Lists over the given kinds of value, NULLs mixed in."""
    return st.lists(st.one_of(st.none(), *kinds), max_size=120)


_COLUMNS = st.one_of(
    _column(_INTS),
    _column(_FLOATS),
    _column(_INTS, _FLOATS),
    _column(_FLOATS_NAN, _INTS),
    _column(st.booleans()),
    _column(st.booleans(), _INTS),
    _column(_STRINGS),
    _column(_DATES),
    _column(_DATETIMES),
    _column(_DATES, _DATETIMES),
    _column(_INTS, _FLOATS, st.booleans(), _STRINGS, _DATES),
    _column(st.decimals(-5, 5, places=1), _INTS),
)


class TestBuildMatchesSortKeyReference:
    @given(_COLUMNS, st.sampled_from([1, 3, 32, 100]))
    @settings(max_examples=400, deadline=None)
    def test_identical_buckets(self, values, max_buckets):
        assert same_histogram(
            built_histogram(list(values), max_buckets),
            reference_histogram(list(values), max_buckets),
        )

    def test_run_representative_is_first_seen(self):
        # a stable sort: the bound of a run is whichever spelling of the
        # value came first, exactly as under SortKey
        for values in (["b", "A", "a", "B"], [1.0, 1, 2, 2.0], [2, 1.0, 1]):
            built = built_histogram(values, max_buckets=100)
            assert same_histogram(built, reference_histogram(values, 100))
        assert [b[0] for b in built_histogram(["b", "A", "a", "B"], 100)[0]] \
            == ["A", "b"]

    def test_accepts_a_one_shot_iterator(self):
        assert built_histogram(iter([3, None, 1, 3])) == \
            reference_histogram([3, None, 1, 3])

    def test_every_world_table_column(self):
        checked = 0
        for table in _world_tables():
            fresh = TableStatistics.build(table.schema, list(table.rows()))
            for ordinal, column in enumerate(table.schema):
                values = [row[ordinal] for row in table.rows()]
                buckets, null_rows = reference_histogram(values)
                stats = table.statistics.column(column.name)
                assert same_histogram(
                    histogram_tuples(stats.histogram), (buckets, null_rows)
                ), (table.name, column.name)
                assert stats.null_count == null_rows
                assert stats.distinct_count == max(
                    1.0, sum(1 + b[3] for b in buckets)
                )
                # built from a row list, the same answer as from the heap
                again = fresh.column(column.name)
                assert again.distinct_count == stats.distinct_count
                assert again.null_count == stats.null_count
                checked += 1
        assert checked > 40


def _world_tables():
    """Every base table of every server in every testcheck world."""
    from repro.testcheck import worlds

    builders = (
        worlds.build_people_engine,
        worlds.build_remote_pair,
        worlds.build_partitioned_engine,
        worlds.build_fig4_world,
        worlds.build_pruning_world,
        worlds.build_spool_world,
        worlds.build_param_join_world,
    )
    for build in builders:
        built = build()
        engine = built[0] if isinstance(built, tuple) else built
        servers = [engine] + [
            link.datasource.backend for link in engine.linked_servers.values()
        ]
        try:
            for server in servers:
                for database in server.catalog.databases():
                    for __, table in database.tables():
                        yield table
        finally:
            for server in servers:
                server.close()


class TestDistinctCountHasOneDefinition:
    """``=``, GROUP BY and DISTINCT fold case, so a column's distinct
    count does too — the same number whether the optimizer reads it off
    a local table or off a member's histogram rowset."""

    def test_case_variants_count_once(self):
        stats = ColumnStatistics.build("c", ["Ada", "ADA", "ada", "Bob", None])
        assert stats.distinct_count == 2
        assert stats.null_count == 1
        assert stats.distinct_count == stats.histogram.distinct_count

    def test_local_and_remote_agree(self):
        from repro import Engine, NetworkChannel, ServerInstance

        ddl = "CREATE TABLE t (id int, name varchar(10))"
        rows = "INSERT INTO t VALUES (1, 'Ada'), (2, 'ADA'), (3, 'bob'), (4, 'Bob')"
        with ServerInstance("r") as remote, Engine("local") as local:
            for server in (remote, local):
                server.execute(ddl)
                server.execute(rows)
            link = local.add_linked_server("r", remote, NetworkChannel("c"))
            local_stats = (
                local.catalog.database().table("t").statistics.column("name")
            )
            remote_stats = link.column_statistics("t", "name")
            assert local_stats.distinct_count == remote_stats.distinct_count == 2
