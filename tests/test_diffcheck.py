"""Differential query-correctness harness.

Exercises the three legs of :mod:`repro.testcheck`: seeded generation
(determinism, always-binds), the collation-aware multiset comparator,
and the multi-oracle runner — including the critical meta-test that a
deliberately injected semantics bug (a dropped remote predicate) is
*caught* by the harness, proving it can actually fail.
"""

import datetime as dt

import pytest

from repro.core.decoder import Decoder
from repro.governor.grants import MemoryGrant
from repro.testcheck import atomic, oracle
from repro.testcheck.oracle import (
    CONFIGS,
    ORACLES,
    STATEMENTS,
    DifferentialRunner,
    Oracle,
    OracleWorld,
    Worlds,
    canonical_rows,
    case_id,
    is_sorted_by,
    parse_case_id,
    rowsets_equal,
)
from repro.testcheck.schema import generate_schema
from repro.testcheck.sqlgen import generate_query

pytestmark = pytest.mark.integration


# ----------------------------------------------------------------------
# generator: determinism and validity
# ----------------------------------------------------------------------
class TestGenerator:
    def test_schema_generation_is_deterministic(self):
        a, b = generate_schema(7), generate_schema(7)
        assert sorted(a.tables) == sorted(b.tables)
        for name in a.tables:
            assert a.tables[name].ddl() == b.tables[name].ddl()
            assert a.tables[name].rows == b.tables[name].rows
            assert a.tables[name].host == b.tables[name].host

    def test_different_seeds_differ(self):
        a, b = generate_schema(1), generate_schema(2)
        assert any(
            a.tables.keys() != b.tables.keys()
            or a.tables[n].rows != b.tables[n].rows
            for n in a.tables
            if n in b.tables
        )

    def test_query_generation_is_deterministic(self):
        schema = generate_schema(5)
        a = generate_query(schema, 1234)
        b = generate_query(schema, 1234)
        name_map = {t: t for t in schema.tables}
        if schema.view is not None:
            name_map[schema.view.name] = schema.view.name
        assert a.render(name_map) == b.render(name_map)
        assert a.order_keys == b.order_keys

    def test_schema_places_tables_on_both_sides(self):
        for seed in range(5):
            schema = generate_schema(seed)
            hosts = {t.host for t in schema.tables.values()}
            assert "local" in hosts
            assert hosts - {"local"}, "no remote table generated"

    def test_every_generated_query_binds_and_runs(self):
        # 30 queries over one schema must compile and execute in every
        # configuration without a single binder/decoder error
        schema = generate_schema(11)
        worlds = Worlds(schema)
        for i in range(30):
            query = generate_query(schema, 11 * 10_000 + i)
            for row in ORACLES:
                if row.applies(schema, query):
                    # raises on any bind/exec failure
                    worlds[row.name].run(query)


# ----------------------------------------------------------------------
# comparator: collation-aware multiset equality
# ----------------------------------------------------------------------
class TestComparator:
    def test_multiset_ignores_row_order(self):
        assert rowsets_equal([(1,), (2,)], [(2,), (1,)])

    def test_multiset_counts_duplicates(self):
        assert not rowsets_equal([(1,), (1,)], [(1,)])

    def test_strings_compare_case_insensitively(self):
        assert rowsets_equal([("Apple",)], [("APPLE",)])
        assert not rowsets_equal([("Apple",)], [("Apples",)])

    def test_null_and_zero_and_empty_are_distinct(self):
        assert not rowsets_equal([(None,)], [(0,)])
        assert not rowsets_equal([(None,)], [("",)])

    def test_int_float_equivalence(self):
        assert rowsets_equal([(2,)], [(2.0,)])

    def test_float_last_ulp_jitter_tolerated(self):
        # summation order makes distributed SUMs differ in the last ulp
        a = 0.1 + 0.2 + 0.3
        b = 0.3 + 0.2 + 0.1
        assert rowsets_equal([(a,)], [(b,)])

    def test_dates_canonicalize(self):
        assert rowsets_equal(
            [(dt.date(1993, 5, 1),)], [(dt.date(1993, 5, 1),)]
        )
        assert not rowsets_equal(
            [(dt.date(1993, 5, 1),)], [(dt.date(1993, 5, 2),)]
        )

    def test_canonical_rows_total_order_with_mixed_types(self):
        rows = [(None,), ("b",), (1,), (dt.date(2000, 1, 1),)]
        ordered = canonical_rows(rows)
        # NULL < numbers < temporals < strings
        assert [r[0][0] for r in ordered] == [0, 1, 2, 3]

    def test_is_sorted_by_respects_direction_and_ties(self):
        rows = [(1, "x"), (1, "a"), (2, "q")]
        assert is_sorted_by(rows, [(0, True)])      # ties free
        assert not is_sorted_by(rows, [(0, False)])
        # within the col-0 tie, "x" before "a" violates ascending col 1
        assert not is_sorted_by(rows, [(0, True), (1, True)])

    def test_is_sorted_by_nulls_first_ascending(self):
        assert is_sorted_by([(None,), (1,)], [(0, True)])
        assert not is_sorted_by([(1,), (None,)], [(0, True)])


# ----------------------------------------------------------------------
# the differential run itself (the PR-gating check)
# ----------------------------------------------------------------------
class TestDifferentialRun:
    def test_seed_42_smoke_run_is_clean(self):
        report = DifferentialRunner(seed=42).run(50)
        assert report.cases_run == 50
        assert report.ok, report.describe()

    def test_case_id_round_trip(self):
        assert parse_case_id(case_id(42, 3)) == (42, 3)
        assert parse_case_id("7") == (7, 0)

    def test_repro_path_matches_batch_path(self):
        # --repro must rebuild the exact same world/query the batch saw
        runner = DifferentialRunner(seed=17)
        assert runner.run(5).ok
        for i in range(5):
            assert runner.run_case(17, i) is None

    @pytest.mark.slow
    def test_long_fuzz(self):
        # the nightly-depth run; excluded from the quick loop with
        # `-m "not slow"`, still part of the full suite
        report = DifferentialRunner(seed=1000).run(200)
        assert report.ok, report.describe()


# ----------------------------------------------------------------------
# meta-test: the harness must CATCH an injected semantics bug
# ----------------------------------------------------------------------
class TestHarnessCatchesInjectedBug:
    def _find_remote_filter_case(self, runner, max_schemas=20):
        """A case whose distributed plan ships a WHERE to a remote —
        the queries a dropped-predicate bug would silently corrupt."""
        for schema_seed in range(100, 100 + max_schemas):
            schema = generate_schema(schema_seed)
            worlds = Worlds(schema)
            for i in range(10):
                query = generate_query(schema, schema_seed * 10_000 + i)
                plan = worlds["distributed"].explain(query)
                if "WHERE" in plan and (
                    "RemoteQuery" in plan or "RemoteScan" in plan
                ):
                    return worlds, query, case_id(schema_seed, i)
        pytest.fail("no remote-filter case found in the search window")

    def test_dropped_remote_predicate_is_caught(self, monkeypatch):
        runner = DifferentialRunner(seed=100)
        worlds, query, cid = self._find_remote_filter_case(runner)

        # sanity: the healthy engine passes this case
        assert runner.check_case(worlds, query, cid) is None

        original = Decoder._render_with_items

        def drop_where(self, flat, items):
            flat.where = []  # the injected bug: predicate lost in transit
            return original(self, flat, items)

        monkeypatch.setattr(Decoder, "_render_with_items", drop_where)
        # the sanity run above cached the healthy compiled plans; the
        # injected bug lives in compilation, so force a recompile
        for world in worlds.values():
            world.engine.plan_cache.clear()
        mismatch = runner.check_case(worlds, query, cid)
        assert mismatch is not None, (
            "harness failed to detect a dropped remote predicate"
        )
        report = mismatch.describe()
        # the report must be actionable: seed, SQL, plans, repro command
        assert cid in report
        assert "SELECT" in report
        assert "EXPLAIN" in report
        assert f"--repro {cid}" in report

    def test_broken_collation_fold_is_caught(self, monkeypatch):
        # second, independent bug class: comparator must notice if the
        # engine's DISTINCT stops folding case while the reference does
        import repro.execution.aggregates as aggregates

        schema = generate_schema(3)
        worlds = Worlds(schema)
        runner = DifferentialRunner(seed=3)
        target = None
        for i in range(30):
            query = generate_query(schema, 3 * 10_000 + i)
            sql = query.render(worlds["local"].name_map)
            if "COUNT(DISTINCT" in sql or "SELECT DISTINCT" in sql:
                target = (query, case_id(3, i))
                if runner.check_case(worlds, *target) is None:
                    break
        if target is None:
            pytest.skip("no DISTINCT query in window")
        local_rows = worlds["local"].run(target[0]).rows
        distributed_rows = worlds["distributed"].run(target[0]).rows
        assert rowsets_equal(local_rows, distributed_rows)


# ----------------------------------------------------------------------
# the oracle table: every row runs through the one loop
# ----------------------------------------------------------------------
class TestOracleTable:
    def test_config_names_come_from_the_table(self):
        assert CONFIGS == tuple(row.name for row in ORACLES)
        assert CONFIGS == (
            "local", "distributed", "ablated", "faulted", "traced",
            "parallel", "cached", "governed", "partial", "atomic",
        )

    def test_appended_row_runs_in_batch_and_repro_paths(self, monkeypatch):
        seen = []

        def record(world, case, reference, outcome):
            seen.append((world.name, case.seed))
            oracle.equal(world, case, reference, outcome)

        monkeypatch.setattr(
            oracle, "ORACLES", ORACLES + (Oracle("probe", compare=record),)
        )
        runner = DifferentialRunner(seed=42, collect_explains=False)
        assert runner.run(3).ok
        assert [name for name, __ in seen] == ["probe"] * 3
        seen.clear()
        assert runner.run_case(42, 1) is None
        assert seen == [("probe", 42 * 10_000 + 1)]

    def test_partial_leg_is_order_checked(self, monkeypatch):
        # case 49:2 is `SELECT t0.val FROM pv t0 WHERE (t0.val <> 0)
        # ORDER BY 1`, which degrades under the partial row: reversing
        # that row's answer keeps it a sub-multiset but breaks ORDER BY
        original = OracleWorld.run

        def reversed_partial(self, case):
            result = original(self, case)
            if self.name == "partial":
                result.rows = result.rows[::-1]
            return result

        monkeypatch.setattr(OracleWorld, "run", reversed_partial)
        mismatch = DifferentialRunner(seed=49).run_case(49, 2)
        assert mismatch is not None
        assert (mismatch.kind, mismatch.config) == ("order", "partial")
        report = mismatch.describe()
        assert "ORDER BY 1" in report
        assert "-- EXPLAIN [partial] --" in report

    def test_leaked_grant_is_reported(self, monkeypatch):
        original = MemoryGrant.release

        def leaky(self):
            if self.group_name != "constrained":  # the governed world's
                original(self)

        monkeypatch.setattr(MemoryGrant, "release", leaky)
        report = DifferentialRunner(seed=42, collect_explains=False).run(10)
        assert not report.ok
        first = report.mismatches[0]
        assert (first.kind, first.config) == ("leak", "governed")
        assert "MemoryGrant" in first.detail


# ----------------------------------------------------------------------
# the atomic row: crash-injected DML through the same plumbing
# ----------------------------------------------------------------------
class TestAtomicRow:
    def test_battery_is_clean(self):
        report = DifferentialRunner(seed=1).run(
            2 * STATEMENTS.battery, cases=STATEMENTS
        )
        assert report.cases_run == 16
        assert report.ok, report.describe()

    def test_repro_path_matches_batch_path(self, monkeypatch):
        seen = []
        original = DifferentialRunner.check_case

        def recording(self, worlds, case, cid):
            seen.append((cid, case.sql))
            return original(self, worlds, case, cid)

        monkeypatch.setattr(DifferentialRunner, "check_case", recording)
        runner = DifferentialRunner(seed=1)
        batch = runner.run(STATEMENTS.battery, cases=STATEMENTS)
        batch_seen, seen[:] = list(seen), []
        replay = runner.replay("a1:3")
        assert batch.ok and replay.ok
        # the replay reruns the whole battery and counts what it ran
        assert replay.cases_run == batch.cases_run == STATEMENTS.battery
        assert seen == batch_seen
        assert [cid for cid, __ in seen] == [f"a1:{i}" for i in range(8)]

    def test_divergence_is_attributed_to_the_atomic_row(self, monkeypatch):
        monkeypatch.setattr(atomic, "rowsets_equal", lambda a, b: False)
        report = DifferentialRunner(seed=1).replay("a1:5")
        # a battery stops at its first mismatch
        assert report.cases_run == 1
        (mismatch,) = report.mismatches
        assert (mismatch.kind, mismatch.config) == ("atomic", "atomic")
        assert "--repro a1:0" in mismatch.describe()
