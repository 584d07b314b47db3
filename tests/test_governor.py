"""Resource Governor: pools, classification, memory grants, admission
control, SET WORKLOAD GROUP, the governor DMVs, engine lifecycle, and
the 4-session governed TPC-C concurrency smoke test."""

from __future__ import annotations

import threading

import pytest

from repro.engine import Engine
from repro.errors import (
    AdmissionTimeoutError,
    GovernorError,
    GrantTimeoutError,
    SqlError,
    UnknownSetOptionError,
)
from repro.governor import ResourceGovernor, estimate_plan_memory_kb
from repro.governor.classifier import Classifier, WorkloadGroup
from repro.governor.pools import ResourcePool
from repro.resilience.health import SimulatedClock
from repro.workloads.tpcc import build_federation, run_new_orders


def _people(engine):
    engine.execute(
        "CREATE TABLE people (id int PRIMARY KEY, name varchar(30), "
        "city_id int)"
    )
    engine.execute("CREATE TABLE cities (id int PRIMARY KEY, city varchar(30))")
    for i, city in enumerate(("Austin", "Boston", "Chicago"), start=1):
        engine.execute(f"INSERT INTO cities VALUES ({i}, '{city}')")
    for i in range(1, 13):
        engine.execute(
            f"INSERT INTO people VALUES ({i}, 'P{i}', {(i % 3) + 1})"
        )


# ======================================================================
# pools
# ======================================================================

class TestResourcePool:
    def test_unbounded_pool_never_blocks(self):
        pool = ResourcePool("p")
        clock = SimulatedClock()
        assert pool.try_acquire_slot()
        assert pool.try_acquire_memory(10_000.0)
        assert pool.acquire_memory(50_000.0, clock) == 0.0
        assert pool.active_requests == 1
        assert pool.used_memory_kb == 60_000.0

    def test_slot_capacity_enforced(self):
        pool = ResourcePool("p", max_concurrency=2)
        assert pool.try_acquire_slot()
        assert pool.try_acquire_slot()
        assert not pool.try_acquire_slot()
        pool.release_slot()
        assert pool.try_acquire_slot()

    def test_memory_capacity_enforced(self):
        pool = ResourcePool("p", max_memory_kb=100.0)
        assert pool.try_acquire_memory(80.0)
        assert not pool.try_acquire_memory(30.0)
        pool.release_memory(80.0)
        assert pool.try_acquire_memory(30.0)

    def test_blocking_wait_times_out_on_simulated_clock(self):
        pool = ResourcePool("p", max_concurrency=1)
        clock = SimulatedClock()
        assert pool.try_acquire_slot()
        with pytest.raises(TimeoutError):
            pool.acquire_slot(clock, timeout_ms=200.0)
        # the waiter billed simulated time while waiting
        assert clock.now_ms >= 200.0
        # the failed waiter left no queue residue
        assert pool.queued_requests() == 0

    def test_full_admission_queue_sheds_immediately(self):
        pool = ResourcePool("p", max_concurrency=1, max_queue_length=0)
        clock = SimulatedClock()
        assert pool.try_acquire_slot()
        with pytest.raises(TimeoutError, match="queue full"):
            pool.acquire_slot(clock, timeout_ms=10_000.0)
        assert clock.now_ms == 0.0  # shed without waiting

    def test_release_wakes_blocked_waiter(self):
        pool = ResourcePool("p", max_concurrency=1)
        clock = SimulatedClock()
        assert pool.try_acquire_slot()
        waited = {}

        def waiter():
            waited["ms"] = pool.acquire_slot(clock, timeout_ms=60_000.0)

        thread = threading.Thread(target=waiter)
        thread.start()
        pool.release_slot()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert "ms" in waited
        assert pool.active_requests == 1

    def test_peak_tracking(self):
        pool = ResourcePool("p", max_memory_kb=100.0, max_concurrency=4)
        pool.try_acquire_slot()
        pool.try_acquire_slot()
        pool.try_acquire_memory(60.0)
        pool.release_slot()
        pool.release_memory(60.0)
        assert pool.peak_concurrency == 2
        assert pool.peak_memory_kb == 60.0
        assert pool.used_memory_kb == 0.0


# ======================================================================
# classification
# ======================================================================

class TestClassifier:
    def test_explicit_binding_wins(self):
        classifier = Classifier()
        classifier.add_rule("all", lambda s: True, "bulk")

        class S:
            workload_group = "reports"

        assert classifier.classify(S()) == "reports"

    def test_rules_fire_in_order(self):
        classifier = Classifier()
        classifier.add_rule("named", lambda s: s.name == "etl", "bulk")
        classifier.add_rule("all", lambda s: True, "interactive")

        class S:
            workload_group = None
            name = "etl"

        class T:
            workload_group = None
            name = "web"

        assert classifier.classify(S()) == "bulk"
        assert classifier.classify(T()) == "interactive"

    def test_default_when_nothing_matches(self):
        class S:
            workload_group = None

        assert Classifier().classify(S()) == "default"

    def test_grant_cap(self):
        group = WorkloadGroup("g", max_memory_grant_pct=25.0)
        assert group.grant_cap_kb(1000.0) == 250.0
        assert group.grant_cap_kb(None) is None

    def test_governor_rejects_unknown_pool_and_duplicates(self):
        governor = ResourceGovernor(SimulatedClock())
        with pytest.raises(GovernorError):
            governor.create_group("g", pool="nope")
        governor.create_pool("p", max_memory_kb=10.0)
        with pytest.raises(GovernorError):
            governor.create_pool("p")
        governor.create_group("g", pool="p")
        with pytest.raises(GovernorError):
            governor.create_group("g")

    def test_classifier_rule_routes_engine_sessions(self, engine):
        _people(engine)
        engine.governor.create_group("reports")
        engine.governor.add_classifier_rule(
            "by-name", lambda s: s.name.startswith("rpt"), "reports"
        )
        reporting = engine.create_session("rpt-1")
        ordinary = engine.create_session("web-1")
        assert (
            reporting.execute("SELECT id FROM people").workload_group
            == "reports"
        )
        assert (
            ordinary.execute("SELECT id FROM people").workload_group
            == "default"
        )


# ======================================================================
# memory grants
# ======================================================================

class TestMemoryGrants:
    def test_streaming_plan_needs_no_grant(self, engine):
        _people(engine)
        result = engine.execute("SELECT id FROM people WHERE id = 3")
        assert result.memory_grant_kb == 0.0
        assert engine.governor.active_grants() == []

    def test_hash_join_plan_gets_a_grant(self, engine):
        _people(engine)
        result = engine.execute(
            "SELECT p.name, c.city FROM people p "
            "JOIN cities c ON p.city_id = c.id ORDER BY p.name"
        )
        assert result.memory_grant_kb > 0.0
        # released at statement end: DMV empty, pool back to zero
        assert engine.governor.active_grants() == []
        assert engine.governor.pools["default"].used_memory_kb == 0.0

    def test_estimate_annotates_operators(self, engine):
        _people(engine)
        optimization = engine.plan(
            "SELECT city_id, count(*) AS n FROM people GROUP BY city_id"
        )
        total = estimate_plan_memory_kb(
            optimization.plan, engine.optimizer.cost_model
        )
        assert total > 0.0
        annotated = [
            node for node in optimization.plan.walk()
            if node.est_memory_kb > 0.0
        ]
        assert annotated

    def test_grant_clamped_to_group_pct(self, engine):
        _people(engine)
        engine.governor.create_pool("tiny", max_memory_kb=1.0)
        engine.governor.create_group(
            "squeezed", pool="tiny", max_memory_grant_pct=50.0
        )
        engine.execute("SET WORKLOAD GROUP 'squeezed'")
        result = engine.execute(
            "SELECT p.name, c.city FROM people p "
            "JOIN cities c ON p.city_id = c.id"
        )
        # the raw estimate exceeds 0.5KB but the reduced grant fits
        assert 0.0 < result.memory_grant_kb <= 0.5
        assert engine.governor.pools["tiny"].used_memory_kb == 0.0

    def test_grant_timeout_is_typed(self, engine):
        _people(engine)
        engine.governor.create_pool("squeeze", max_memory_kb=10.0)
        engine.governor.create_group(
            "starved", pool="squeeze", max_memory_grant_pct=100.0,
            request_timeout_ms=100.0,
        )
        # occupy the whole pool so the statement's grant must queue
        pool = engine.governor.pools["squeeze"]
        assert pool.try_acquire_memory(10.0)
        engine.execute("SET WORKLOAD GROUP 'starved'")
        with pytest.raises(GrantTimeoutError) as info:
            engine.execute(
                "SELECT p.name, c.city FROM people p "
                "JOIN cities c ON p.city_id = c.id"
            )
        assert info.value.pool == "squeeze"
        assert info.value.group == "starved"
        assert info.value.required_kb > 0.0
        pool.release_memory(10.0)
        # shedding released the admission slot and left no grant
        assert engine.governor.active_grants() == []

    def test_grant_released_on_execution_error(self, engine):
        _people(engine)
        # force an execution-time failure after the grant is held: a
        # scalar subquery returning two rows raises mid-execution
        with pytest.raises(Exception):
            engine.execute(
                "SELECT p.name FROM people p "
                "JOIN cities c ON p.city_id = c.id "
                "WHERE p.id = (SELECT id FROM cities WHERE id >= 1)"
            )
        assert engine.governor.active_grants() == []
        assert engine.governor.pools["default"].used_memory_kb == 0.0


# ======================================================================
# admission control
# ======================================================================

class TestAdmissionControl:
    def test_concurrency_gate_sheds_at_deadline(self, engine):
        _people(engine)
        engine.governor.create_pool("narrow", max_concurrency=1)
        engine.governor.create_group(
            "gated", pool="narrow", request_timeout_ms=100.0
        )
        pool = engine.governor.pools["narrow"]
        assert pool.try_acquire_slot()  # an outsider holds the only slot
        session = engine.create_session("gated-client")
        session.execute("SET WORKLOAD GROUP 'gated'")
        with pytest.raises(AdmissionTimeoutError) as info:
            session.execute("SELECT id FROM people")
        assert info.value.pool == "narrow"
        assert pool.admission_timeouts == 1
        pool.release_slot()
        # the pool recovered: the same session now runs fine
        assert session.execute("SELECT id FROM people").rows

    def test_bounded_queue_sheds_without_waiting(self, engine):
        _people(engine)
        engine.governor.create_pool(
            "strict", max_concurrency=1, max_queue_length=0
        )
        engine.governor.create_group(
            "strict_g", pool="strict", request_timeout_ms=60_000.0
        )
        pool = engine.governor.pools["strict"]
        assert pool.try_acquire_slot()
        session = engine.create_session("strict-client")
        session.execute("SET WORKLOAD GROUP 'strict_g'")
        with pytest.raises(AdmissionTimeoutError, match="queue full"):
            session.execute("SELECT id FROM people")
        pool.release_slot()

    def test_concurrent_sessions_serialize_through_one_slot(self, engine):
        _people(engine)
        engine.governor.create_pool("serial", max_concurrency=1)
        engine.governor.create_group(
            "serial_g", pool="serial", request_timeout_ms=120_000.0
        )
        sessions = [engine.create_session(f"s{i}") for i in range(4)]
        for session in sessions:
            session.execute("SET WORKLOAD GROUP 'serial_g'")
        results, errors = [], []

        def client(session):
            try:
                for __ in range(3):
                    results.append(
                        session.execute("SELECT count(*) AS n FROM people")
                        .scalar()
                    )
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(s,)) for s in sessions
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert results == [12] * 12
        pool = engine.governor.pools["serial"]
        assert pool.active_requests == 0
        assert pool.peak_concurrency == 1  # the gate really serialized

    def test_admission_stats_on_result(self, engine):
        _people(engine)
        result = engine.execute("SELECT id FROM people")
        assert result.workload_group == "default"
        assert result.admission_wait_ms == 0.0


# ======================================================================
# SET statements
# ======================================================================

class TestSetStatements:
    def test_set_workload_group(self, engine):
        _people(engine)
        engine.governor.create_group("reports")
        engine.execute("SET WORKLOAD GROUP 'reports'")
        result = engine.execute("SELECT id FROM people")
        assert result.workload_group == "reports"

    def test_set_workload_group_unknown_name(self, engine):
        with pytest.raises(SqlError, match="unknown workload group"):
            engine.execute("SET WORKLOAD GROUP 'missing'")

    def test_set_workload_group_requires_string(self, engine):
        with pytest.raises(SqlError, match="quoted group name"):
            engine.execute("SET WORKLOAD GROUP 3")

    def test_unknown_set_option_is_typed_and_lists_supported(self, engine):
        with pytest.raises(UnknownSetOptionError) as info:
            engine.execute("SET FROBNICATE ON")
        assert info.value.option == "frobnicate"
        assert "PARALLEL_DOP" in info.value.supported
        assert "WORKLOAD GROUP" in info.value.supported
        message = str(info.value)
        assert "'FROBNICATE'" in message
        assert "PARTIAL_RESULTS" in message

    def test_unknown_set_option_is_still_a_sqlerror(self, engine):
        with pytest.raises(SqlError):
            engine.execute("SET NOT_A_THING 5")

    def test_failed_set_leaves_session_untouched(self, engine):
        engine.governor.create_group("reports")
        engine.execute("SET WORKLOAD GROUP 'reports'")
        with pytest.raises(SqlError):
            engine.execute("SET WORKLOAD GROUP 'missing'")
        assert engine._default_session.workload_group == "reports"


# ======================================================================
# MAX_DOP clamp
# ======================================================================

class TestMaxDopClamp:
    def test_group_max_dop_clamps_distributed_exchange(self):
        federation = build_federation(
            member_count=4, warehouses_per_member=1,
            customers_per_warehouse=10, latency_ms=2.0,
        )
        coordinator = federation.coordinator
        coordinator.execute("SET PARALLEL_DOP 4")
        wide = coordinator.execute(
            "SELECT c_w_id, c_id, c_balance FROM customer"
        )
        assert wide.dop == 4  # ungoverned: full requested degree
        coordinator.governor.create_group("clamped", max_dop=2)
        coordinator.execute("SET WORKLOAD GROUP 'clamped'")
        clamped = coordinator.execute(
            "SELECT c_w_id, c_id, c_balance FROM customer"
        )
        assert clamped.dop == 2  # the group ceiling won
        assert sorted(clamped.rows) == sorted(wide.rows)
        coordinator.close()
        for member in federation.members:
            member.close()

    def test_insert_select_source_runs_under_the_issuing_session(self):
        # the source SELECT of an INSERT..SELECT is part of the issuing
        # statement: its session's DOP, its group's ceiling, its trace
        federation = build_federation(
            member_count=4, warehouses_per_member=1,
            customers_per_warehouse=10, latency_ms=2.0,
        )
        coordinator = federation.coordinator
        coordinator.execute(
            "CREATE TABLE copy (c_w_id int, c_id int, c_balance float)"
        )
        coordinator.governor.create_group("serial_only", max_dop=1)
        coordinator.tracing_enabled = True
        insert = (
            "INSERT INTO copy SELECT c_w_id, c_id, c_balance FROM customer"
        )

        def branch_degrees(session):
            result = session.execute(insert)
            assert result.rowcount == 40
            # the source's execute span is in the INSERT's own trace
            assert len(result.trace.spans("execute")) == 1
            return {
                span.attrs["parallelism"]
                for span in result.trace.spans("parallel_branch")
            }

        wide = coordinator.create_session("wide")
        wide.execute("SET PARALLEL_DOP 4")
        assert branch_degrees(wide) == {4}
        governed = coordinator.create_session("governed")
        governed.execute("SET PARALLEL_DOP 4")
        governed.execute("SET WORKLOAD GROUP 'serial_only'")
        assert branch_degrees(governed) == {1}
        coordinator.close()
        for member in federation.members:
            member.close()

    def test_max_dop_one_forces_serial(self, engine):
        # a local engine exercise: the clamp rides ExecutionContext, so
        # result.dop can never exceed the group ceiling
        _people(engine)
        engine.governor.create_group("serial_only", max_dop=1)
        engine.execute("SET WORKLOAD GROUP 'serial_only'")
        engine.execute("SET PARALLEL_DOP 4")
        result = engine.execute(
            "SELECT p.name, c.city FROM people p "
            "JOIN cities c ON p.city_id = c.id ORDER BY p.name"
        )
        assert result.dop == 1
        assert len(result.rows) == 12


# ======================================================================
# DMVs
# ======================================================================

class TestGovernorViews:
    def test_pools_view(self, engine):
        _people(engine)
        engine.governor.create_pool(
            "etl", max_memory_kb=2048.0, max_concurrency=3
        )
        result = engine.execute(
            "SELECT pool_name, max_memory_kb, active_requests "
            "FROM sys.dm_resource_governor_resource_pools p "
            "ORDER BY pool_name"
        )
        names = [row[0] for row in result.rows]
        assert names == ["default", "etl", "internal"]

    def test_groups_view(self, engine):
        engine.governor.create_group(
            "reports", max_dop=2, max_memory_grant_pct=10.0
        )
        result = engine.execute(
            "SELECT group_name, max_dop, max_memory_grant_pct "
            "FROM sys.dm_resource_governor_workload_groups g "
            "WHERE g.group_name = 'reports'"
        )
        assert result.rows == [("reports", 2, 10.0)]

    def test_grants_view_empty_at_quiesce(self, engine):
        _people(engine)
        engine.execute(
            "SELECT p.name, c.city FROM people p "
            "JOIN cities c ON p.city_id = c.id"
        )
        result = engine.execute(
            "SELECT grant_id FROM sys.dm_exec_query_memory_grants g"
        )
        assert result.rows == []

    def test_group_accounting_visible(self, engine):
        _people(engine)
        engine.execute("SELECT id FROM people")
        result = engine.execute(
            "SELECT total_requests FROM "
            "sys.dm_resource_governor_workload_groups g "
            "WHERE g.group_name = 'default'"
        )
        assert result.scalar() >= 1


# ======================================================================
# engine lifecycle
# ======================================================================

class TestEngineClose:
    def test_close_is_idempotent_and_refuses_new_statements(self):
        engine = Engine("lifecycle")
        engine.execute("CREATE TABLE t (id int PRIMARY KEY)")
        engine.close()
        engine.close()
        assert engine.closed
        with pytest.raises(Exception, match="closed"):
            engine.execute("SELECT id FROM t")

    def test_context_manager(self):
        with Engine("ctx") as engine:
            engine.execute("CREATE TABLE t (id int PRIMARY KEY)")
            engine.execute("INSERT INTO t VALUES (1)")
            assert engine.execute("SELECT id FROM t").rows == [(1,)]
        assert engine.closed

    def test_close_clears_plan_cache(self):
        engine = Engine("cacheclear")
        engine.execute("CREATE TABLE t (id int PRIMARY KEY)")
        engine.execute("SELECT id FROM t")
        assert list(engine.plan_cache.entries())
        engine.close()
        assert not list(engine.plan_cache.entries())

    def test_close_shuts_down_registered_schedulers(self, engine):
        _people(engine)
        engine.execute("SET PARALLEL_DOP 2")
        engine.execute(
            "CREATE VIEW both_halves AS "
            "SELECT id, name FROM people WHERE id <= 6 "
            "UNION ALL SELECT id, name FROM people WHERE id > 6"
        )
        result = engine.execute("SELECT id, name FROM both_halves")
        assert len(result.rows) == 12
        engine.close()
        for scheduler in list(engine._schedulers):
            assert all(not t.is_alive() for t in scheduler.threads)


# ======================================================================
# governed TPC-C concurrency smoke (the no-leak invariant)
# ======================================================================

class TestGovernedTpcc:
    def test_four_governed_sessions_no_grant_leak(self):
        federation = build_federation(
            member_count=2, warehouses_per_member=2,
            customers_per_warehouse=10,
        )
        coordinator = federation.coordinator
        coordinator.governor.create_pool(
            "oltp", max_memory_kb=8192.0, max_concurrency=2
        )
        coordinator.governor.create_group(
            "oltp_g", pool="oltp", max_dop=1,
            max_memory_grant_pct=50.0, request_timeout_ms=120_000.0,
        )
        sessions = [
            coordinator.create_session(f"tpcc-{i}") for i in range(4)
        ]
        for session in sessions:
            session.execute("SET WORKLOAD GROUP 'oltp_g'")
        committed, errors = [], []

        def client(index, session):
            try:
                committed.append(
                    run_new_orders(
                        federation, 5, seed=100 + index, session=session
                    )
                )
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(i, s))
            for i, s in enumerate(sessions)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        assert sum(committed) == 20
        # the no-leak invariant: at quiesce no statement holds memory
        grants = coordinator.execute(
            "SELECT grant_id FROM sys.dm_exec_query_memory_grants g"
        )
        assert grants.rows == []
        pool = coordinator.governor.pools["oltp"]
        assert pool.used_memory_kb == 0.0
        assert pool.active_requests == 0
        # every order landed
        total = coordinator.execute(
            "SELECT count(*) AS n FROM orders"
        ).scalar()
        assert total == 20
        coordinator.close()
        for member in federation.members:
            member.close()
