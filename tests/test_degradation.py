"""Graceful degradation: circuit breakers, health-aware planning,
mid-query failover, and partial-results federation.

Covers the breaker state machine under the simulated clock, fast-fail
accounting (no network charge while open), the optimizer's
health-penalized fallback from deep pushdown to fetch-and-filter, the
bounded replan after a mid-query member death, ``SET PARTIAL_RESULTS``
semantics on partitioned views (including the fail-stop DML guarantee),
and the diffcheck subset oracle for degraded answers.
"""

import pytest

from repro import (
    Engine,
    FaultInjector,
    NetworkChannel,
    RetryPolicy,
    ServerInstance,
)
from repro.errors import (
    CircuitOpenError,
    ServerUnavailableError,
    SqlError,
)
from repro.resilience import NO_RETRY
from repro.resilience.faults import TRANSIENT
from repro.resilience.health import (
    CLOSED,
    CircuitBreaker,
    HALF_OPEN,
    HealthRegistry,
    OPEN,
    SimulatedClock,
)
from repro.testcheck import oracle, worlds

pytestmark = pytest.mark.integration


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def remote_pair():
    """local engine + one remote server with a small table, warmed."""
    local = Engine("local")
    remote = ServerInstance("r0")
    remote.execute("CREATE TABLE t (id int, v varchar(10))")
    remote.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')")
    local.add_linked_server(
        "r0", remote, NetworkChannel("wan", latency_ms=1.0)
    )
    local.execute("SELECT * FROM r0.master.dbo.t")  # warm metadata
    return local, remote


@pytest.fixture
def pv_world():
    """Three-member distributed partitioned view, metadata warmed."""
    local, channels = worlds.build_pruning_world()
    local.execute("SELECT * FROM lineitem")
    return local, channels


def _take_down(local, server_name):
    injector = FaultInjector(down=True)
    local.linked_server(server_name).channel.fault_injector = injector
    return injector


# ----------------------------------------------------------------------
# the breaker state machine (simulated clock)
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        clock = SimulatedClock()
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("open_interval_ms", 200.0)
        return CircuitBreaker("r0", clock, **kwargs), clock

    def test_threshold_failures_trip(self):
        breaker, __ = self._breaker()
        error = RuntimeError("boom")
        breaker.record_failure(error)
        breaker.record_failure(error)
        assert breaker.state == CLOSED
        breaker.record_failure(error)
        assert breaker.state == OPEN
        assert breaker.trip_count == 1

    def test_success_resets_consecutive_count(self):
        breaker, __ = self._breaker()
        error = RuntimeError("boom")
        breaker.record_failure(error)
        breaker.record_failure(error)
        breaker.record_success()
        breaker.record_failure(error)
        breaker.record_failure(error)
        assert breaker.state == CLOSED

    def test_definitive_failure_trips_immediately(self):
        breaker, __ = self._breaker()
        breaker.record_failure(ServerUnavailableError("down"), definitive=True)
        assert breaker.state == OPEN

    def test_open_fast_fails_until_interval(self):
        breaker, clock = self._breaker()
        breaker.force_open()
        with pytest.raises(CircuitOpenError):
            breaker.before_attempt()
        clock.advance(199.0)
        with pytest.raises(CircuitOpenError):
            breaker.before_attempt()
        assert breaker.fast_fails == 2

    def test_full_cycle_closed_open_half_open_closed(self):
        breaker, clock = self._breaker()
        breaker.record_failure(ServerUnavailableError("down"), definitive=True)
        assert breaker.state == OPEN
        clock.advance(200.0)
        breaker.before_attempt()  # admitted as probe
        assert breaker.state == HALF_OPEN
        assert breaker.probe_count == 1
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.next_probe_at_ms is None

    def test_probe_failure_reopens(self):
        breaker, clock = self._breaker()
        breaker.force_open()
        clock.advance(200.0)
        breaker.before_attempt()
        assert breaker.state == HALF_OPEN
        breaker.record_failure(ServerUnavailableError("still down"))
        assert breaker.state == OPEN
        assert breaker.trip_count == 2
        # the new open interval starts at the probe failure
        assert breaker.next_probe_at_ms == clock.now_ms + 200.0

    def test_circuit_open_error_is_unavailability(self):
        breaker, __ = self._breaker()
        breaker.force_open()
        with pytest.raises(ServerUnavailableError) as excinfo:
            breaker.before_attempt()
        assert isinstance(excinfo.value, CircuitOpenError)
        assert excinfo.value.server_name == "r0"

    def test_registry_shares_clock_and_defaults_closed(self):
        registry = HealthRegistry("e")
        assert registry.state_of("anything") == CLOSED
        breaker = registry.breaker("r0")
        registry.tick()  # statement tick
        assert breaker.clock.now_ms == HealthRegistry.STATEMENT_TICK_MS
        breaker.force_open()
        assert registry.is_open("r0")
        assert registry.open_servers() == ["r0"]

    def test_breakers_is_a_snapshot(self):
        # another session's first touch of a member inserts a breaker
        # while this one iterates (the plan cache does, every statement)
        registry = HealthRegistry("e")
        registry.breaker("r0")
        registry.breaker("r1")
        seen = []
        for breaker in registry.breakers():
            seen.append(breaker.name)
            registry.breaker(f"late{len(seen)}")
        assert seen == ["r0", "r1"]
        assert len(registry.breakers()) == 4


# ----------------------------------------------------------------------
# breaker wiring: linked servers, metrics, DMV
# ----------------------------------------------------------------------
class TestBreakerIntegration:
    def test_down_member_trips_and_fast_fails(self, remote_pair):
        local, __ = remote_pair
        _take_down(local, "r0")
        with pytest.raises(ServerUnavailableError):
            local.execute("SELECT * FROM r0.master.dbo.t")
        assert local.health.state_of("r0") == OPEN
        # while open: no network round trips are spent discovering the
        # failure again — the whole point of the breaker
        before = local.linked_server("r0").channel.stats.round_trips
        with pytest.raises(ServerUnavailableError):
            local.execute("SELECT * FROM r0.master.dbo.t")
        after = local.linked_server("r0").channel.stats.round_trips
        assert after == before
        assert local.metrics.value_of("health.breaker_trips") >= 1
        assert local.metrics.value_of("health.fast_fails") >= 1

    def test_exhausted_retries_count_toward_threshold(self, remote_pair):
        local, __ = remote_pair
        server = local.linked_server("r0")
        server.retry_policy = NO_RETRY
        injector = FaultInjector()
        server.channel.fault_injector = injector
        breaker = local.health.breaker("r0")
        injector.fail_next(TRANSIENT, count=breaker.failure_threshold)
        for __ in range(breaker.failure_threshold):
            with pytest.raises(Exception):
                server.run_with_retry(
                    lambda: server.channel.send_command("select 1"),
                    description="probe",
                )
        assert breaker.state == OPEN

    def test_transient_masked_by_retry_is_success(self, remote_pair):
        local, __ = remote_pair
        injector = FaultInjector()
        local.linked_server("r0").channel.fault_injector = injector
        injector.fail_next(TRANSIENT, count=1)
        result = local.execute("SELECT * FROM r0.master.dbo.t")
        assert len(result.rows) == 3
        assert local.health.state_of("r0") == CLOSED
        breaker = local.health.breaker("r0")
        assert breaker.consecutive_failures == 0

    def test_recovery_via_half_open_probe(self, remote_pair):
        local, __ = remote_pair
        injector = _take_down(local, "r0")
        with pytest.raises(ServerUnavailableError):
            local.execute("SELECT * FROM r0.master.dbo.t")
        injector.mark_up()
        local.health.tick(local.health.open_interval_ms)
        result = local.execute("SELECT * FROM r0.master.dbo.t")
        assert len(result.rows) == 3
        assert local.health.state_of("r0") == CLOSED
        assert local.health.breaker("r0").probe_count >= 1

    def test_dm_server_health_view(self, remote_pair):
        local, __ = remote_pair
        _take_down(local, "r0")
        with pytest.raises(ServerUnavailableError):
            local.execute("SELECT * FROM r0.master.dbo.t")
        rows = local.execute(
            "SELECT server_name, state, trips FROM sys.dm_server_health"
        ).rows
        assert ("r0", "open", 1) in rows

    def test_result_network_carries_retry_and_breaker_counts(
        self, remote_pair
    ):
        local, __ = remote_pair
        injector = FaultInjector()
        local.linked_server("r0").channel.fault_injector = injector
        injector.fail_next(TRANSIENT, count=1)
        result = local.execute("SELECT * FROM r0.master.dbo.t")
        stats = result.network["r0"]
        assert stats["retries"] == 1
        assert stats["backoff_ms"] > 0
        assert stats["breaker_trips"] == 0
        # and the trip itself is attributed to the failing statement
        injector.mark_down()
        try:
            local.execute("SELECT * FROM r0.master.dbo.t")
        except ServerUnavailableError:
            pass


# ----------------------------------------------------------------------
# retry jitter keys (the lockstep-backoff fix)
# ----------------------------------------------------------------------
class TestJitterKeys:
    def test_distinct_keys_desynchronize_backoff(self):
        policy = RetryPolicy()
        waits = {
            policy.backoff_ms(1, jitter_key=f"ch{i}/scan:t")
            for i in range(8)
        }
        # keying on (channel, operation) must spread the waits; the old
        # shared-default key collapsed all of these to one value
        assert len(waits) > 1

    def test_same_key_is_deterministic(self):
        policy = RetryPolicy()
        assert policy.backoff_ms(2, jitter_key="wan/scan:t") == (
            policy.backoff_ms(2, jitter_key="wan/scan:t")
        )


# ----------------------------------------------------------------------
# health-aware planning
# ----------------------------------------------------------------------
class TestHealthAwarePlanning:
    def test_open_breaker_disqualifies_pushdown(self):
        local, __remote, __channel = worlds.build_fig4_world()
        healthy = local.plan(worlds.FIG4_SQL).explain()
        assert "RemoteQuery" in healthy
        local.health.breaker("remote0").force_open()
        degraded = local.plan(worlds.FIG4_SQL).explain()
        assert "RemoteQuery" not in degraded
        assert "RemoteScan" in degraded

    def test_closed_breaker_changes_nothing(self):
        local, __remote, __channel = worlds.build_fig4_world()
        baseline = local.plan(worlds.FIG4_SQL).explain()
        local.health.breaker("remote0")  # created, stays closed
        assert local.plan(worlds.FIG4_SQL).explain() == baseline


# ----------------------------------------------------------------------
# mid-query failover (bounded replan)
# ----------------------------------------------------------------------
class TestMidQueryReplan:
    def test_replan_answers_from_live_members(self, pv_world):
        local, __ = pv_world
        _take_down(local, "srv1993")
        local.execute("SET PARTIAL_RESULTS ON")
        # breaker is still closed, so the first plan includes srv1993;
        # the mid-query failure must trip it, replan, and degrade
        result = local.execute("SELECT * FROM lineitem")
        assert result.replans == 1
        assert len(result.rows) == 80
        assert result.is_partial
        assert local.metrics.value_of("engine.replans") == 1

    def test_replan_without_partial_mode_stays_fail_stop(self, pv_world):
        local, __ = pv_world
        _take_down(local, "srv1993")
        # default mode: the replan cannot route around a required
        # member, so the statement still fails
        with pytest.raises(ServerUnavailableError):
            local.execute("SELECT * FROM lineitem")

    def test_replan_disabled_propagates_first_error(self, pv_world):
        local, __ = pv_world
        local.replan_on_failure = False
        _take_down(local, "srv1993")
        local.execute("SET PARTIAL_RESULTS ON")
        with pytest.raises(ServerUnavailableError):
            local.execute("SELECT * FROM lineitem")


# ----------------------------------------------------------------------
# SET PARTIAL_RESULTS semantics
# ----------------------------------------------------------------------
class TestPartialResults:
    def test_set_statement_round_trip(self):
        engine = Engine("local")
        assert engine.partial_results is False
        engine.execute("SET PARTIAL_RESULTS ON")
        assert engine.partial_results is True
        engine.execute("SET PARTIAL_RESULTS OFF")
        assert engine.partial_results is False

    def test_unknown_set_option_raises(self):
        engine = Engine("local")
        with pytest.raises(SqlError):
            engine.execute("SET NO_SUCH_OPTION ON")

    def test_partial_metadata_names_skipped_member(self, pv_world):
        local, __ = pv_world
        _take_down(local, "srv1993")
        with pytest.raises(ServerUnavailableError):
            local.execute("SELECT * FROM lineitem")  # trips breaker
        local.execute("SET PARTIAL_RESULTS ON")
        result = local.execute("SELECT * FROM lineitem")
        assert len(result.rows) == 80
        assert result.is_partial
        assert result.partial.skipped_servers == ["srv1993"]
        [skip] = [
            s for s in result.partial.skipped if s.server == "srv1993"
        ]
        assert skip.reason == "circuit_open"
        assert "li_1993" in skip.table

    def test_statically_pruned_query_is_complete(self, pv_world):
        local, __ = pv_world
        _take_down(local, "srv1993")
        with pytest.raises(ServerUnavailableError):
            local.execute("SELECT * FROM lineitem")
        local.execute("SET PARTIAL_RESULTS ON")
        # predicates route this entirely to live 1992: the answer is
        # complete and must NOT be stamped partial
        result = local.execute(
            "SELECT * FROM lineitem WHERE l_commitdate >= '1992-1-1' "
            "AND l_commitdate < '1993-1-1'"
        )
        assert len(result.rows) == 40
        assert not result.is_partial

    def test_query_routed_entirely_to_dead_member_degrades_to_empty(
        self, pv_world
    ):
        local, __ = pv_world
        _take_down(local, "srv1993")
        with pytest.raises(ServerUnavailableError):
            local.execute("SELECT * FROM lineitem")
        local.execute("SET PARTIAL_RESULTS ON")
        # static pruning collapses the union onto the dead 1993 member;
        # the collapsed read must still degrade (empty partial answer),
        # not fail-stop like a plain remote table
        result = local.execute(
            "SELECT * FROM lineitem WHERE l_commitdate >= '1993-1-1' "
            "AND l_commitdate < '1994-1-1'"
        )
        assert result.rows == []
        assert result.is_partial
        assert result.partial.skipped_servers == ["srv1993"]

    def test_dead_branches_drop_without_static_pruning(self, pv_world):
        # the union rewrite drops an emptied branch whether or not
        # static pruning is on; the switch only gates the CHECK test
        local, __ = pv_world
        _take_down(local, "srv1993")
        with pytest.raises(ServerUnavailableError):
            local.execute("SELECT * FROM lineitem")
        local.execute("SET PARTIAL_RESULTS ON")
        pruned = local.execute("SELECT * FROM lineitem")
        local.optimizer.options.enable_static_pruning = False
        unpruned = local.execute("SELECT * FROM lineitem")
        assert sorted(unpruned.rows) == sorted(pruned.rows)
        assert [s.as_dict() for s in unpruned.partial.skipped] == [
            s.as_dict() for s in pruned.partial.skipped
        ]
        assert "li_1993" not in unpruned.optimization.explain()

    def test_off_is_fail_stop(self, pv_world):
        local, __ = pv_world
        _take_down(local, "srv1993")
        with pytest.raises(ServerUnavailableError):
            local.execute("SELECT * FROM lineitem")
        with pytest.raises(ServerUnavailableError):
            local.execute("SELECT * FROM lineitem")

    def test_partial_to_json_carries_metadata(self, pv_world):
        local, __ = pv_world
        _take_down(local, "srv1993")
        local.execute("SET PARTIAL_RESULTS ON")
        result = local.execute("SELECT * FROM lineitem")
        assert '"is_partial": true' in result.to_json()

    def test_partial_mode_still_probes_and_recovers(self, pv_world):
        local, __ = pv_world
        injector = _take_down(local, "srv1993")
        with pytest.raises(ServerUnavailableError):
            local.execute("SELECT * FROM lineitem")
        local.execute("SET PARTIAL_RESULTS ON")
        assert len(local.execute("SELECT * FROM lineitem").rows) == 80
        injector.mark_up()
        # pruning must not route around the member past its probe
        # window, or a recovered server could never be folded back in
        local.health.tick(local.health.breaker("srv1993").open_interval_ms)
        result = local.execute("SELECT * FROM lineitem")
        assert len(result.rows) == 120
        assert not result.is_partial
        assert local.health.state_of("srv1993") == CLOSED

    def test_probe_failure_in_partial_mode_degrades_via_replan(
        self, pv_world
    ):
        local, __ = pv_world
        _take_down(local, "srv1993")
        with pytest.raises(ServerUnavailableError):
            local.execute("SELECT * FROM lineitem")
        local.execute("SET PARTIAL_RESULTS ON")
        local.health.tick(local.health.breaker("srv1993").open_interval_ms)
        # probe-due: the plan re-admits the dead member, the probe
        # fails, and the bounded replan still answers partially
        result = local.execute("SELECT * FROM lineitem")
        assert len(result.rows) == 80
        assert result.is_partial
        assert result.replans == 1

    def test_pv_dml_stays_fail_stop_in_partial_mode(self, pv_world):
        local, __ = pv_world
        _take_down(local, "srv1993")
        with pytest.raises(ServerUnavailableError):
            local.execute("SELECT * FROM lineitem")
        local.execute("SET PARTIAL_RESULTS ON")
        with pytest.raises(Exception):
            local.execute("INSERT INTO lineitem VALUES (999, 1, '1993-6-1')")
        # and the live members were not mutated
        result = local.execute(
            "SELECT COUNT(*) FROM lineitem WHERE l_commitdate >= "
            "'1992-1-1' AND l_commitdate < '1993-1-1'"
        )
        assert result.scalar() == 40


# ----------------------------------------------------------------------
# the diffcheck subset oracle
# ----------------------------------------------------------------------
class TestPartialOracle:
    def test_sub_multiset(self):
        assert oracle.is_sub_multiset([(1,), (2,)], [(1,), (2,), (3,)])
        assert oracle.is_sub_multiset([], [(1,)])
        assert not oracle.is_sub_multiset([(4,)], [(1,), (2,)])
        # multiset, not set: duplicates must be covered
        assert not oracle.is_sub_multiset([(1,), (1,)], [(1,), (2,)])

    def test_eligibility_filters(self):
        from repro.testcheck.schema import generate_schema
        from repro.testcheck.sqlgen import generate_query

        found_eligible = found_excluded = False
        for seed in range(42, 52):
            schema = generate_schema(seed)
            down = oracle.partial_down_host(schema)
            if down is None:
                continue
            for qi in range(10):
                query = generate_query(schema, seed * 10_000 + qi)
                if oracle.eligible_for_partial(schema, query, down):
                    found_eligible = True
                    assert not query.has_top
                    assert not query.stmt.group_by
                else:
                    found_excluded = True
        assert found_eligible and found_excluded

    def test_degraded_pv_case_is_subset(self):
        from repro.testcheck.schema import generate_schema
        from repro.testcheck.sqlgen import generate_query

        # schema 49 query 2 reads the partitioned view (eligible)
        schema = generate_schema(49)
        down = oracle.partial_down_host(schema)
        assert down is not None
        query = generate_query(schema, 49 * 10_000 + 2)
        assert oracle.eligible_for_partial(schema, query, down)
        worlds_by_config = oracle.Worlds(schema)
        runner = oracle.DifferentialRunner(seed=49, collect_explains=False)
        mismatch = runner.check_case(worlds_by_config, query, "49:2")
        assert mismatch is None
        reference = worlds_by_config["local"].run(query)
        degraded = worlds_by_config["partial"].run(query)
        assert len(degraded.rows) < len(reference.rows)
        assert oracle.is_sub_multiset(degraded.rows, reference.rows)
