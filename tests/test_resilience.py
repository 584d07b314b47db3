"""Fault injection, retry/backoff, timeouts, delayed schema validation.

Covers the resilience layer end to end: deterministic fault streams,
retries at command dispatch and rowset streaming, per-message timeouts
and per-query budgets, availability of partitioned views under member
failure (Section 4.1.5's delayed schema validation), and the remote DML
error paths under injected faults.
"""

import pytest

from repro import (
    Engine,
    FaultInjector,
    NetworkChannel,
    QueryBudget,
    RetryPolicy,
    ServerInstance,
)
from repro.errors import (
    RemoteTimeoutError,
    ServerUnavailableError,
    TransientNetworkError,
)
from repro.network import StatementLedger, bind_ledger, current_ledger
from repro.network.channel import local_channel
from repro.resilience import NO_RETRY
from repro.resilience.faults import DOWN, TIMEOUT, TRANSIENT
from repro.resilience.retry import call_with_retry

pytestmark = pytest.mark.integration


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def remote_pair():
    """local engine + one remote server with a small table."""
    local = Engine("local")
    remote = ServerInstance("r0")
    remote.execute("CREATE TABLE t (id int, v varchar(10))")
    remote.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')")
    server = local.add_linked_server(
        "r0", remote, NetworkChannel("wan", latency_ms=1.0)
    )
    return local, remote, server


@pytest.fixture
def distributed_pv():
    """Partitioned view over two remote members + one local, by year."""
    local = Engine("local")
    members = {}
    for year in (1992, 1993):
        server = ServerInstance(f"srv{year}")
        server.execute(
            f"CREATE TABLE li_{year} (k int, y int NOT NULL "
            f"CHECK (y >= {year} AND y < {year + 1}))"
        )
        server.execute(f"INSERT INTO li_{year} VALUES ({year}, {year})")
        local.add_linked_server(
            f"srv{year}", server, NetworkChannel(f"ch{year}", latency_ms=1.0)
        )
        members[year] = server
    local.execute(
        "CREATE TABLE li_1994 (k int, y int NOT NULL "
        "CHECK (y >= 1994 AND y < 1995))"
    )
    local.execute("INSERT INTO li_1994 VALUES (1994, 1994)")
    local.execute(
        "CREATE VIEW li AS SELECT * FROM srv1992.master.dbo.li_1992 "
        "UNION ALL SELECT * FROM srv1993.master.dbo.li_1993 "
        "UNION ALL SELECT * FROM li_1994"
    )
    # warm the metadata caches (compile once while everyone is up)
    assert len(local.execute("SELECT * FROM li").rows) == 3
    return local, members


def _inject(local, server_name, **kwargs):
    injector = FaultInjector(**kwargs)
    local.linked_server(server_name).channel.fault_injector = injector
    return injector


# ----------------------------------------------------------------------
# FaultInjector determinism
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_same_seed_same_stream(self):
        a = FaultInjector(seed=7, transient_rate=0.3)
        b = FaultInjector(seed=7, transient_rate=0.3)
        assert [a.decide() for _ in range(200)] == [
            b.decide() for _ in range(200)
        ]

    def test_reset_replays(self):
        injector = FaultInjector(seed=11, transient_rate=0.5, timeout_rate=0.2)
        first = [injector.decide() for _ in range(100)]
        injector.reset()
        assert [injector.decide() for _ in range(100)] == first

    def test_scripted_faults_precede_random(self):
        injector = FaultInjector(seed=1, transient_rate=0.0)
        injector.fail_next(TRANSIENT)
        injector.fail_next(TIMEOUT)
        assert injector.decide() == TRANSIENT
        assert injector.decide() == TIMEOUT
        assert injector.decide() == "ok"
        assert injector.total_injected == 2

    def test_down_dominates(self):
        injector = FaultInjector(seed=1, transient_rate=1.0)
        injector.mark_down()
        assert injector.decide() == DOWN
        injector.mark_up()
        assert injector.decide() == TRANSIENT

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(transient_rate=1.5)
        with pytest.raises(ValueError):
            FaultInjector(slow_factor=0.5)


# ----------------------------------------------------------------------
# RetryPolicy / call_with_retry
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_backoff_ms=10, multiplier=2, max_backoff_ms=35, jitter=0.0
        )
        assert policy.backoff_ms(1) == 10
        assert policy.backoff_ms(2) == 20
        assert policy.backoff_ms(3) == 35  # capped

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_backoff_ms=10, jitter=0.25)
        first = policy.backoff_ms(1, jitter_key="ch0")
        assert first == policy.backoff_ms(1, jitter_key="ch0")
        assert 7.5 <= first <= 12.5
        assert first != policy.backoff_ms(1, jitter_key="ch1")

    def test_retries_then_succeeds(self):
        channel = NetworkChannel("wan", latency_ms=1.0)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientNetworkError("lost")
            return "ok"

        policy = RetryPolicy(max_attempts=4, jitter=0.0, base_backoff_ms=5)
        assert call_with_retry(policy, channel, flaky) == "ok"
        assert calls["n"] == 3
        # two retries charged 5ms + 10ms of simulated backoff
        assert channel.stats.simulated_ms == pytest.approx(15.0)

    def test_gives_up_after_max_attempts(self):
        channel = NetworkChannel("wan")

        def always_fails():
            raise TransientNetworkError("lost")

        with pytest.raises(TransientNetworkError):
            call_with_retry(
                RetryPolicy(max_attempts=3, jitter=0.0), channel, always_fails
            )

    def test_server_down_is_not_retried(self):
        channel = NetworkChannel("wan")
        calls = {"n": 0}

        def down():
            calls["n"] += 1
            raise ServerUnavailableError("gone")

        with pytest.raises(ServerUnavailableError):
            call_with_retry(RetryPolicy(max_attempts=5), channel, down)
        assert calls["n"] == 1

    def test_budget_exhaustion_is_final(self):
        channel = NetworkChannel("wan")
        error = RemoteTimeoutError("budget")
        error.budget_exhausted = True
        calls = {"n": 0}

        def fails():
            calls["n"] += 1
            raise error

        with pytest.raises(RemoteTimeoutError):
            call_with_retry(RetryPolicy(max_attempts=5), channel, fails)
        assert calls["n"] == 1


# ----------------------------------------------------------------------
# channel-level faults and timeouts
# ----------------------------------------------------------------------
class TestChannelFaults:
    def test_transient_fault_on_command(self):
        channel = NetworkChannel("wan", latency_ms=2.0)
        channel.fault_injector = FaultInjector(seed=0)
        channel.fault_injector.fail_next(TRANSIENT)
        with pytest.raises(TransientNetworkError):
            channel.send_command("SELECT 1")
        # the lost message still cost one latency of waiting
        assert channel.stats.simulated_ms == pytest.approx(2.0)

    def test_server_down_on_command(self):
        channel = NetworkChannel("wan")
        channel.fault_injector = FaultInjector(down=True)
        with pytest.raises(ServerUnavailableError):
            channel.send_command("SELECT 1")

    def test_per_message_timeout_from_slow_link(self):
        # 1 KB at ~1 KB/s is ~1000ms of transfer; timeout at 100ms
        channel = NetworkChannel(
            "wan", latency_ms=1.0, mb_per_second=0.001, timeout_ms=100.0
        )
        with pytest.raises(RemoteTimeoutError):
            channel.send_command("x" * 1024)
        # the caller waits out the timeout, not the full transfer
        assert channel.stats.simulated_ms == pytest.approx(100.0)

    def test_slow_factor_stretches_transfer(self):
        fast = NetworkChannel("a", latency_ms=0.0, mb_per_second=1.0)
        slow = NetworkChannel("b", latency_ms=0.0, mb_per_second=1.0)
        slow.fault_injector = FaultInjector(slow_factor=4.0)
        fast.send_command("x" * 4096)
        slow.send_command("x" * 4096)
        assert slow.stats.simulated_ms == pytest.approx(
            fast.stats.simulated_ms * 4.0
        )

    def test_mid_stream_transient_aborts_iteration(self):
        channel = NetworkChannel("wan", latency_ms=0.5)
        channel.fault_injector = FaultInjector(seed=0)
        rows = [(i,) for i in range(10)]
        # the rowset open's request is the first batch boundary
        channel.fault_injector.fail_next(TRANSIENT)
        out = []
        with pytest.raises(TransientNetworkError):
            for row in channel.deliver(iter(rows)):
                out.append(row)
        assert out == []  # first batch boundary already faulted

    def test_local_channel_is_fault_proof(self):
        channel = local_channel()
        channel.fault_injector = FaultInjector(down=True)
        channel.send_command("SELECT 1")  # no raise
        assert channel.stats.round_trips == 1


class TestLocalChannelIsolation:
    def test_each_datasource_gets_its_own_local_channel(self):
        from repro.providers.sqlserver import SqlServerDataSource

        a = SqlServerDataSource(ServerInstance("a"))
        b = SqlServerDataSource(ServerInstance("b"))
        # distinct channel objects -> stats cannot cross-contaminate
        assert a.channel is not b.channel
        assert a.channel.is_local and b.channel.is_local
        a.channel.send_command("SELECT 1")
        assert a.channel.stats.round_trips == 1
        assert b.channel.stats.round_trips == 0


# ----------------------------------------------------------------------
# engine-level: retried queries, counters, budgets
# ----------------------------------------------------------------------
class TestEngineResilience:
    def test_federated_query_survives_transient_faults(self, remote_pair):
        local, __, server = remote_pair
        _inject(local, "r0", seed=42, transient_rate=0.10)
        for __i in range(40):
            result = local.execute("SELECT * FROM r0.master.dbo.t WHERE id = 2")
            assert result.rows == [(2, "two")]
        assert local.metrics.value_of("network.faults_injected") > 0
        assert local.metrics.value_of("network.retries") > 0
        # every injected transient was absorbed by a retry
        assert local.metrics.value_of("network.retry_giveups") == 0

    def test_deterministic_across_reset(self, remote_pair):
        local, __, server = remote_pair
        injector = _inject(local, "r0", seed=9, transient_rate=0.2)

        def run_batch():
            outcomes = []
            for __i in range(20):
                try:
                    local.execute("SELECT COUNT(*) FROM r0.master.dbo.t")
                    outcomes.append("ok")
                except TransientNetworkError:
                    outcomes.append("giveup")
            return outcomes

        first_outcomes = run_batch()
        first_injected = injector.injected.copy()
        injector.reset()
        local.metrics.reset()
        assert run_batch() == first_outcomes
        assert injector.injected == first_injected

    def test_counters_surface_in_dmv(self, remote_pair):
        local, __, server = remote_pair
        _inject(local, "r0", seed=1, transient_rate=0.15)
        for __i in range(30):
            local.execute("SELECT * FROM r0.master.dbo.t")
        rows = local.execute(
            "SELECT counter_name, cntr_value FROM "
            "sys.dm_os_performance_counters "
            "WHERE counter_name LIKE 'network%'"
        ).as_dicts()
        by_name = {r["counter_name"]: r["cntr_value"] for r in rows}
        assert by_name["network.faults_injected"] > 0
        assert by_name["network.retries"] > 0

    def test_trace_records_fault_and_retry_events(self, remote_pair):
        local, __, server = remote_pair
        injector = _inject(local, "r0", seed=0)
        injector.fail_next(TRANSIENT)
        local.tracing_enabled = True
        result = local.execute("SELECT * FROM r0.master.dbo.t")
        names = [e.name for e in result.trace.events]
        assert "fault_injected" in names
        assert "retry" in names

    def test_no_retry_policy_fails_fast(self):
        local = Engine("local")
        remote = ServerInstance("r0")
        remote.execute("CREATE TABLE t (id int)")
        remote.execute("INSERT INTO t VALUES (1)")
        local.add_linked_server(
            "r0", remote, NetworkChannel("wan"), retry_policy=NO_RETRY
        )
        local.execute("SELECT * FROM r0.master.dbo.t")  # warm metadata
        injector = _inject(local, "r0", seed=0)
        injector.fail_next(TRANSIENT)
        with pytest.raises(TransientNetworkError):
            local.execute("SELECT * FROM r0.master.dbo.t")

    def test_query_timeout_budget(self, remote_pair):
        local, __, server = remote_pair
        local.execute("SELECT * FROM r0.master.dbo.t")  # warm metadata
        local.query_timeout_ms = 0.5  # one 1ms round trip exceeds it
        try:
            with pytest.raises(RemoteTimeoutError, match="budget"):
                local.execute("SELECT * FROM r0.master.dbo.t")
        finally:
            local.query_timeout_ms = None
        # the ledger (and its budget) unbinds with the statement
        assert current_ledger() is None
        local.execute("SELECT * FROM r0.master.dbo.t")  # runs fine again
        # the same draw-down through the public binding: a charge made
        # while a ledger is bound reaches that ledger's budget
        ledger = StatementLedger(budget=QueryBudget(0.5))
        with bind_ledger(ledger):
            with pytest.raises(RemoteTimeoutError, match="budget"):
                server.channel.send_command("SELECT 1")
        assert current_ledger() is None
        assert ledger.on(server.channel).round_trips == 1

    def test_budget_object_accounting(self):
        budget = QueryBudget(10.0)
        budget.charge(6.0)
        assert budget.remaining_ms == pytest.approx(4.0)
        with pytest.raises(RemoteTimeoutError):
            budget.charge(5.0)


# ----------------------------------------------------------------------
# delayed schema validation / partitioned-view availability (§4.1.5)
# ----------------------------------------------------------------------
class TestDelayedSchemaValidation:
    def test_pruned_member_down_query_succeeds(self, distributed_pv):
        local, members = distributed_pv
        _inject(local, "srv1993", down=True)
        # static pruning removes the 1993 branch; its server is never
        # touched, so the statement compiles and runs from cached schema
        result = local.execute("SELECT * FROM li WHERE y = 1992")
        assert result.rows == [(1992, 1992)]
        result = local.execute("SELECT * FROM li WHERE y = 1994")
        assert result.rows == [(1994, 1994)]

    def test_touched_member_down_raises_typed_error(self, distributed_pv):
        local, members = distributed_pv
        _inject(local, "srv1993", down=True)
        with pytest.raises(ServerUnavailableError):
            local.execute("SELECT * FROM li WHERE y = 1993")
        with pytest.raises(ServerUnavailableError):
            local.execute("SELECT * FROM li")  # full scan touches 1993

    def test_recovery_after_mark_up(self, distributed_pv):
        local, members = distributed_pv
        injector = _inject(local, "srv1993", down=True)
        with pytest.raises(ServerUnavailableError):
            local.execute("SELECT * FROM li")
        injector.mark_up()
        # the failure tripped srv1993's circuit breaker; recovery is
        # observed at the next half-open probe, after the open interval
        local.health.tick(local.health.breaker("srv1993").open_interval_ms)
        assert len(local.execute("SELECT * FROM li").rows) == 3
        assert local.health.state_of("srv1993") == "closed"

    def test_runtime_pruning_skips_down_member(self, distributed_pv):
        local, members = distributed_pv
        # parameterized probe: startup filters prune at run time
        result = local.execute(
            "SELECT * FROM li WHERE y = @y", params={"y": 1992}
        )
        assert result.rows == [(1992, 1992)]
        _inject(local, "srv1993", down=True)
        result = local.execute(
            "SELECT * FROM li WHERE y = @y", params={"y": 1992}
        )
        assert result.rows == [(1992, 1992)]

    def test_cold_cache_down_server_raises(self):
        local = Engine("local")
        remote = ServerInstance("r0")
        remote.execute("CREATE TABLE t (id int)")
        local.add_linked_server("r0", remote, NetworkChannel("wan"))
        _inject(local, "r0", down=True)
        # no cached metadata -> even compilation needs the server
        with pytest.raises(ServerUnavailableError):
            local.execute("SELECT * FROM r0.master.dbo.t")

    def test_stale_metadata_counter(self, distributed_pv):
        local, members = distributed_pv
        server = local.linked_server("srv1993")
        _inject(local, "srv1993", down=True)
        info = server.table_info("li_1993", "master", refresh=True)
        assert info is not None  # served from cache
        assert local.metrics.value_of("network.stale_metadata_served") == 1


# ----------------------------------------------------------------------
# remote DML error paths under injected faults
# ----------------------------------------------------------------------
class TestRemoteDmlUnderFaults:
    def test_four_part_insert_retries_transient(self, remote_pair):
        local, remote, server = remote_pair
        local.execute("SELECT * FROM r0.master.dbo.t")  # warm metadata
        injector = _inject(local, "r0", seed=0)
        injector.fail_next(TRANSIENT)
        local.execute("INSERT INTO r0.master.dbo.t VALUES (4, 'four')")
        assert remote.execute(
            "SELECT COUNT(*) FROM t WHERE id = 4"
        ).scalar() == 1
        assert local.metrics.value_of("network.retries") >= 1

    def test_four_part_insert_persistent_fault_typed_error(self, remote_pair):
        local, remote, server = remote_pair
        _inject(local, "r0", seed=0, transient_rate=1.0)
        with pytest.raises(TransientNetworkError):
            local.execute("INSERT INTO r0.master.dbo.t VALUES (5, 'five')")
        # faults fire before the remote executes: nothing was applied
        assert remote.execute(
            "SELECT COUNT(*) FROM t WHERE id = 5"
        ).scalar() == 0
        assert local.metrics.value_of("network.retry_giveups") >= 1

    def test_four_part_update_down_server(self, remote_pair):
        local, remote, server = remote_pair
        local.execute("SELECT * FROM r0.master.dbo.t")  # warm metadata
        _inject(local, "r0", down=True)
        with pytest.raises(ServerUnavailableError):
            local.execute("UPDATE r0.master.dbo.t SET v = 'x' WHERE id = 1")
        assert remote.execute(
            "SELECT v FROM t WHERE id = 1"
        ).scalar() == "one"

    def test_four_part_delete_retries_then_succeeds(self, remote_pair):
        local, remote, server = remote_pair
        local.execute("SELECT * FROM r0.master.dbo.t")  # warm metadata
        injector = _inject(local, "r0", seed=0)
        injector.fail_next(TRANSIENT, count=2)
        local.execute("DELETE FROM r0.master.dbo.t WHERE id = 3")
        assert remote.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_pv_insert_to_down_member_rolls_back(self, distributed_pv):
        local, members = distributed_pv
        _inject(local, "srv1993", down=True)
        before_1992 = members[1992].execute(
            "SELECT COUNT(*) FROM li_1992"
        ).scalar()
        with pytest.raises(ServerUnavailableError):
            # first row routes to healthy 1992, second to the down member
            local.execute("INSERT INTO li VALUES (10, 1992), (11, 1993)")
        # the whole statement aborted atomically: 1992 rolled back too
        assert members[1992].execute(
            "SELECT COUNT(*) FROM li_1992"
        ).scalar() == before_1992
        assert local.dtc.aborted_count == 1

    def test_pv_insert_to_healthy_member_with_other_down(self, distributed_pv):
        local, members = distributed_pv
        _inject(local, "srv1993", down=True)
        # routing never touches the down member: the insert commits
        local.execute("INSERT INTO li VALUES (20, 1992)")
        assert members[1992].execute(
            "SELECT COUNT(*) FROM li_1992"
        ).scalar() == 2


# ----------------------------------------------------------------------
# observability x resilience interplay: one traced, retried query must
# tell one consistent story across trace events, metrics counters, and
# the injector's own accounting
# ----------------------------------------------------------------------
class TestObservabilityResilienceInterplay:
    def test_traced_retried_query_is_consistent(self, remote_pair):
        local, __, server = remote_pair
        local.execute("SELECT * FROM r0.master.dbo.t")  # warm metadata
        injector = _inject(local, "r0", seed=0)
        injector.fail_next(TRANSIENT, count=2)
        local.tracing_enabled = True
        try:
            result = local.execute("SELECT * FROM r0.master.dbo.t WHERE id = 1")
        finally:
            local.tracing_enabled = False

        # the query still answers correctly
        assert result.rows == [(1, "one")]

        # trace events match the scripted fault count exactly
        fault_events = [
            e for e in result.trace.events if e.name == "fault_injected"
        ]
        retry_events = [e for e in result.trace.events if e.name == "retry"]
        assert len(fault_events) == 2
        assert len(retry_events) == 2
        assert all(e.attrs["kind"] == "transient" for e in fault_events)
        # retry attempts are numbered and carry the error class
        assert [e.attrs["attempt"] for e in retry_events] == [1, 2]
        assert all(
            e.attrs["error"] == "TransientNetworkError" for e in retry_events
        )

        # metrics agree with the trace and with the injector
        assert local.metrics.value_of("network.faults_injected") == \
            injector.total_injected == 2
        assert local.metrics.value_of("network.retries") == len(retry_events)
        assert local.metrics.value_of("network.retry_giveups") == 0
        # backoff time was charged to the channel (and is positive)
        assert local.metrics.value_of("network.backoff_ms") > 0

    def test_random_fault_run_counters_reconcile(self, remote_pair):
        local, __, server = remote_pair
        injector = _inject(local, "r0", seed=77, transient_rate=0.12)
        outcomes = {"ok": 0, "giveup": 0}
        for __i in range(30):
            try:
                local.execute("SELECT COUNT(*) FROM r0.master.dbo.t")
                outcomes["ok"] += 1
            except TransientNetworkError:
                outcomes["giveup"] += 1
        injected = local.metrics.value_of("network.faults_injected")
        retries = local.metrics.value_of("network.retries")
        giveups = local.metrics.value_of("network.retry_giveups")
        assert injected == injector.total_injected > 0
        # every injected fault was either absorbed by a retry or was
        # the final fault of an exhausted attempt sequence (a giveup):
        # the three counters must reconcile exactly
        assert injected == retries + giveups
        assert giveups == outcomes["giveup"]
        assert outcomes["ok"] > 0

    def test_trace_off_keeps_counters(self, remote_pair):
        # metrics must not depend on tracing being enabled
        local, __, server = remote_pair
        local.execute("SELECT * FROM r0.master.dbo.t")  # warm metadata
        injector = _inject(local, "r0", seed=0)
        injector.fail_next(TRANSIENT)
        assert local.tracing_enabled is False
        result = local.execute("SELECT * FROM r0.master.dbo.t")
        assert len(result.rows) == 3
        assert local.metrics.value_of("network.faults_injected") == 1
        assert local.metrics.value_of("network.retries") == 1
