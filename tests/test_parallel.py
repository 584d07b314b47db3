"""Parallel distributed execution: exchange operators and the worker
pool.

Covers ``SET PARALLEL_DOP`` parsing/validation, optimizer insertion of
``Gather``/``GatherMerge`` above remote UNION ALL branches, result
determinism across DOP levels, order preservation under GatherMerge,
latency-hiding accounting (``parallel_saved_ms``), plan-fingerprint
invariance to DOP, worker-side fault injection (transient faults masked
by in-worker retries; a down member mid-scan triggering the bounded
replan), cancellation on first error (for GatherMerge too, which must
leave the engines quiesce-clean), single breaker trip under
concurrent workers, and ``parallel_branch`` span attribution.
"""

import threading

import pytest

from repro import (
    Engine,
    FaultInjector,
    NetworkChannel,
    RetryPolicy,
    ServerInstance,
)
from repro.core import physical as P
from repro.errors import ParseError, ServerUnavailableError, SqlError
from repro.testcheck import worlds
from repro.testcheck.oracle import quiesce_leaks
from repro.workloads.tpcc import build_federation

pytestmark = pytest.mark.integration


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def federation():
    """Four-member TPC-C style federation with slow (2ms) links."""
    return build_federation(
        member_count=4,
        warehouses_per_member=1,
        customers_per_warehouse=25,
        latency_ms=2.0,
    )


@pytest.fixture
def pv_world():
    """Three-member distributed partitioned view, metadata warmed."""
    local, channels = worlds.build_pruning_world()
    local.execute("SELECT * FROM lineitem")
    return local, channels


def _plan_ops(plan, cls):
    return [node for node in plan.walk() if isinstance(node, cls)]


# ----------------------------------------------------------------------
# SET PARALLEL_DOP
# ----------------------------------------------------------------------
class TestSetParallelDop:
    def test_set_and_gauge(self):
        engine = Engine("e")
        engine.execute("SET PARALLEL_DOP 4")
        assert engine.parallel_dop == 4
        assert engine.optimizer.parallel_dop == 4
        assert engine.metrics.value_of("engine.parallel_dop") == 4.0
        engine.execute("SET PARALLEL_DOP 1")
        assert engine.optimizer.parallel_dop == 1

    def test_rejects_on_off(self):
        engine = Engine("e")
        with pytest.raises(SqlError):
            engine.execute("SET PARALLEL_DOP ON")

    def test_rejects_zero(self):
        engine = Engine("e")
        with pytest.raises(SqlError):
            engine.execute("SET PARALLEL_DOP 0")

    def test_rejects_garbage(self):
        engine = Engine("e")
        with pytest.raises(ParseError):
            engine.execute("SET PARALLEL_DOP fast")

    def test_partial_results_still_boolean(self):
        engine = Engine("e")
        with pytest.raises(SqlError):
            engine.execute("SET PARTIAL_RESULTS 3")


# ----------------------------------------------------------------------
# optimizer insertion
# ----------------------------------------------------------------------
class TestExchangeInsertion:
    def test_gather_above_remote_union(self, federation):
        co = federation.coordinator
        co.execute("SET PARALLEL_DOP 4")
        result = co.execute("SELECT c_w_id, c_id, c_balance FROM customer")
        gathers = _plan_ops(result.plan, P.Gather)
        assert len(gathers) == 1
        assert gathers[0].dop == 4
        assert len(gathers[0].children) == 4

    def test_no_gather_at_dop_one(self, federation):
        co = federation.coordinator
        result = co.execute("SELECT c_w_id, c_id, c_balance FROM customer")
        assert not _plan_ops(result.plan, P.Gather)
        assert not _plan_ops(result.plan, P.GatherMerge)
        assert result.dop == 1
        assert result.parallel_saved_ms == 0.0

    def test_no_gather_for_all_local_union(self):
        engine = Engine("local")
        engine.execute("CREATE TABLE a (x int)")
        engine.execute("CREATE TABLE b (x int)")
        engine.execute("INSERT INTO a VALUES (1), (2)")
        engine.execute("INSERT INTO b VALUES (3)")
        engine.execute("CREATE VIEW ab AS "
                       "SELECT * FROM a UNION ALL SELECT * FROM b")
        engine.execute("SET PARALLEL_DOP 4")
        result = engine.execute("SELECT x FROM ab")
        # no network latency to hide: the serial Concat must win
        assert not _plan_ops(result.plan, P.Gather)
        assert sorted(result.rows) == [(1,), (2,), (3,)]

    def test_gather_merge_for_ordered_union(self, federation):
        co = federation.coordinator
        co.execute("SET PARALLEL_DOP 4")
        result = co.execute(
            "SELECT c_w_id, c_id, c_balance FROM customer "
            "ORDER BY c_balance DESC, c_id"
        )
        merges = _plan_ops(result.plan, P.GatherMerge)
        assert len(merges) == 1
        assert [(k.ascending) for k in merges[0].keys] == [False, True]


# ----------------------------------------------------------------------
# determinism and order preservation
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_same_multiset_across_dop_levels(self, federation):
        co = federation.coordinator
        query = (
            "SELECT c_w_id, c_id, c_name, c_balance FROM customer "
            "WHERE c_balance >= 0"
        )
        reference = sorted(co.execute(query).rows)
        for dop in (2, 8):
            co.execute(f"SET PARALLEL_DOP {dop}")
            assert sorted(co.execute(query).rows) == reference

    def test_gather_merge_preserves_order(self, federation):
        co = federation.coordinator
        query = (
            "SELECT c_w_id, c_id, c_balance FROM customer "
            "ORDER BY c_balance DESC, c_id"
        )
        serial = co.execute(query)
        co.execute("SET PARALLEL_DOP 4")
        parallel = co.execute(query)
        assert _plan_ops(parallel.plan, P.GatherMerge)
        # exact row order, not just the multiset
        assert parallel.rows == serial.rows

    def test_aggregate_agrees(self, federation):
        co = federation.coordinator
        total = co.execute("SELECT COUNT(*) FROM customer").scalar()
        co.execute("SET PARALLEL_DOP 8")
        assert co.execute("SELECT COUNT(*) FROM customer").scalar() == total


# ----------------------------------------------------------------------
# latency hiding and fingerprints
# ----------------------------------------------------------------------
class TestAccounting:
    def test_saved_ms_reported(self, federation):
        co = federation.coordinator
        co.execute("SET PARALLEL_DOP 4")
        result = co.execute("SELECT c_w_id, c_id, c_balance FROM customer")
        assert result.dop == 4
        # four branches of ~equal network time overlap on four workers:
        # roughly three branches' worth of simulated latency is hidden
        total_net = sum(
            stats["simulated_ms"] for stats in result.network.values()
        )
        assert result.parallel_saved_ms > 0.0
        assert result.parallel_saved_ms < total_net
        payload = result.to_json()
        assert '"dop": 4' in payload

    def test_fingerprint_ignores_dop(self, federation):
        co = federation.coordinator
        query = "SELECT c_w_id, c_id, c_balance FROM customer"
        serial_fp = P.plan_fingerprint(co.execute(query).plan)
        co.execute("SET PARALLEL_DOP 4")
        parallel_plan = co.execute(query).plan
        assert _plan_ops(parallel_plan, P.Gather)
        assert P.plan_fingerprint(parallel_plan) == serial_fp

    def test_gather_merge_fingerprint_ignores_dop(self, federation):
        co = federation.coordinator
        query = (
            "SELECT c_w_id, c_id, c_balance FROM customer "
            "ORDER BY c_balance DESC, c_id"
        )
        co.execute("SET PARALLEL_DOP 2")
        fp2 = P.plan_fingerprint(co.execute(query).plan)
        co.execute("SET PARALLEL_DOP 8")
        fp8 = P.plan_fingerprint(co.execute(query).plan)
        assert fp2 == fp8


# ----------------------------------------------------------------------
# worker-side fault injection
# ----------------------------------------------------------------------
class TestWorkerFaults:
    def test_transient_faults_masked_inside_workers(self):
        local = Engine("local")
        members = []
        branches = []
        for i in range(4):
            member = ServerInstance(f"m{i}")
            member.execute(f"CREATE TABLE t{i} (id int, v int)")
            table = member.catalog.database().table(f"t{i}")
            for row_id in range(40):
                table.insert((row_id, i))
            channel = NetworkChannel(f"ch{i}", latency_ms=1.0)
            channel.fault_injector = FaultInjector(
                seed=100 + i, transient_rate=0.2
            )
            local.add_linked_server(
                f"m{i}", member, channel,
                retry_policy=RetryPolicy(
                    max_attempts=10, base_backoff_ms=1.0, max_backoff_ms=4.0
                ),
            )
            branches.append(f"SELECT * FROM m{i}.master.dbo.t{i}")
            members.append(member)
        local.execute("CREATE VIEW v AS " + " UNION ALL ".join(branches))
        local.execute("SET PARALLEL_DOP 4")
        result = local.execute("SELECT id, v FROM v")
        assert len(result.rows) == 160
        retries = sum(
            stats["retries"] for stats in result.network.values()
        )
        assert retries > 0  # the faults actually fired, in workers

    def test_down_member_mid_scan_replans(self, pv_world):
        local, channels = pv_world
        local.execute("SET PARALLEL_DOP 4")
        local.execute("SET PARTIAL_RESULTS ON")
        channels[1993].fault_injector = FaultInjector(down=True)
        result = local.execute("SELECT l_orderkey, l_qty FROM lineitem")
        # one member died mid-scan: the bounded replan prunes it and
        # the two healthy members still answer
        assert result.replans == 1
        assert result.is_partial
        assert len(result.rows) == 80

    def test_cancellation_on_first_error(self, pv_world):
        local, channels = pv_world
        local.replan_on_failure = False
        local.execute("SET PARALLEL_DOP 4")
        channels[1993].fault_injector = FaultInjector(down=True)
        with pytest.raises(ServerUnavailableError):
            local.execute("SELECT l_orderkey FROM lineitem")

    def test_gather_merge_branch_failure_aborts_cleanly(self, pv_world):
        """A down member under an ordered exchange: the merge cancels
        and drains the other branches, raises the branch's error, and
        leaves no worker, grant or in-flight statement behind."""
        local, channels = pv_world
        local.replan_on_failure = False
        local.execute("SET PARALLEL_DOP 4")
        query = (
            "SELECT l_orderkey, l_qty FROM lineitem ORDER BY l_qty, l_orderkey"
        )
        assert _plan_ops(local.plan(query).plan, P.GatherMerge)
        channels[1993].fault_injector = FaultInjector(down=True)
        with pytest.raises(ServerUnavailableError):
            local.execute(query)
        assert not [
            thread.name for thread in threading.enumerate()
            if thread.name.startswith("gather-merge-")
        ]
        engines = {"local": local}
        engines.update(
            (name, local.linked_server(name).datasource.backend)
            for name in ("srv1992", "srv1993", "srv1994")
        )
        assert quiesce_leaks(engines) == []

    def test_concurrent_workers_trip_breaker_once(self):
        """Two branches of one exchange hit the same down server: the
        shared breaker must trip exactly once."""
        local = Engine("local")
        remote = ServerInstance("r0")
        remote.execute("CREATE TABLE a (x int)")
        remote.execute("CREATE TABLE b (x int)")
        remote.execute("INSERT INTO a VALUES (1)")
        remote.execute("INSERT INTO b VALUES (2)")
        channel = NetworkChannel("wan", latency_ms=1.0)
        local.add_linked_server("r0", remote, channel)
        local.execute(
            "CREATE VIEW v AS SELECT * FROM r0.master.dbo.a "
            "UNION ALL SELECT * FROM r0.master.dbo.b"
        )
        local.execute("SELECT x FROM v")  # warm metadata
        local.replan_on_failure = False
        local.execute("SET PARALLEL_DOP 2")
        channel.fault_injector = FaultInjector(down=True)
        with pytest.raises(ServerUnavailableError):
            local.execute("SELECT x FROM v")
        breaker = local.health.get("r0")
        assert breaker is not None
        assert breaker.state == "open"
        assert breaker.trip_count == 1


# ----------------------------------------------------------------------
# span attribution
# ----------------------------------------------------------------------
class TestParallelSpans:
    def test_parallel_branch_spans_under_gather(self, federation):
        co = federation.coordinator
        co.tracing_enabled = True
        co.execute("SET PARALLEL_DOP 4")
        result = co.execute("SELECT c_w_id, c_id, c_balance FROM customer")
        trace = result.trace
        assert trace is not None
        branches = trace.spans("parallel_branch")
        assert len(branches) == 4
        assert {span.attrs["branch"] for span in branches} == {0, 1, 2, 3}
        assert all(span.attrs["parallelism"] == 4 for span in branches)
        assert all(span.attrs["exchange"] == "Gather" for span in branches)
        assert all(0 <= span.attrs["worker"] < 4 for span in branches)
        # each branch is parented to the consumer-side Gather span
        gather_spans = [
            span for span in trace.spans("operator")
            if span.attrs.get("operator") == "Gather"
        ]
        assert len(gather_spans) == 1
        assert all(
            span.parent_id == gather_spans[0].span_id for span in branches
        )
        # per-branch network time is attributed to the branch spans AND
        # mirrored up so the execute span still totals the statement
        assert all(span.net_ms > 0 for span in branches)
        execute_span = trace.spans("execute")[0]
        total_net = sum(
            stats["simulated_ms"] for stats in result.network.values()
        )
        assert execute_span.net_ms == pytest.approx(total_net)

    def test_gather_complete_event(self, federation):
        co = federation.coordinator
        co.tracing_enabled = True
        co.execute("SET PARALLEL_DOP 4")
        result = co.execute("SELECT c_w_id, c_id, c_balance FROM customer")
        events = [
            e for e in result.trace.events if e.name == "gather_complete"
        ]
        assert len(events) == 1
        assert events[0].attrs["dop"] == 4
        assert events[0].attrs["branches"] == 4
        assert events[0].attrs["saved_ms"] > 0
