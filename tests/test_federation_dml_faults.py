"""PV UPDATE/DELETE multi-member paths under injected faults.

The multi-member fan-out in :mod:`repro.federation.dml` runs every
member's DML — and now every 2PC protocol message — through the
member's NetworkChannel, so channel faults (transient, server-down)
hit both the data path and the commit protocol.  These tests pin the
fan-out semantics: transient faults are retried transparently, a dead
member aborts the whole statement atomically on every sibling, and a
mid-protocol crash leaves a recoverable in-doubt transaction rather
than a torn view.
"""

import pytest

from repro import Engine, NetworkChannel, ServerInstance
from repro.errors import (
    ServerUnavailableError,
    TransactionAborted,
    TransactionInDoubtError,
)
from repro.resilience.faults import FaultInjector, TwoPCFaultPlan


@pytest.fixture
def world():
    local = Engine("local")
    servers, channels = {}, {}
    for name, (low, high) in (("r1", (0, 10)), ("r2", (10, 20))):
        server = ServerInstance(name)
        server.execute(
            f"CREATE TABLE p_{name} (k int NOT NULL CHECK "
            f"(k >= {low} AND k < {high}), v int, tag varchar(10))"
        )
        channel = NetworkChannel(f"ch-{name}", latency_ms=1)
        channel.fault_injector = FaultInjector(seed=name == "r2")
        local.add_linked_server(name, server, channel)
        servers[name] = server
        channels[name] = channel
    local.execute(
        "CREATE TABLE p_loc (k int NOT NULL CHECK "
        "(k >= 20 AND k < 30), v int, tag varchar(10))"
    )
    local.execute(
        "CREATE VIEW pv AS SELECT * FROM r1.master.dbo.p_r1 "
        "UNION ALL SELECT * FROM r2.master.dbo.p_r2 "
        "UNION ALL SELECT * FROM p_loc"
    )
    local.execute(
        "INSERT INTO pv VALUES (1, 1, 'a'), (11, 1, 'a'), (21, 1, 'a')"
    )
    return local, servers, channels


def _vals(local, servers):
    return (
        servers["r1"].execute("SELECT SUM(v) FROM p_r1").scalar(),
        servers["r2"].execute("SELECT SUM(v) FROM p_r2").scalar(),
        local.execute("SELECT SUM(v) FROM p_loc").scalar(),
    )


class TestUpdateFanOutUnderFaults:
    def test_update_reaches_every_member(self, world):
        local, servers, __ = world
        local.execute("UPDATE pv SET v = 5 WHERE tag = 'a'")
        assert _vals(local, servers) == (5, 5, 5)

    def test_transient_fault_on_one_member_is_retried(self, world):
        local, servers, channels = world
        channels["r2"].fault_injector.fail_next("transient")
        local.execute("UPDATE pv SET v = 7 WHERE tag = 'a'")
        assert _vals(local, servers) == (7, 7, 7)
        assert channels["r2"].stats.retries >= 1

    def test_dead_member_aborts_statement_on_every_sibling(self, world):
        local, servers, channels = world
        channels["r2"].fault_injector.mark_down()
        with pytest.raises(ServerUnavailableError):
            local.execute("UPDATE pv SET v = 9 WHERE tag = 'a'")
        channels["r2"].fault_injector.mark_up()
        # atomicity: no member kept the update
        assert _vals(local, servers) == (1, 1, 1)
        assert local.dtc.aborted_count == 1
        assert not local.dtc.has_in_doubt()

    def test_remote_prepare_refusal_rolls_back_all_members(self, world):
        local, servers, __ = world
        original = servers["r1"].begin_transaction

        def failing_branch():
            txn = original()
            txn.fail_on_prepare = True
            return txn

        servers["r1"].begin_transaction = failing_branch
        with pytest.raises(TransactionAborted, match="r1"):
            local.execute("UPDATE pv SET v = 3 WHERE tag = 'a'")
        servers["r1"].begin_transaction = original
        assert _vals(local, servers) == (1, 1, 1)

    def test_protocol_messages_traverse_the_channel(self, world):
        local, __, channels = world
        before = channels["r1"].stats.round_trips
        local.execute("UPDATE pv SET v = 2 WHERE tag = 'a'")
        # at least UPDATE + DTC PREPARE + DTC COMMIT crossed the wire
        assert channels["r1"].stats.round_trips >= before + 3


class TestDeleteFanOutUnderFaults:
    def test_delete_reaches_every_member(self, world):
        local, servers, __ = world
        local.execute("DELETE FROM pv WHERE tag = 'a'")
        counts = (
            servers["r1"].execute("SELECT COUNT(*) FROM p_r1").scalar(),
            servers["r2"].execute("SELECT COUNT(*) FROM p_r2").scalar(),
            local.execute("SELECT COUNT(*) FROM p_loc").scalar(),
        )
        assert counts == (0, 0, 0)

    def test_transient_fault_during_delete_is_retried(self, world):
        local, servers, channels = world
        channels["r1"].fault_injector.fail_next("transient")
        local.execute("DELETE FROM pv WHERE v = 1")
        assert servers["r1"].execute(
            "SELECT COUNT(*) FROM p_r1"
        ).scalar() == 0

    def test_dead_member_aborts_delete_atomically(self, world):
        local, servers, channels = world
        channels["r1"].fault_injector.mark_down()
        with pytest.raises(ServerUnavailableError):
            local.execute("DELETE FROM pv WHERE tag = 'a'")
        channels["r1"].fault_injector.mark_up()
        assert _vals(local, servers) == (1, 1, 1)

    def test_crash_during_delete_recovers_all_or_nothing(self, world):
        local, servers, __ = world
        plan = TwoPCFaultPlan()
        plan.arm("coordinator_mid_commit")
        local.dtc.crash_plan = plan
        with pytest.raises(TransactionInDoubtError):
            local.execute("DELETE FROM pv WHERE tag = 'a'")
        local.dtc.crash_plan = None
        report = local.dtc.recover()
        assert report.committed  # the decision record was durable
        counts = (
            servers["r1"].execute("SELECT COUNT(*) FROM p_r1").scalar(),
            servers["r2"].execute("SELECT COUNT(*) FROM p_r2").scalar(),
            local.execute("SELECT COUNT(*) FROM p_loc").scalar(),
        )
        assert counts == (0, 0, 0)

    def test_crash_before_decision_recovers_to_abort(self, world):
        local, servers, __ = world
        plan = TwoPCFaultPlan()
        plan.arm("coordinator_after_prepare")
        local.dtc.crash_plan = plan
        with pytest.raises(TransactionInDoubtError):
            local.execute("DELETE FROM pv WHERE tag = 'a'")
        local.dtc.crash_plan = None
        report = local.dtc.recover()
        assert report.aborted  # presumed abort: no durable decision
        assert _vals(local, servers) == (1, 1, 1)


class TestTxnTraceSpans:
    def test_dml_emits_txn_span_under_statement(self, world):
        local, __, ___ = world
        local.tracing_enabled = True
        result = local.execute("UPDATE pv SET v = 4 WHERE tag = 'a'")
        trace = result.trace
        assert trace is not None
        txn_spans = trace.spans("txn")
        assert len(txn_spans) == 1
        assert txn_spans[0].parent_id is not None
        assert "txn_id" in txn_spans[0].attrs


class TestInsertSelectIsFailStop:
    def test_partial_results_never_degrades_the_source_select(self, world):
        # a PARTIAL_RESULTS session reads the view degraded, but the
        # same view as the source of an INSERT..SELECT fails the
        # statement: DML must not persist an incomplete answer
        local, __, channels = world
        local.execute("CREATE TABLE copy (k int, v int, tag varchar(10))")
        session = local.create_session("degraded")
        session.execute("SET PARTIAL_RESULTS ON")
        channels["r2"].fault_injector.mark_down()
        assert session.execute("SELECT k FROM pv").is_partial
        with pytest.raises(ServerUnavailableError):
            session.execute("INSERT INTO copy SELECT k, v, tag FROM pv")
        assert local.execute("SELECT COUNT(*) FROM copy").scalar() == 0
