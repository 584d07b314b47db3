"""One network charge per message.

``NetworkChannel.stream_rows`` counts a ``DEFAULT_BATCH_ROWS`` batch as
one message: it works out each row's bytes as the row passes, and
charges the message's bytes and transfer time once — at the next batch
boundary, when the rows run out, or when the consumer closes the stream
early.  These tests pin that contract: how many charges a stream makes,
that an abandoned stream charges exactly the rows it handed over and
charges them inside the statement that pulled them, that a query
budget trips at the same message as a per-row charge would, and that
the trace still adds up under parallel exchanges.
"""

import gc

import pytest

from repro import Engine, NetworkChannel, QueryBudget, ServerInstance
from repro.core import physical as P
from repro.errors import RemoteTimeoutError
from repro.network import StatementLedger, bind_ledger
from repro.network.channel import DEFAULT_BATCH_ROWS
from repro.providers import IsamDataSource
from repro.storage.catalog import Database
from repro.types import INT, Column, Schema, varchar

INT_SCHEMA = Schema([Column("k", INT, nullable=False)])


def _count_charges(monkeypatch):
    """Patch ``NetworkChannel._charge`` to record every call's
    ``bytes_received``; returns the list it appends to."""
    received: list = []
    charge = NetworkChannel._charge

    def counting(self, ms=0.0, bytes_sent=0, bytes_received=0, round_trips=0):
        received.append(bytes_received)
        return charge(self, ms, bytes_sent, bytes_received, round_trips)

    monkeypatch.setattr(NetworkChannel, "_charge", counting)
    return received


def _jet_world(rows: int = 300):
    """A local engine over an ISAM (Jet-style) linked server ``acc``:
    no command object, so every operator above the scan runs locally."""
    db = Database("acc")
    table = db.create_table(
        "Customers",
        Schema([Column("id", INT, nullable=False), Column("city", varchar(30))]),
    )
    for i in range(rows):
        table.insert((i, f"city{i % 20}"))
    channel = NetworkChannel("acc-ch", latency_ms=1, mb_per_second=1)
    local = Engine("local")
    local.add_linked_server("acc", IsamDataSource(db, channel=channel))
    return local, table, channel


def _stats(channel):
    return dict(channel.stats.snapshot())


def _delta(before, after):
    return {key: after[key] - before[key] for key in after}


class TestOneChargePerMessage:
    def test_three_messages_make_three_byte_charges(self, monkeypatch):
        received = _count_charges(monkeypatch)
        channel = NetworkChannel("c", latency_ms=1, mb_per_second=1)
        rows = [(i,) for i in range(300)]
        assert list(channel.deliver(rows, INT_SCHEMA)) == rows
        byte_charges = [nbytes for nbytes in received if nbytes]
        # ceil(300 / 128) messages, each charged once for what it carried
        assert byte_charges == [128 * 4, 128 * 4, 44 * 4]
        assert channel.stats.round_trips == 3
        assert channel.stats.bytes_received == 300 * 4
        assert channel.stats.simulated_ms == pytest.approx(
            channel.exchange_ms(0, 300, 4), rel=1e-12
        )

    def test_a_closed_stream_charges_the_rows_it_handed_over(self):
        channel = NetworkChannel("c", latency_ms=1, mb_per_second=1)
        stream = channel.stream_rows(
            [(i,) for i in range(DEFAULT_BATCH_ROWS + 50)], INT_SCHEMA
        )
        pulled = [next(stream) for __ in range(DEFAULT_BATCH_ROWS + 7)]
        assert len(pulled) == DEFAULT_BATCH_ROWS + 7
        # the first message is charged at its boundary, the second's
        # seven rows only when the consumer lets go of the stream
        assert channel.stats.bytes_received == DEFAULT_BATCH_ROWS * 4
        stream.close()
        assert channel.stats.bytes_received == (DEFAULT_BATCH_ROWS + 7) * 4
        assert channel.stats.round_trips == 1  # the boundary request
        assert channel.stats.simulated_ms == pytest.approx(
            1 + channel.transfer_ms((DEFAULT_BATCH_ROWS + 7) * 4), rel=1e-12
        )

    def test_per_message_timeout_is_still_judged_per_row(self):
        # 100 B rows at 1 MB/s: ~0.095 ms each, so the first message
        # (1 ms latency + transfer) passes 5 ms at its 43rd row
        schema = Schema([Column("s", varchar(200))])
        channel = NetworkChannel(
            "c", latency_ms=1, mb_per_second=1, timeout_ms=5
        )
        row_bytes = 100
        rows = [("x" * (row_bytes - 2),) for __ in range(100)]
        pulled = 0
        with pytest.raises(RemoteTimeoutError, match="timeout_ms"):
            for __ in channel.stream_rows(rows, schema):
                pulled += 1
        breaking = pulled + 1
        assert 1 + channel.transfer_ms(breaking * row_bytes) > 5
        assert 1 + channel.transfer_ms(pulled * row_bytes) <= 5
        # the earlier rows' bytes and time, plus the breaking row's bytes
        assert channel.stats.bytes_received == breaking * row_bytes
        assert channel.stats.simulated_ms == pytest.approx(
            channel.transfer_ms(pulled * row_bytes), rel=1e-12
        )


class TestAbandonedStreamsChargeInsideTheStatement:
    def test_local_top_charges_exactly_the_rows_pulled(self):
        local, table, channel = _jet_world()
        sql = "SELECT TOP 5 id, city FROM acc.acc.dbo.Customers"
        local.execute(sql)  # warm metadata
        width = table.schema.row_width_function()
        first_five = [row for __, row in zip(range(5), table.rows())]
        before = _stats(channel)
        result = local.execute(sql)
        after = _stats(channel)
        assert sorted(result.rows) == sorted(first_five)
        charged = _delta(before, after)
        assert charged["bytes_received"] == sum(map(width, first_five))
        assert charged["round_trips"] == 1  # the rowset open
        assert charged["simulated_ms"] == pytest.approx(
            1 + channel.transfer_ms(charged["bytes_received"]), rel=1e-12
        )
        assert result.network["acc"] == pytest.approx(charged)
        # nothing is left to land after the statement ended
        gc.collect()
        assert _stats(channel) == after

    def test_remainder_lands_on_the_statement_trace(self):
        local, __, channel = _jet_world()
        sql = "SELECT TOP 5 id, city FROM acc.acc.dbo.Customers"
        local.execute(sql)
        local.tracing_enabled = True
        before = _stats(channel)
        result = local.execute(sql)
        charged = _delta(before, _stats(channel))
        simulated = result.network["acc"]["simulated_ms"]
        assert simulated == pytest.approx(charged["simulated_ms"])
        spans = result.trace.spans()
        assert sum(span.self_net_ms for span in spans) == pytest.approx(
            simulated, rel=1e-12
        )
        # the abandoned message is charged on the scan's remote command
        (remote,) = [
            span for span in result.trace.remote_command_spans()
            if span.attrs["operation"].startswith("scan:")
        ]
        assert remote.self_net_ms == pytest.approx(simulated, rel=1e-12)
        (execute,) = result.trace.spans("execute")
        assert execute.net_ms == pytest.approx(simulated, rel=1e-12)


class TestBudgetTripsAtTheSameMessage:
    def _stream_under_budget(self, limit_ms):
        channel = NetworkChannel("c", latency_ms=1, mb_per_second=1)
        ledger = StatementLedger(budget=QueryBudget(limit_ms))
        rows = [(i,) for i in range(300)]
        with bind_ledger(ledger):
            with pytest.raises(RemoteTimeoutError) as raised:
                for __ in channel.deliver(rows, INT_SCHEMA):
                    pass
        assert raised.value.budget_exhausted
        return ledger.on(channel), channel

    def test_budget_exhausted_mid_batch(self):
        # enough for the first message and half of the second: a
        # per-row charge trips inside message two, after two round trips
        probe = NetworkChannel("p", latency_ms=1, mb_per_second=1)
        limit = 2 + probe.transfer_ms((128 + 64) * 4)
        row, channel = self._stream_under_budget(limit)
        assert row.round_trips == 2
        assert channel.stats.round_trips == 2
        # the second message is charged whole, then the budget trips
        assert row.bytes_received == 256 * 4

    def test_budget_exhausted_in_the_last_message(self):
        probe = NetworkChannel("p", latency_ms=1, mb_per_second=1)
        limit = 3 + probe.transfer_ms((256 + 20) * 4)
        row, __ = self._stream_under_budget(limit)
        assert row.round_trips == 3
        assert row.bytes_received == 300 * 4

    def test_engine_budget_trips_on_the_same_round_trip(self):
        local, __, channel = _jet_world()
        sql = "SELECT id, city FROM acc.acc.dbo.Customers"
        local.execute(sql)
        full = local.execute(sql).network["acc"]
        assert full["round_trips"] == 3
        # the budget covers the first message only: it trips while the
        # second is under way, before the third round trip
        local.query_timeout_ms = 1 + channel.transfer_ms(
            full["bytes_received"] * 200 / 300
        )
        before = _stats(channel)
        try:
            with pytest.raises(RemoteTimeoutError, match="budget"):
                local.execute(sql)
        finally:
            local.query_timeout_ms = None
        assert _delta(before, _stats(channel))["round_trips"] == 2

    def test_budget_exhausted_by_an_abandoned_message_fails_the_statement(
        self, monkeypatch
    ):
        # a local TOP lets go of the scan's first message after five
        # rows; their transfer is what breaks the budget, so the close
        # charges it — where nothing can raise — and the statement fails
        # when it ends, with the same typed error
        unraisable = []
        monkeypatch.setattr("sys.unraisablehook", unraisable.append)
        local, __, channel = _jet_world()
        sql = "SELECT TOP 5 id, city FROM acc.acc.dbo.Customers"
        local.execute(sql)
        local.query_timeout_ms = 1 + channel.transfer_ms(20)
        try:
            with pytest.raises(RemoteTimeoutError, match="budget") as raised:
                local.execute(sql)
        finally:
            local.query_timeout_ms = None
        assert raised.value.budget_exhausted
        assert unraisable == []
        assert local.execute(sql).rows  # runs fine again

    @pytest.mark.parametrize(
        "dml",
        [
            "INSERT INTO t SELECT TOP 5 id, city FROM acc.acc.dbo.Customers",
            # the scalar subquery runs as a plan of its own
            "INSERT INTO t SELECT id, city FROM t "
            "WHERE id = (SELECT TOP 1 id FROM acc.acc.dbo.Customers)",
        ],
    )
    def test_an_abandoned_message_fails_dml_before_it_writes(self, dml):
        # the same close-time trip under a write: the plan that feeds
        # the write fails as it returns its rows, so nothing is written
        local, __, channel = _jet_world()
        local.execute("CREATE TABLE t (id int, city varchar(30))")
        local.execute(dml)  # warm metadata and plans
        local.execute("DELETE FROM t")
        local.execute("INSERT INTO t VALUES (0, 'a'), (1, 'b'), (900, 'c')")
        before = sorted(local.execute("SELECT id, city FROM t").rows)
        # the rowset open's latency fits; the abandoned rows' transfer
        # does not
        local.query_timeout_ms = 1 + channel.transfer_ms(1)
        try:
            with pytest.raises(RemoteTimeoutError, match="budget") as raised:
                local.execute(dml)
        finally:
            local.query_timeout_ms = None
        assert raised.value.budget_exhausted
        assert sorted(local.execute("SELECT id, city FROM t").rows) == before
        local.execute(dml)  # without the budget, the write goes through
        assert len(local.execute("SELECT id FROM t").rows) > len(before)


class TestAStreamThatOutlivesItsStatement:
    def test_its_remainder_charges_no_other_statement(self):
        # a stream held past its statement (by a traceback, say) and
        # closed while another statement runs on the thread: the
        # remainder reaches the channel's totals, neither ledger, and
        # not the other statement's budget
        channel = NetworkChannel("c", latency_ms=1, mb_per_second=1)
        pulled_by = StatementLedger(budget=QueryBudget(1000))
        with bind_ledger(pulled_by):
            stream = channel.stream_rows([(i,) for i in range(50)], INT_SCHEMA)
            for __ in range(7):
                next(stream)
        assert pulled_by.on(channel).bytes_received == 0
        other = StatementLedger(budget=QueryBudget(0))
        with bind_ledger(other):
            stream.close()  # the exhausted budget does not trip
        assert other.on(channel).bytes_received == 0
        assert other.budget.spent_ms == 0
        assert pulled_by.on(channel).bytes_received == 0
        assert pulled_by.budget.spent_ms == 0
        assert channel.stats.bytes_received == 7 * 4
        assert channel.stats.simulated_ms == pytest.approx(
            channel.transfer_ms(7 * 4), rel=1e-12
        )


class TestParallelExchangesAddUp:
    @pytest.fixture
    def pv_engine(self):
        local = Engine("local")
        servers = {name: ServerInstance(name) for name in ("fed0", "fed1")}
        for name, server in servers.items():
            local.add_linked_server(
                name, server,
                NetworkChannel(f"ch-{name}", latency_ms=0.5, mb_per_second=1),
            )
        branches = []
        for index in range(4):
            name = f"fed{index % 2}"
            low, high = index * 1000, index * 1000 + 999
            servers[name].execute(
                f"CREATE TABLE part_{index} (k int NOT NULL CHECK "
                f"(k >= {low} AND k <= {high}), v int)"
            )
            servers[name].execute(
                f"INSERT INTO part_{index} VALUES "
                + ", ".join(f"({low + i}, {i})" for i in range(300))
            )
            branches.append(f"SELECT * FROM {name}.master.dbo.part_{index}")
        local.execute("CREATE VIEW parts AS " + " UNION ALL ".join(branches))
        local.execute("SET PARALLEL_DOP 4")
        try:
            yield local
        finally:
            local.close()
            for server in servers.values():
                server.close()

    @pytest.mark.parametrize(
        "sql, rows",
        [("SELECT k, v FROM parts", 1200), ("SELECT TOP 7 k, v FROM parts", 7)],
    )
    def test_spans_and_network_agree_at_dop_4(self, pv_engine, sql, rows):
        local = pv_engine
        warm = local.execute(sql)
        assert any(isinstance(node, P.Gather) for node in warm.plan.walk())
        local.tracing_enabled = True
        channels = {
            name: local.linked_servers[name].channel for name in ("fed0", "fed1")
        }
        before = {name: _stats(ch) for name, ch in channels.items()}
        result = local.execute(sql)
        assert len(result.rows) == rows
        spans: dict = {}
        for span in result.trace.remote_command_spans():
            server = span.attrs["server"]
            spans[server] = spans.get(server, 0) + span.attrs["round_trips"]
        assert spans == {
            server: stats["round_trips"]
            for server, stats in result.network.items()
        }
        for name, channel in channels.items():
            assert result.network[name] == pytest.approx(
                _delta(before[name], _stats(channel))
            )
        simulated = sum(
            stats["simulated_ms"] for stats in result.network.values()
        )
        assert sum(
            span.self_net_ms for span in result.trace.spans()
        ) == pytest.approx(simulated, rel=1e-9)
