"""End-to-end distributed query tests over linked servers."""

import pytest

from repro import Engine, NetworkChannel, ServerInstance
from repro.core import physical as P
from repro.errors import BindError
from repro.oledb.properties import SqlSupportLevel
from repro.providers import (
    ExcelDataSource,
    IsamDataSource,
    SimpleDataSource,
    Workbook,
)
from repro.storage.catalog import Database
from repro.types import Column, INT, Schema, varchar


class TestRemoteSqlServer:
    def test_remote_point_query_pushed(self, remote_pair):
        local, __, channel = remote_pair
        r = local.execute(
            "SELECT i.name FROM remote0.master.dbo.items i "
            "WHERE i.item_id = 7"
        )
        assert r.rows == [("item7",)]
        remote_queries = [
            n for n in r.plan.walk() if isinstance(n, P.RemoteQuery)
        ]
        assert remote_queries
        assert "WHERE" in remote_queries[0].sql_text

    def test_join_local_remote_correct(self, remote_pair):
        local, __, __c = remote_pair
        r = local.execute(
            "SELECT c.label, COUNT(*) FROM remote0.master.dbo.items i, "
            "categories c WHERE i.category_id = c.category_id "
            "GROUP BY c.label ORDER BY c.label"
        )
        assert len(r.rows) == 10
        assert all(count == 10 for __, count in r.rows)

    def test_remote_aggregate_pushdown(self, remote_pair):
        local, __, __c = remote_pair
        r = local.execute(
            "SELECT i.category_id, SUM(i.price) AS total "
            "FROM remote0.master.dbo.items i GROUP BY i.category_id"
        )
        assert len(r.rows) == 10
        remote_queries = [
            n for n in r.plan.walk() if isinstance(n, P.RemoteQuery)
        ]
        assert remote_queries and "GROUP BY" in remote_queries[0].sql_text

    def test_network_bytes_accounted(self, remote_pair):
        local, __, channel = remote_pair
        channel.stats.reset()
        local.execute(
            "SELECT i.item_id FROM remote0.master.dbo.items i "
            "WHERE i.item_id <= 10"
        )
        assert channel.stats.bytes_sent > 0
        assert channel.stats.bytes_received >= 10 * 4

    def test_pushdown_moves_fewer_bytes_than_scan(self, remote_pair):
        local, __, channel = remote_pair
        sql = (
            "SELECT i.item_id FROM remote0.master.dbo.items i "
            "WHERE i.item_id = 5"
        )
        channel.stats.reset()
        local.execute(sql)
        pushed_bytes = channel.stats.bytes_received
        local.optimizer.options.enable_remote_query = False
        local.optimizer.options.enable_parameterization = False
        channel.stats.reset()
        local.execute(sql)
        scan_bytes = channel.stats.bytes_received
        assert pushed_bytes < scan_bytes

    def test_parameters_forwarded_to_remote(self, remote_pair):
        local, __, __c = remote_pair
        r = local.execute(
            "SELECT i.name FROM remote0.master.dbo.items i "
            "WHERE i.item_id = @k",
            params={"k": 3},
        )
        assert r.rows == [("item3",)]

    def test_question_mark_in_a_pushed_literal_is_not_a_marker(
        self, remote_pair
    ):
        """The shipped text holds a literal with a ``?`` in it next to
        the marker ``@k`` became; only the marker takes a value."""
        local, remote, __c = remote_pair
        remote.execute("INSERT INTO items VALUES (500, 'what?', 3, 1.0)")
        sql = (
            "SELECT i.item_id FROM remote0.master.dbo.items i "
            "WHERE i.name = 'what?' AND i.item_id >= @k"
        )
        r = local.execute(sql, params={"k": 50})
        shipped = [
            n.sql_text for n in r.plan.walk() if isinstance(n, P.RemoteQuery)
        ]
        assert shipped and "'what?'" in shipped[0]
        assert shipped[0].count("?") == 2
        assert r.rows == [(500,)]
        assert local.execute(sql, params={"k": 501}).rows == []

    def test_unknown_linked_server(self, remote_pair):
        local, __, __c = remote_pair
        with pytest.raises(BindError, match="linked server"):
            local.execute("SELECT * FROM nowhere.db.dbo.t")

    def test_openquery_passthrough(self, remote_pair):
        local, __, __c = remote_pair
        r = local.execute(
            "SELECT q.name FROM OPENQUERY(remote0, "
            "'SELECT name, price FROM items WHERE item_id < 3') q"
        )
        assert sorted(r.rows) == [("item1",), ("item2",)]

    def test_local_filter_on_openquery_result(self, remote_pair):
        local, __, __c = remote_pair
        r = local.execute(
            "SELECT q.name FROM OPENQUERY(remote0, "
            "'SELECT name, price FROM items WHERE item_id < 10') q "
            "WHERE q.price > 10"
        )
        assert sorted(r.rows) == [("item7",), ("item8",), ("item9",)]


class TestLowerCapabilitySqlSources:
    """An 'Oracle-like' source: SQL provider at a lower support level."""

    @pytest.fixture
    def oracle_pair(self):
        local = Engine("local")
        backend = ServerInstance("ora-backend")
        backend.execute("CREATE TABLE emp (id int, dept int, pay float)")
        for i in range(40):
            backend.execute(
                f"INSERT INTO emp VALUES ({i}, {i % 4}, {i * 100.0})"
            )
        from repro.providers.sqlserver import SqlServerDataSource

        ds = SqlServerDataSource(
            backend,
            channel=NetworkChannel("ora"),
            sql_support=SqlSupportLevel.SQL_MINIMUM,
            dialect_name="oracle",
            identifier_quotes='""',
            provider_name="MSDAORA",
        )
        local.add_linked_server("ora", ds)
        return local, backend

    def test_restriction_still_pushed(self, oracle_pair):
        local, __ = oracle_pair
        r = local.execute(
            "SELECT e.pay FROM ora.master.dbo.emp e WHERE e.id = 5"
        )
        assert r.rows == [(500.0,)]
        remote_queries = [
            n for n in r.plan.walk() if isinstance(n, P.RemoteQuery)
        ]
        assert remote_queries
        # ANSI identifier quoting: double quotes
        assert '"emp"' in remote_queries[0].sql_text

    def test_group_by_stays_local(self, oracle_pair):
        local, __ = oracle_pair
        r = local.execute(
            "SELECT e.dept, COUNT(*) FROM ora.master.dbo.emp e "
            "GROUP BY e.dept"
        )
        assert len(r.rows) == 4
        for node in r.plan.walk():
            if isinstance(node, P.RemoteQuery):
                assert "GROUP BY" not in node.sql_text


class TestHeterogeneousSources:
    def test_simple_text_provider_through_four_part_name(self):
        local = Engine("local")
        ds = SimpleDataSource(
            {"stats.csv": "region,amount\neast,10\nwest,20"}
        )
        local.add_linked_server("txt", ds)
        r = local.execute(
            "SELECT s.region FROM txt.master.dbo.[stats.csv] s "
            "WHERE s.amount > 15"
        )
        assert r.rows == [("west",)]
        # the DHQP did the filtering: only RemoteScan below
        assert any(isinstance(n, P.RemoteScan) for n in r.plan.walk())

    def test_isam_provider_remote_range(self):
        local = Engine("local")
        db = Database("acc")
        table = db.create_table(
            "Customers",
            Schema(
                [
                    Column("id", INT, nullable=False),
                    Column("city", varchar(30)),
                ]
            ),
        )
        for i in range(200):
            table.insert((i, f"city{i % 20}"))
        table.create_index("ix_id", ["id"], unique=True)
        local.add_linked_server(
            "acc", IsamDataSource(db), NetworkChannel("acc-ch", latency_ms=1)
        )
        r = local.execute(
            "SELECT c.city FROM acc.acc.dbo.Customers c WHERE c.id = 42"
        )
        assert r.rows == [("city2",)]
        assert any(isinstance(n, P.RemoteRange) for n in r.plan.walk())

    def test_excel_join_with_local(self):
        local = Engine("local")
        wb = Workbook()
        wb.add_sheet("Budget", [("dept", "amount"), ("eng", 100), ("ops", 50)])
        local.add_linked_server("xl", ExcelDataSource(wb))
        local.execute("CREATE TABLE depts (dept varchar(10), head varchar(20))")
        local.execute("INSERT INTO depts VALUES ('eng', 'ada'), ('ops', 'bob')")
        r = local.execute(
            "SELECT d.head, b.amount FROM xl.master.dbo.Budget b, depts d "
            "WHERE b.dept = d.dept ORDER BY b.amount DESC"
        )
        assert r.rows == [("ada", 100), ("bob", 50)]

    def test_three_sources_one_statement(self):
        """Figure 1 in miniature: SQL + ISAM + text in one query."""
        local = Engine("local")
        remote = ServerInstance("sqlsrv")
        remote.execute("CREATE TABLE fact (k int, v float)")
        for i in range(10):
            remote.execute(f"INSERT INTO fact VALUES ({i}, {i * 1.0})")
        local.add_linked_server("sqlsrv", remote, NetworkChannel("c1"))
        db = Database("acc")
        dim = db.create_table(
            "dim", Schema([Column("k", INT), Column("label", varchar(10))])
        )
        for i in range(10):
            dim.insert((i, f"L{i}"))
        local.add_linked_server("acc", IsamDataSource(db))
        ds = SimpleDataSource({"keys.csv": "k\n1\n3\n5"})
        local.add_linked_server("txt", ds)
        r = local.execute(
            "SELECT d.label, f.v FROM sqlsrv.master.dbo.fact f, "
            "acc.acc.dbo.dim d, txt.master.dbo.[keys.csv] t "
            "WHERE f.k = d.k AND d.k = t.k ORDER BY d.label"
        )
        assert r.rows == [("L1", 1.0), ("L3", 3.0), ("L5", 5.0)]
