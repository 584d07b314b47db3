"""Tests for the SQL decoder (Sections 4.1.3-4.1.4)."""

import pytest

from repro.core.decoder import Decoder
from repro.core.memo import Memo
from repro.core.rules.normalization import normalize
from repro.engine import ServerInstance
from repro.errors import DecoderError
from repro.network import NetworkChannel
from repro.oledb.properties import ProviderCapabilities, SqlSupportLevel
from repro.sql.binder import Binder
from repro.sql.parser import parse_sql


@pytest.fixture
def distributed():
    """local engine + remote server with orders/customers."""
    local = ServerInstance("local")
    remote = ServerInstance("r1")
    remote.execute(
        "CREATE TABLE orders (o_id int PRIMARY KEY, o_cust int, "
        "o_total float)"
    )
    remote.execute(
        "CREATE TABLE custs (c_id int PRIMARY KEY, c_name varchar(30))"
    )
    for i in range(20):
        remote.execute(
            f"INSERT INTO orders VALUES ({i}, {i % 5}, {i * 10.0})"
        )
    for i in range(5):
        remote.execute(f"INSERT INTO custs VALUES ({i}, 'c{i}')")
    local.add_linked_server("r1", remote, NetworkChannel("ch"))
    return local, remote


def decode(local, sql, **caps_kwargs):
    stmt = parse_sql(sql)
    bound = Binder(local).bind_select(stmt)
    memo = Memo()
    group = memo.insert_tree(normalize(bound.root))
    capabilities = ProviderCapabilities(
        caps_kwargs.pop("sql_support", SqlSupportLevel.SQL92_FULL),
        **caps_kwargs,
    )
    return Decoder(capabilities, "r1").decode_group(group)


class TestDecoding:
    def test_simple_select(self, distributed):
        local, remote = distributed
        decoded = decode(
            local, "SELECT o.o_total FROM r1.master.dbo.orders o"
        )
        assert "SELECT" in decoded.sql_text
        assert "[master].[dbo].[orders]" in decoded.sql_text
        # the remote server can actually run it
        rows = remote.execute(decoded.sql_text).rows
        assert len(rows) == 20

    def test_where_clause(self, distributed):
        local, remote = distributed
        decoded = decode(
            local,
            "SELECT o.o_id FROM r1.master.dbo.orders o WHERE o.o_total > 100",
        )
        assert "WHERE" in decoded.sql_text
        rows = remote.execute(decoded.sql_text).rows
        assert all(remote.execute(
            f"SELECT o_total FROM orders WHERE o_id = {r[0]}"
        ).scalar() > 100 for r in rows)

    def test_join_decodes_and_runs(self, distributed):
        local, remote = distributed
        decoded = decode(
            local,
            "SELECT c.c_name, o.o_total FROM r1.master.dbo.orders o, "
            "r1.master.dbo.custs c WHERE o.o_cust = c.c_id",
        )
        rows = remote.execute(decoded.sql_text).rows
        assert len(rows) == 20

    def test_group_by_decodes_and_runs(self, distributed):
        local, remote = distributed
        decoded = decode(
            local,
            "SELECT o.o_cust, SUM(o.o_total) AS s FROM "
            "r1.master.dbo.orders o GROUP BY o.o_cust",
        )
        assert "GROUP BY" in decoded.sql_text
        rows = remote.execute(decoded.sql_text).rows
        assert len(rows) == 5

    def test_parameters_become_markers(self, distributed):
        local, __ = distributed
        decoded = decode(
            local,
            "SELECT o.o_id FROM r1.master.dbo.orders o WHERE o.o_cust = @c",
        )
        assert "?" in decoded.sql_text
        assert len(decoded.params) == 1

    def test_tables_recorded_for_validation(self, distributed):
        local, __ = distributed
        decoded = decode(
            local,
            "SELECT o.o_id FROM r1.master.dbo.orders o",
        )
        assert decoded.tables == [("master", "orders")]


class TestCapabilityLimits:
    def test_sql_minimum_rejects_joins(self, distributed):
        local, __ = distributed
        with pytest.raises(DecoderError, match="cannot remote join"):
            decode(
                local,
                "SELECT o.o_id FROM r1.master.dbo.orders o, "
                "r1.master.dbo.custs c WHERE o.o_cust = c.c_id",
                sql_support=SqlSupportLevel.SQL_MINIMUM,
            )

    def test_entry_level_rejects_top(self, distributed):
        local, __ = distributed
        with pytest.raises(DecoderError):
            decode(
                local,
                "SELECT TOP 3 o.o_id FROM r1.master.dbo.orders o",
                sql_support=SqlSupportLevel.SQL92_ENTRY,
            )

    def test_full_level_allows_top(self, distributed):
        local, remote = distributed
        decoded = decode(
            local, "SELECT TOP 3 o.o_id FROM r1.master.dbo.orders o"
        )
        assert "TOP 3" in decoded.sql_text
        assert len(remote.execute(decoded.sql_text).rows) == 3

    def test_wrong_server_table_rejected(self, distributed):
        local, __ = distributed
        local.execute("CREATE TABLE localt (x int)")
        with pytest.raises(DecoderError):
            decode(local, "SELECT localt.x FROM localt")

    def test_semi_join_has_no_sql_corollary(self, distributed):
        local, __ = distributed
        # NOT EXISTS binds to an anti-semi-join, which must not decode
        with pytest.raises(DecoderError, match="no remotable|semi-join"):
            decode(
                local,
                "SELECT o.o_id FROM r1.master.dbo.orders o WHERE NOT EXISTS "
                "(SELECT * FROM r1.master.dbo.custs c WHERE c.c_id = o.o_cust)",
            )

    def test_contains_predicate_not_remotable(self, distributed):
        local, __ = distributed
        with pytest.raises(DecoderError):
            decode(
                local,
                "SELECT c.c_name FROM r1.master.dbo.custs c "
                "WHERE CONTAINS(c.c_name, 'x')",
            )


class TestDialects:
    def test_ansi_quoting(self, distributed):
        local, __ = distributed
        stmt = parse_sql("SELECT o.o_id FROM r1.master.dbo.orders o")
        bound = Binder(local).bind_select(stmt)
        memo = Memo()
        group = memo.insert_tree(normalize(bound.root))
        caps = ProviderCapabilities(
            SqlSupportLevel.SQL92_FULL, identifier_quotes='""'
        )
        decoded = Decoder(caps, "r1").decode_group(group)
        assert '"orders"' in decoded.sql_text
        assert "[" not in decoded.sql_text

    def test_odbc_date_literals(self, distributed):
        local, __ = distributed
        stmt = parse_sql(
            "SELECT o.o_id FROM r1.master.dbo.orders o "
            "WHERE o.o_total > 1"
        )
        bound = Binder(local).bind_select(stmt)
        from repro.algebra.expressions import Literal
        import datetime as dt

        caps = ProviderCapabilities(
            SqlSupportLevel.SQL92_FULL, date_literal_format="odbc"
        )
        decoder = Decoder(caps, "r1")
        rendered = decoder._literal(Literal(dt.date(1992, 1, 1)))
        assert rendered == "{d '1992-01-01'}"
        rendered_ts = decoder._literal(Literal(dt.datetime(1992, 1, 1, 5)))
        assert rendered_ts.startswith("{ts '")
