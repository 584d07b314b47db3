"""Tests for DML through four-part names (distributed updates)."""

import pytest

from repro import Engine, NetworkChannel, ServerInstance
from repro.errors import BindError, SqlError


@pytest.fixture
def pair():
    local = Engine("local")
    remote = ServerInstance("r1")
    remote.execute(
        "CREATE TABLE inventory (sku int PRIMARY KEY, qty int, "
        "label varchar(30))"
    )
    remote.execute(
        "INSERT INTO inventory VALUES (1, 10, 'ant'), (2, 20, 'bee')"
    )
    local.add_linked_server("r1", remote, NetworkChannel("c", latency_ms=1))
    return local, remote


class TestRemoteDml:
    def test_remote_insert(self, pair):
        local, remote = pair
        n = local.execute(
            "INSERT INTO r1.master.dbo.inventory VALUES (3, 30, 'cat')"
        )
        assert n.rowcount == 1
        assert remote.execute(
            "SELECT qty FROM inventory WHERE sku = 3"
        ).scalar() == 30

    def test_remote_insert_with_columns(self, pair):
        local, remote = pair
        local.execute(
            "INSERT INTO r1.master.dbo.inventory (qty, sku) VALUES (40, 4)"
        )
        row = remote.execute(
            "SELECT qty, label FROM inventory WHERE sku = 4"
        ).rows[0]
        assert row == (40, None)

    def test_remote_insert_select_local(self, pair):
        """INSERT remote SELECT local: rows flow outward."""
        local, remote = pair
        local.execute("CREATE TABLE staging (sku int, qty int, label varchar(30))")
        local.execute("INSERT INTO staging VALUES (7, 70, 'gnu'), (8, 80, 'elk')")
        n = local.execute(
            "INSERT INTO r1.master.dbo.inventory SELECT * FROM staging"
        )
        assert n.rowcount == 2
        assert remote.execute(
            "SELECT COUNT(*) FROM inventory"
        ).scalar() == 4

    def test_remote_update(self, pair):
        local, remote = pair
        local.execute(
            "UPDATE r1.master.dbo.inventory SET qty = qty + 5 WHERE sku = 1"
        )
        assert remote.execute(
            "SELECT qty FROM inventory WHERE sku = 1"
        ).scalar() == 15

    def test_remote_update_with_params(self, pair):
        local, remote = pair
        local.execute(
            "UPDATE r1.master.dbo.inventory SET qty = @q WHERE sku = @s",
            params={"q": 99, "s": 2},
        )
        assert remote.execute(
            "SELECT qty FROM inventory WHERE sku = 2"
        ).scalar() == 99

    def test_remote_delete(self, pair):
        local, remote = pair
        local.execute("DELETE FROM r1.master.dbo.inventory WHERE qty >= 20")
        assert remote.execute("SELECT COUNT(*) FROM inventory").scalar() == 1

    def test_metadata_invalidated_after_dml(self, pair):
        """Remote DML invalidates cached cardinalities so later plans
        see fresh statistics."""
        local, remote = pair
        server = local.linked_server("r1")
        info_before = server.table_info("inventory", "master")
        assert info_before.cardinality == 2
        local.execute(
            "INSERT INTO r1.master.dbo.inventory VALUES (9, 90, 'fox')"
        )
        info_after = server.table_info("inventory", "master")
        assert info_after.cardinality == 3

    def test_unknown_server_rejected(self, pair):
        local, __ = pair
        with pytest.raises(BindError):
            local.execute("DELETE FROM ghost.master.dbo.inventory")

    def test_non_sql_provider_rejected(self, pair):
        local, __ = pair
        from repro.providers import SimpleDataSource

        local.add_linked_server(
            "txt", SimpleDataSource({"f.csv": "a\n1"})
        )
        with pytest.raises(SqlError, match="DML"):
            local.execute("DELETE FROM txt.master.dbo.[f.csv]")

    def test_readback_through_select(self, pair):
        local, __ = pair
        local.execute(
            "INSERT INTO r1.master.dbo.inventory VALUES (5, 50, 'owl')"
        )
        r = local.execute(
            "SELECT i.label FROM r1.master.dbo.inventory i WHERE i.sku = 5"
        )
        assert r.rows == [("owl",)]


# ----------------------------------------------------------------------
# one DML implementation: the same script against every kind of target
# ----------------------------------------------------------------------

INVENTORY = "(sku int PRIMARY KEY, qty int, label varchar(30))"

#: (statement with {t} for the target, params)
DML_SCRIPT = [
    ("INSERT INTO {t} VALUES (1, 10, 'ant'), (2, 20, 'bee'), "
     "(101, 30, 'cat'), (102, 40, 'dog')", None),
    ("INSERT INTO {t} SELECT * FROM staging", None),
    ("INSERT INTO {t} (qty, sku) VALUES (60, 104)", None),
    ("UPDATE {t} SET qty = 7 WHERE sku = 1", None),
    ("UPDATE {t} SET label = 'big' WHERE qty >= 40", None),
    ("UPDATE {t} SET qty = qty + 5 WHERE sku IN (2, 102)", None),
    ("UPDATE {t} SET qty = @q WHERE sku = @s", {"q": 99, "s": 101}),
    ("UPDATE {t} SET qty = @q WHERE sku = @s", {"q": 98, "s": 3}),
    ("DELETE FROM {t} WHERE qty BETWEEN 20 AND 30", None),
    ("DELETE FROM {t} WHERE sku = @s", {"s": 104}),
]

EXPECTED_INVENTORY = [
    (1, 7, "ant"),
    (3, 98, "elk"),
    (101, 99, "cat"),
    (102, 45, "big"),
    (103, 50, "big"),
]


def _staged_local():
    local = Engine("local")
    local.execute(f"CREATE TABLE staging {INVENTORY}")
    local.execute("INSERT INTO staging VALUES (3, 25, 'elk'), (103, 50, 'fox')")
    return local


def _local_table_world():
    local = _staged_local()
    local.execute(f"CREATE TABLE inventory {INVENTORY}")
    return local, "inventory", lambda: local.execute(
        "SELECT * FROM inventory").rows


def _four_part_world():
    local, remote = _staged_local(), ServerInstance("r1")
    remote.execute(f"CREATE TABLE inventory {INVENTORY}")
    local.add_linked_server("r1", remote, NetworkChannel("c", latency_ms=1))
    return local, "r1.master.dbo.inventory", lambda: remote.execute(
        "SELECT * FROM inventory").rows


def _partitioned_view_world():
    """``inventory`` is a view: skus below 100 in a local member, the
    rest on a linked server."""
    local, remote = _staged_local(), ServerInstance("r1")
    local.execute(
        "CREATE TABLE inv_lo (sku int PRIMARY KEY CHECK (sku < 100), "
        "qty int, label varchar(30))"
    )
    remote.execute(
        "CREATE TABLE inv_hi (sku int PRIMARY KEY CHECK (sku >= 100), "
        "qty int, label varchar(30))"
    )
    local.add_linked_server("r1", remote, NetworkChannel("c", latency_ms=1))
    local.execute(
        "CREATE VIEW inventory AS SELECT * FROM inv_lo "
        "UNION ALL SELECT * FROM r1.master.dbo.inv_hi"
    )
    return local, "inventory", lambda: (
        local.execute("SELECT * FROM inv_lo").rows
        + remote.execute("SELECT * FROM inv_hi").rows
    )


def _run_script(world):
    engine, target, final_rows = world()
    rowcounts = [
        engine.execute(sql.format(t=target), params=params).rowcount
        for sql, params in DML_SCRIPT
    ]
    return sorted(final_rows()), rowcounts


class TestOneDmlPath:
    @pytest.mark.parametrize(
        "world", [_local_table_world, _four_part_world, _partitioned_view_world]
    )
    def test_same_script_same_final_state(self, world):
        rows, rowcounts = _run_script(world)
        assert rows == EXPECTED_INVENTORY
        reference = _run_script(_local_table_world)[1]
        assert reference == [4, 2, 1, 1, 3, 2, 1, 1, 1, 1]
        # -1 is "the remote side did not report a count"
        for got, expected in zip(rowcounts, reference):
            assert got in (expected, -1)

    def test_pv_column_relative_update_reaches_remote_members(self):
        """``SET c = c + 1`` through a view used to raise BindError: the
        view's copy of UPDATE evaluated SET values as constants."""
        local = Engine("local")
        members = []
        for k, check in enumerate(("c_w_id < 2", "c_w_id >= 2")):
            member = ServerInstance(f"m{k}")
            member.execute(
                f"CREATE TABLE customer_{k} (c_w_id int CHECK ({check}), "
                "c_id int, c_balance float)"
            )
            local.add_linked_server(f"m{k}", member, NetworkChannel(f"c{k}"))
            members.append(member)
        local.execute(
            "CREATE VIEW customer AS SELECT * FROM m0.master.dbo.customer_0 "
            "UNION ALL SELECT * FROM m1.master.dbo.customer_1"
        )
        local.execute(
            "INSERT INTO customer VALUES (1, 1, 10.0), (1, 2, 20.0), "
            "(2, 1, 30.0)"
        )
        local.execute(
            "UPDATE customer SET c_balance = c_balance + 1 WHERE c_id = 1"
        )
        assert sorted(members[0].execute(
            "SELECT * FROM customer_0").rows) == [(1, 1, 11.0), (1, 2, 20.0)]
        assert members[1].execute(
            "SELECT * FROM customer_1").rows == [(2, 1, 31.0)]

    def test_pv_writes_maintain_a_local_members_fulltext_index(self):
        """UPDATE/DELETE through a view onto a local member go through
        the same local write path as direct DML, full-text included."""
        local, remote = Engine("local"), ServerInstance("r1")
        local.execute(
            "CREATE TABLE notes_lo (id int PRIMARY KEY CHECK (id < 100), "
            "body varchar(80))"
        )
        remote.execute(
            "CREATE TABLE notes_hi (id int PRIMARY KEY CHECK (id >= 100), "
            "body varchar(80))"
        )
        local.add_linked_server("r1", remote, NetworkChannel("c"))
        local.execute(
            "CREATE VIEW notes AS SELECT * FROM notes_lo "
            "UNION ALL SELECT * FROM r1.master.dbo.notes_hi"
        )
        local.create_fulltext_index("notes_lo", "id", "body")

        index = local.fulltext_service.catalog("ft_notes_lo")

        def matching(word):
            return sorted((match.key,) for match in index.search(word))

        local.execute(
            "INSERT INTO notes VALUES (1, 'parallel database'), "
            "(2, 'pasta recipes'), (100, 'remote pasta')"
        )
        assert matching("pasta") == [(2,)]
        local.execute("UPDATE notes SET body = 'marathon' WHERE id = 2")
        assert matching("pasta") == []
        assert matching("marathon") == [(2,)]
        local.execute("DELETE FROM notes WHERE id = 1")
        assert matching("parallel") == []

    def test_set_and_where_are_bound_once_per_statement(self, monkeypatch):
        from repro.sql import binder

        local = Engine("local")
        local.execute("CREATE TABLE t (id int PRIMARY KEY, v int)")
        local.execute(
            "INSERT INTO t VALUES "
            + ", ".join(f"({i}, {i})" for i in range(50))
        )
        binders = []
        original = binder.Binder.__init__

        def counting(self, *args, **kwargs):
            binders.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(binder.Binder, "__init__", counting)
        assert local.execute(
            "UPDATE t SET v = v + 1 WHERE id >= 0").rowcount == 50
        assert len(binders) == 1
        assert local.execute("SELECT SUM(v) FROM t").scalar() == sum(range(51))


class TestCheckDomainNormalization:
    def test_endpoint_the_column_type_cannot_hold_stays_as_written(self):
        """``int_col < 1.5``: 1.5 fails ``INT.validate``, so the domain
        keeps the literal endpoint and still routes/prunes correctly."""
        from repro.errors import ConstraintError

        engine = Engine("local")
        engine.execute("CREATE TABLE t (id int CHECK (id < 1.5))")
        (check,) = engine.catalog.database().table("t").check_constraints()
        assert check.column_name == "id"
        assert check.domain.contains(1) and not check.domain.contains(2)
        engine.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(ConstraintError):
            engine.execute("INSERT INTO t VALUES (2)")

    def test_only_type_errors_are_tolerated(self, monkeypatch):
        from repro.types.datatypes import INT

        def broken(self, value):
            raise RuntimeError("not a type error")

        monkeypatch.setattr(type(INT), "_coerce", broken)
        with pytest.raises(RuntimeError):
            Engine("local").execute("CREATE TABLE t (id int CHECK (id < 5))")
