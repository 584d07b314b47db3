"""Tests for federated partitioned views (Section 4.1.5)."""

import datetime as dt

import pytest

from repro import Engine, NetworkChannel, ServerInstance
from repro.core import physical as P
from repro.errors import CatalogError, ConstraintError, TransactionAborted
from repro.federation import partition_members
from repro.federation.partitioned_view import validate_disjoint


@pytest.fixture
def distributed_pv():
    """Partitioned view with 2 remote + 1 local member, by year."""
    local = Engine("local")
    members = {}
    for year in (1992, 1993):
        server = ServerInstance(f"srv{year}")
        server.execute(
            f"CREATE TABLE li_{year} (l_orderkey int, l_commitdate date "
            f"NOT NULL CHECK (l_commitdate >= '{year}-1-1' AND "
            f"l_commitdate < '{year + 1}-1-1'), l_qty int)"
        )
        local.add_linked_server(
            f"srv{year}", server, NetworkChannel(f"ch{year}", latency_ms=1)
        )
        members[year] = server
    local.execute(
        "CREATE TABLE li_1994 (l_orderkey int, l_commitdate date NOT NULL "
        "CHECK (l_commitdate >= '1994-1-1' AND l_commitdate < '1995-1-1'), "
        "l_qty int)"
    )
    local.execute(
        "CREATE VIEW li AS SELECT * FROM srv1992.master.dbo.li_1992 "
        "UNION ALL SELECT * FROM srv1993.master.dbo.li_1993 "
        "UNION ALL SELECT * FROM li_1994"
    )
    return local, members


class TestMemberDiscovery:
    def test_members_and_domains(self, distributed_pv):
        local, __ = distributed_pv
        db = local.catalog.database()
        view = db.view("li")
        assert view.is_partitioned
        members = partition_members(local, db, "dbo", view)
        assert len(members) == 3
        assert members[0].is_remote and not members[2].is_remote
        assert members[0].partition_column == "l_commitdate"
        assert members[0].domain.contains(dt.date(1992, 6, 1))

    def test_disjointness_validation(self, distributed_pv):
        local, __ = distributed_pv
        db = local.catalog.database()
        members = partition_members(local, db, "dbo", db.view("li"))
        validate_disjoint(members)  # no raise

    def test_two_checks_on_one_column_intersect(self):
        # CHECK (id >= 1) and CHECK (id <= 100) admit [1, 100] together,
        # for a local table as through a linked server
        ddl = (
            "CREATE TABLE t (id int PRIMARY KEY, v int, "
            "CHECK (id >= 1), CHECK (id <= 100))"
        )
        local = Engine("local")
        remote = ServerInstance("r0")
        local.execute(ddl)
        remote.execute(ddl)
        local.add_linked_server(
            "r0", remote, NetworkChannel("wan", latency_ms=1)
        )
        for table in ("t", "r0.master.dbo.t"):
            plan = local.plan(f"SELECT v FROM {table} WHERE id = -5").plan
            assert isinstance(plan, P.ConstScan) and not plan.rows, table
        local.execute("CREATE VIEW tv AS SELECT * FROM t")
        db = local.catalog.database()
        [member] = partition_members(local, db, "dbo", db.view("tv"))
        assert member.partition_column == "id"
        assert member.accepts(1) and member.accepts(100)
        assert not member.accepts(0) and not member.accepts(101)

    def test_overlapping_members_rejected(self):
        local = Engine("local")
        local.execute("CREATE TABLE a (k int CHECK (k < 10))")
        local.execute("CREATE TABLE b (k int CHECK (k < 20))")
        local.execute(
            "CREATE VIEW v AS SELECT * FROM a UNION ALL SELECT * FROM b"
        )
        db = local.catalog.database()
        members = partition_members(local, db, "dbo", db.view("v"))
        with pytest.raises(CatalogError, match="overlap"):
            validate_disjoint(members)


class TestRoutingDml:
    def test_insert_routes_by_domain(self, distributed_pv):
        local, members = distributed_pv
        local.execute(
            "INSERT INTO li VALUES (1, '1992-03-03', 5), "
            "(2, '1993-04-04', 6), (3, '1994-05-05', 7)"
        )
        assert members[1992].execute("SELECT COUNT(*) FROM li_1992").scalar() == 1
        assert members[1993].execute("SELECT COUNT(*) FROM li_1993").scalar() == 1
        assert local.execute("SELECT COUNT(*) FROM li_1994").scalar() == 1

    def test_insert_out_of_range_rejected_atomically(self, distributed_pv):
        local, members = distributed_pv
        with pytest.raises(ConstraintError, match="no partition"):
            local.execute(
                "INSERT INTO li VALUES (1, '1992-03-03', 5), "
                "(2, '2000-01-01', 6)"
            )
        # the first row rolled back with the statement
        assert members[1992].execute("SELECT COUNT(*) FROM li_1992").scalar() == 0
        assert local.dtc.aborted_count == 1

    def test_delete_through_view(self, distributed_pv):
        local, members = distributed_pv
        local.execute(
            "INSERT INTO li VALUES (1, '1992-03-03', 5), (2, '1993-04-04', 5)"
        )
        local.execute("DELETE FROM li WHERE l_qty = 5")
        assert local.execute("SELECT COUNT(*) FROM li").scalar() == 0

    def test_update_through_view(self, distributed_pv):
        local, members = distributed_pv
        local.execute("INSERT INTO li VALUES (1, '1994-03-03', 5)")
        local.execute("UPDATE li SET l_qty = 9 WHERE l_orderkey = 1")
        assert local.execute(
            "SELECT l_qty FROM li WHERE l_orderkey = 1"
        ).scalar() == 9

    def test_update_partition_column_rejected(self, distributed_pv):
        local, __ = distributed_pv
        with pytest.raises(ConstraintError, match="partitioning column"):
            local.execute("UPDATE li SET l_commitdate = '1993-01-01'")


class TestPruning:
    def _load(self, local):
        local.execute(
            "INSERT INTO li VALUES (1, '1992-03-03', 10), "
            "(2, '1993-04-04', 20), (3, '1994-05-05', 30)"
        )

    def test_static_pruning_single_member(self, distributed_pv):
        local, __ = distributed_pv
        self._load(local)
        r = local.execute(
            "SELECT l_orderkey FROM li WHERE l_commitdate = '1993-04-04'"
        )
        assert r.rows == [(2,)]
        # only one member survives compile-time pruning
        concats = [n for n in r.plan.walk() if isinstance(n, P.Concat)]
        assert not concats

    def test_runtime_pruning_via_startup_filters(self, distributed_pv):
        local, __ = distributed_pv
        self._load(local)
        r = local.execute(
            "SELECT l_orderkey FROM li WHERE l_commitdate = @d",
            params={"d": dt.date(1994, 5, 5)},
        )
        assert r.rows == [(3,)]
        assert r.context.startup_filters_skipped == 2
        # no remote query actually ran: both remote members were skipped
        assert r.context.remote_queries_executed == 0

    def test_range_query_touches_two_members(self, distributed_pv):
        local, __ = distributed_pv
        self._load(local)
        r = local.execute(
            "SELECT COUNT(*) FROM li WHERE l_commitdate >= '1993-01-01'"
        )
        assert r.scalar() == 2

    def test_full_scan_reads_everything(self, distributed_pv):
        local, __ = distributed_pv
        self._load(local)
        assert local.execute("SELECT COUNT(*) FROM li").scalar() == 3

    def test_pruning_disabled_still_correct(self, distributed_pv):
        local, __ = distributed_pv
        self._load(local)
        local.optimizer.options.enable_static_pruning = False
        local.optimizer.options.enable_startup_filters = False
        r = local.execute(
            "SELECT l_orderkey FROM li WHERE l_commitdate = '1993-04-04'"
        )
        assert r.rows == [(2,)]


class TestFederationWorkload:
    def test_tpcc_lite_federation(self):
        from repro.workloads import build_federation
        from repro.workloads.tpcc import new_order, run_new_orders

        federation = build_federation(
            member_count=3, warehouses_per_member=2, customers_per_warehouse=5
        )
        committed = run_new_orders(federation, 12)
        assert committed == 12
        total = federation.coordinator.execute(
            "SELECT COUNT(*) FROM orders"
        ).scalar()
        assert total == 12
        # orders landed on the member owning each warehouse
        per_member = [
            member.execute(f"SELECT COUNT(*) FROM orders_{i}").scalar()
            for i, member in enumerate(federation.members)
        ]
        assert sum(per_member) == 12
