"""World builders: load the seeded row lists into real engines.

Same shapes as ``bench_throughput._build`` (E18), ``build_fig4_world``
and ``workloads.tpcc.build_federation``, but fed from
:mod:`benchmarks.layers.data`, so the benchmark's inputs follow
``--seed`` and do not move when a helper under ``src/`` is edited.
Everything goes through the public API: ``execute`` for DDL, bulk
``Table.insert`` for rows, ``add_linked_server`` for links.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import Engine, NetworkChannel, ServerInstance

from benchmarks.layers import data

CUSTOMER_DDL = (
    "CREATE TABLE tpch10g.dbo.customer (c_custkey int PRIMARY KEY, "
    "c_name varchar(25), c_address varchar(40), c_nationkey int, "
    "c_phone varchar(15), c_acctbal float, c_mktsegment varchar(10))"
)
SUPPLIER_DDL = (
    "CREATE TABLE tpch10g.dbo.supplier (s_suppkey int PRIMARY KEY, "
    "s_name varchar(25), s_address varchar(40), s_nationkey int, "
    "s_acctbal float)"
)
NATION_DDL = (
    "CREATE TABLE nation (n_nationkey int PRIMARY KEY, "
    "n_name varchar(25), n_regionkey int)"
)


@dataclass
class World:
    """The coordinator, its linked members, and the rows they hold."""

    coordinator: ServerInstance
    members: list[ServerInstance]
    rows: dict[str, list[tuple]]
    #: member tables the reference replays writes against, by name
    tables: dict[str, object] = field(default_factory=dict)

    @property
    def engines(self) -> list[ServerInstance]:
        return [self.coordinator, *self.members]

    @property
    def channels(self) -> list[NetworkChannel]:
        return [
            server.channel
            for server in self.coordinator.linked_servers.values()
            if server.channel is not None
        ]


def _load(server: ServerInstance, table_name: str, rows, database=None):
    table = server.catalog.database(database).table(table_name)
    for row in rows:
        table.insert(row)
    return table


def build_pool_world(seed: int) -> World:
    """E18: 240 local rows, two linked servers of 160 rows, 1 ms links."""
    rows = data.pool_rows(seed)
    local = Engine("local")
    local.execute("CREATE TABLE lt (id int, grp varchar(5), v int)")
    _load(local, "lt", rows["lt"])
    members = []
    for name, __, ___ in data.POOL_REMOTES:
        server = ServerInstance(name)
        server.execute("CREATE TABLE rt (id int, grp varchar(5), v int)")
        _load(server, "rt", rows[name])
        local.add_linked_server(
            name,
            server,
            NetworkChannel(f"ch-{name}", latency_ms=1.0, mb_per_second=50),
        )
        members.append(server)
    return World(local, members, rows)


def build_fig4_world(seed: int) -> World:
    """Example 1: customer + supplier remote, nation local, 2 ms WAN."""
    rows = data.fig4_rows(seed)
    local = Engine("local")
    remote = ServerInstance("remote0")
    remote.catalog.create_database("tpch10g")
    tables = {}
    for name, ddl in (("customer", CUSTOMER_DDL), ("supplier", SUPPLIER_DDL)):
        remote.execute(ddl)
        tables[name] = _load(remote, name, rows[name], database="tpch10g")
    local.execute(NATION_DDL)
    _load(local, "nation", rows["nation"])
    local.add_linked_server(
        "remote0",
        remote,
        NetworkChannel("wan", latency_ms=2.0, mb_per_second=10.0),
    )
    return World(local, [remote], rows, tables)


def build_pv_world(seed: int) -> World:
    """Four members, one warehouse each, 500 customers per warehouse,
    2 ms links; ``customer`` and ``orders`` are partitioned views over
    ``customer_<m>`` / ``orders_<m>``, and ``wh`` is a local table."""
    rows = data.pv_rows(seed)
    coordinator = ServerInstance("tpcc-coordinator")
    members, tables = [], {}
    customer_branches, order_branches = [], []
    for m in range(data.PV_MEMBERS):
        w = m + 1
        member = ServerInstance(f"fed{m}")
        member.execute(
            f"CREATE TABLE customer_{m} (c_w_id int NOT NULL "
            f"CHECK (c_w_id >= {w} AND c_w_id <= {w}), "
            "c_id int, c_name varchar(25), c_balance float)"
        )
        member.execute(f"CREATE INDEX ix_cust_{m} ON customer_{m} (c_w_id)")
        member.execute(
            f"CREATE TABLE orders_{m} (o_w_id int NOT NULL "
            f"CHECK (o_w_id >= {w} AND o_w_id <= {w}), "
            "o_id int, o_c_id int, o_amount float)"
        )
        tables[f"customer_{m}"] = _load(
            member, f"customer_{m}", rows[f"customer_{m}"]
        )
        tables[f"orders_{m}"] = member.catalog.database().table(f"orders_{m}")
        coordinator.add_linked_server(
            f"fed{m}", member, NetworkChannel(f"fed{m}", latency_ms=2.0)
        )
        customer_branches.append(f"SELECT * FROM fed{m}.master.dbo.customer_{m}")
        order_branches.append(f"SELECT * FROM fed{m}.master.dbo.orders_{m}")
        members.append(member)
    coordinator.execute(
        "CREATE VIEW customer AS " + " UNION ALL ".join(customer_branches)
    )
    coordinator.execute(
        "CREATE VIEW orders AS " + " UNION ALL ".join(order_branches)
    )
    coordinator.execute("CREATE TABLE wh (w_id int, w_name varchar(20))")
    _load(coordinator, "wh", rows["wh"])
    coordinator.execute("SET PARALLEL_DOP 1")
    return World(coordinator, members, rows, tables)
