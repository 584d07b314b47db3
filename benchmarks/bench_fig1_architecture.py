"""E1 — Figure 1: the DHQP architecture, executed.

Figure 1 shows one relational engine reaching SQL Server, Oracle, DB2,
Access, and the Search Service through OLE DB.  We build that world —
five providers of four different categories behind one engine — and
run a single SQL statement that touches all of them, timing the
end-to-end federated execution.
"""

import pytest

from benchmarks.conftest import print_table
from repro import Engine, FullTextService, NetworkChannel, ServerInstance
from repro.oledb.properties import SqlSupportLevel
from repro.providers import (
    FullTextDataSource,
    IsamDataSource,
    SimpleDataSource,
)
from repro.providers.sqlserver import SqlServerDataSource
from repro.storage.catalog import Database
from repro.types import Column, INT, Schema, varchar


@pytest.fixture(scope="module")
def figure1_world():
    local = Engine("local")
    # 1. a remote SQL Server
    mssql = ServerInstance("mssql")
    mssql.execute("CREATE TABLE orders (k int, total float)")
    for i in range(100):
        mssql.execute(f"INSERT INTO orders VALUES ({i % 10}, {i * 2.0})")
    local.add_linked_server("mssql", mssql, NetworkChannel("c1", latency_ms=1))
    # 2. an Oracle-like SQL source (lower dialect level, ANSI quoting)
    oracle = ServerInstance("ora-backend")
    oracle.execute("CREATE TABLE accounts (k int, owner varchar(20))")
    for i in range(10):
        oracle.execute(f"INSERT INTO accounts VALUES ({i}, 'owner{i}')")
    local.add_linked_server(
        "oracle",
        SqlServerDataSource(
            oracle,
            channel=NetworkChannel("c2", latency_ms=1),
            sql_support=SqlSupportLevel.ODBC_CORE,
            dialect_name="oracle",
            identifier_quotes='""',
            provider_name="MSDAORA",
        ),
    )
    # 3. an Access-like ISAM database
    access = Database("acc")
    dim = access.create_table(
        "regions", Schema([Column("k", INT), Column("region", varchar(20))])
    )
    for i in range(10):
        dim.insert((i, f"region{i % 3}"))
    local.add_linked_server("access", IsamDataSource(access))
    # 4. a simple text-file provider
    local.add_linked_server(
        "txt", SimpleDataSource({"flags.csv": "k,flag\n1,1\n2,0\n3,1\n4,1"})
    )
    # 5. the search service
    service = FullTextService()
    catalog = service.create_catalog("notes", "filesystem")
    catalog.index_directory(
        {f"d:/n/{i}.txt": f"note {i} mentions region{i % 3}" for i in range(9)}
    )
    local.attach_fulltext_service(service)
    return local


FEDERATED_SQL = (
    "SELECT r.region, SUM(o.total) AS total "
    "FROM mssql.master.dbo.orders o, oracle.master.dbo.accounts a, "
    "access.acc.dbo.regions r, txt.master.dbo.[flags.csv] f "
    "WHERE o.k = a.k AND a.k = r.k AND r.k = f.k AND f.flag = 1 "
    "GROUP BY r.region ORDER BY r.region"
)


def test_one_statement_four_sources(benchmark, figure1_world):
    local = figure1_world
    rows = benchmark(lambda: local.execute(FEDERATED_SQL).rows)
    assert rows, "the federated statement should produce groups"
    print_table(
        "Figure 1: one statement over four provider categories",
        ["region", "total"],
        rows,
    )


def test_provider_inventory(benchmark, figure1_world):
    local = figure1_world

    def inventory():
        return [
            (name, s.datasource.provider_name,
             s.capabilities.sql_support.name)
            for name, s in sorted(local.linked_servers.items())
        ]

    rows = benchmark.pedantic(inventory, rounds=1, iterations=1)
    assert len(rows) == 4
    print_table(
        "Figure 1: registered linked servers",
        ["linked server", "provider", "DBPROP_SQLSUPPORT"],
        rows,
    )


def test_fulltext_openrowset_alongside(benchmark, figure1_world):
    local = figure1_world
    sql = (
        "SELECT FS.path FROM OpenRowset('MSIDXS','notes';'';'', "
        "'Select Path, size from SCOPE() where CONTAINS(''region1'')') AS FS"
    )
    rows = benchmark(lambda: local.execute(sql).rows)
    assert len(rows) == 3
