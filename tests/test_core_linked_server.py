"""Tests for linked servers: metadata discovery through OLE DB and
delayed schema validation (Section 4.1.5)."""

import pytest

from repro import Engine, NetworkChannel, ServerInstance
from repro.core.linked_server import LinkedServer, type_from_name
from repro.errors import CatalogError, SchemaValidationError
from repro.providers import IsamDataSource, SimpleDataSource
from repro.providers.sqlserver import SqlServerDataSource
from repro.storage.catalog import Database
from repro.types import Column, INT, Schema, varchar


@pytest.fixture
def sql_linked():
    backend = ServerInstance("be")
    backend.execute(
        "CREATE TABLE t (id int PRIMARY KEY, name varchar(30), v float)"
    )
    for i in range(50):
        backend.execute(f"INSERT INTO t VALUES ({i}, 'n{i % 5}', {i * 1.0})")
    ds = SqlServerDataSource(backend)
    return backend, LinkedServer("r1", ds)


class TestTypeParsing:
    def test_roundtrip_names(self):
        assert type_from_name("INT").name == "INT"
        assert type_from_name("VARCHAR(50)").max_length == 50
        assert type_from_name("varchar").max_length is None
        assert type_from_name("DATETIME").name == "DATETIME"

    def test_unknown_type_rejected(self):
        with pytest.raises(CatalogError):
            type_from_name("GEOGRAPHY")


class TestMetadataDiscovery:
    def test_schema_via_rowsets(self, sql_linked):
        __, server = sql_linked
        info = server.table_info("t")
        assert info.schema.names == ("id", "name", "v")
        assert info.cardinality == 50
        assert info.schema_version == 1

    def test_indexes_discovered(self, sql_linked):
        __, server = sql_linked
        info = server.table_info("t")
        assert any(ix.unique for ix in info.indexes)

    def test_missing_table(self, sql_linked):
        __, server = sql_linked
        with pytest.raises(CatalogError):
            server.table_info("ghost")

    def test_metadata_cached(self, sql_linked):
        backend, server = sql_linked
        first = server.table_info("t")
        backend.execute("INSERT INTO t VALUES (100, 'new', 1.0)")
        second = server.table_info("t")
        assert second is first  # cached, stale cardinality by design
        refreshed = server.table_info("t", refresh=True)
        assert refreshed.cardinality == 51

    def test_histogram_statistics(self, sql_linked):
        __, server = sql_linked
        stats = server.column_statistics("t", "name")
        assert stats is not None
        assert stats.distinct_count == 5

    def test_simple_provider_probed_without_rowsets(self):
        ds = SimpleDataSource({"f.csv": "a,b\n1,2\n3,4"})
        server = LinkedServer("txt", ds)
        info = server.table_info("f.csv")
        assert info.cardinality == 2
        assert info.indexes == []

    def test_check_constraints_via_schema_rowset(self):
        engine = ServerInstance("be")
        engine.execute(
            "CREATE TABLE part (k int CHECK (k >= 0 AND k < 10))"
        )
        server = LinkedServer("r", SqlServerDataSource(engine))
        info = server.table_info("part")
        assert "k" in info.check_domains
        assert info.check_domains["k"].contains(5)
        assert not info.check_domains["k"].contains(10)


class TestDelayedSchemaValidation:
    def test_version_match_passes(self, sql_linked):
        __, server = sql_linked
        server.table_info("t")
        server.validate_schema_version("t")  # no raise

    def test_version_change_detected(self, sql_linked):
        backend, server = sql_linked
        server.table_info("t")
        backend.catalog.database().table("t").schema_version += 1
        with pytest.raises(SchemaValidationError, match="changed"):
            server.validate_schema_version("t")

    def test_remote_query_revalidates_at_execution(self):
        local = Engine("local")
        remote = ServerInstance("r1")
        remote.execute("CREATE TABLE t (x int)")
        remote.execute("INSERT INTO t VALUES (1)")
        local.add_linked_server("r1", remote, NetworkChannel("c"))
        assert local.execute("SELECT t.x FROM r1.master.dbo.t t").rows == [(1,)]
        # simulate remote ALTER TABLE
        remote.catalog.database().table("t").schema_version += 1
        with pytest.raises(SchemaValidationError):
            local.execute("SELECT t.x FROM r1.master.dbo.t t WHERE t.x > 0")

    def test_recreated_member_table_is_detected_once_then_recompiled(self):
        """A table dropped and re-created under its name continues from
        the dropped version, so the cached plan's validation fails —
        once: the failure drops the stale metadata and evicts the plan,
        and the next execution compiles against the new schema."""
        local = Engine("local")
        remote = ServerInstance("r1")
        remote.execute("CREATE TABLE t (x int, y int)")
        remote.execute("INSERT INTO t VALUES (1, 10)")
        local.add_linked_server("r1", remote, NetworkChannel("c"))
        sql = "SELECT t.y FROM r1.master.dbo.t t"
        assert local.execute(sql).rows == [(10,)]
        assert local.execute(sql).plan_cache_status == "hit"
        remote.execute("DROP TABLE t")
        remote.execute("CREATE TABLE t (y int, x int)")
        remote.execute("INSERT INTO t VALUES (10, 1)")
        assert remote.catalog.database().table("t").schema_version == 2
        with pytest.raises(SchemaValidationError, match="v1 -> v2"):
            local.execute(sql)
        assert local.plan_cache.invalidations_by_reason.get("ddl") == 1
        second = local.execute(sql)
        assert second.rows == [(10,)]
        assert second.plan_cache_status == "miss"
        assert local.execute(sql).plan_cache_status == "hit"

    def test_index_and_constraint_ddl_move_the_version(self):
        backend = ServerInstance("be")
        backend.execute(
            "CREATE TABLE t (id int PRIMARY KEY, v int CHECK (v >= 0))"
        )
        table = backend.catalog.database().table("t")
        assert table.schema_version == 1  # constraints born with the table
        backend.execute("CREATE INDEX ix_v ON t (v)")
        assert table.schema_version == 2
        from repro.storage.constraints import UniqueConstraint

        table.add_constraint(UniqueConstraint(["v"]))
        assert table.schema_version > 2
        # a fresh name starts at 1 whatever was dropped under others
        backend.execute("DROP TABLE t")
        backend.execute("CREATE TABLE u (id int)")
        assert backend.catalog.database().table("u").schema_version == 1

    def test_validation_reads_one_restricted_rowset(self, sql_linked):
        """On the match path: the table's TABLES_INFO row, nothing
        else, and what is cached afterwards is what a re-discovery
        would have cached."""
        backend, server = sql_linked
        backend.execute("CREATE TABLE other (id int)")
        server.table_info("t")
        server.column_statistics("t", "v")
        backend.execute("INSERT INTO t VALUES (100, 'new', 1.0)")
        asked = []
        read = type(server.session).schema_rowset

        def recording(session, which, **restrictions):
            asked.append((which, restrictions.get("table_name")))
            return read(session, which, **restrictions)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(type(server.session), "schema_rowset", recording)
            server.validate_schema_version("t")
        assert asked == [("TABLES_INFO", "t")]
        validated = server.table_info("t")
        rediscovered = server.table_info("t", refresh=True)
        for field in ("table_name", "cardinality", "avg_row_width",
                      "schema_version", "check_domains", "_column_stats"):
            assert getattr(validated, field) == getattr(rediscovered, field)
        assert validated.cardinality == 51 and validated._column_stats == {}
        assert validated.schema.names == rediscovered.schema.names
        assert [i.name for i in validated.indexes] == [
            i.name for i in rediscovered.indexes
        ]

    def test_restricted_rowsets_leave_other_tables_alone(self, sql_linked):
        backend, server = sql_linked
        backend.execute("CREATE TABLE other (id int)")
        backend.execute("INSERT INTO other VALUES (1)")
        other = backend.catalog.database().table("other")
        assert other._stats is None
        info = server.table_info("t")
        assert info.cardinality == 50 and other._stats is None
        rows = server.session.schema_rowset(
            "TABLES_INFO", table_name="T"
        ).fetch_all()
        assert [row[0] for row in rows] == ["t"]
        assert len(server.session.schema_rowset("TABLES_INFO").fetch_all()) == 2

    def test_invalidate_metadata_recovers(self):
        local = Engine("local")
        remote = ServerInstance("r1")
        remote.execute("CREATE TABLE t (x int)")
        local.add_linked_server("r1", remote, NetworkChannel("c"))
        local.execute("SELECT t.x FROM r1.master.dbo.t t")
        remote.catalog.database().table("t").schema_version += 1
        local.linked_server("r1").invalidate_metadata("t", "master")
        # fresh compile sees the new version and validates cleanly
        assert local.execute("SELECT t.x FROM r1.master.dbo.t t").rows == []
