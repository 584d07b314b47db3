"""Tests for the concrete OLE DB providers (Sections 2 & 3.3)."""

import datetime as dt

import pytest

from repro.engine import ServerInstance
from repro.errors import (
    CatalogError,
    ConnectionError_,
    NotSupportedError,
    ProviderError,
)
from repro.network import NetworkChannel
from repro.oledb import MaterializedRowset
from repro.oledb.interfaces import (
    ICOMMAND,
    IDB_CREATE_COMMAND,
    IROWSET_INDEX,
    IROWSET_LOCATE,
)
from repro.providers import (
    EmailDataSource,
    ExcelDataSource,
    FullTextDataSource,
    IsamDataSource,
    MailFile,
    MailMessage,
    PassThroughDataSource,
    SimpleDataSource,
    SqlServerDataSource,
    Workbook,
)
from repro.fulltext import FullTextService
from repro.storage.catalog import Database
from repro.types import Column, INT, Interval, Schema, varchar


class TestSimpleProvider:
    def _ds(self):
        ds = SimpleDataSource(
            {"sales.csv": "region,amount\neast,10\nwest,20\n,30"}
        )
        ds.initialize()
        return ds

    def test_named_rowset_with_inferred_schema(self):
        session = self._ds().create_session()
        rs = session.open_rowset("sales.csv")
        assert rs.schema.names == ("region", "amount")
        assert rs.fetch_all() == [("east", 10), ("west", 20), (None, 30)]

    def test_no_command_support(self):
        session = self._ds().create_session()
        with pytest.raises(NotSupportedError):
            session.create_command()

    def test_no_schema_rowsets(self):
        session = self._ds().create_session()
        with pytest.raises(NotSupportedError):
            session.schema_rowset("TABLES")

    def test_missing_file(self):
        session = self._ds().create_session()
        with pytest.raises(CatalogError):
            session.open_rowset("nope.csv")

    def test_empty_registry_fails_connect(self):
        ds = SimpleDataSource({})
        with pytest.raises(ConnectionError_):
            ds.initialize()

    def test_float_column_inference(self):
        ds = SimpleDataSource({"f.csv": "v\n1\n2.5"})
        ds.initialize()
        rs = ds.create_session().open_rowset("f.csv")
        assert rs.schema[0].type.name == "FLOAT"


class TestIsamProvider:
    def _ds(self):
        db = Database("Enterprise")
        t = db.create_table(
            "Customers",
            Schema(
                [
                    Column("id", INT, nullable=False),
                    Column("city", varchar(30)),
                ]
            ),
        )
        for i in range(10):
            t.insert((i, "Seattle" if i % 2 == 0 else "Portland"))
        t.create_index("ix_id", ["id"], unique=True)
        ds = IsamDataSource(db)
        ds.initialize()
        return ds

    def test_exposes_index_interfaces(self):
        ds = self._ds()
        assert ds.supports_interface(IROWSET_INDEX)
        assert ds.supports_interface(IROWSET_LOCATE)
        assert not ds.supports_interface(IDB_CREATE_COMMAND)

    def test_index_rowset_seek(self):
        session = self._ds().create_session()
        rs = session.open_index_rowset("Customers", "ix_id", seek_key=(4,))
        rows = rs.fetch_all()
        assert len(rows) == 1
        assert rows[0][0] == 4  # key column
        assert rs.schema.names[-1] == "BOOKMARK"

    def test_index_rowset_range_then_bookmark_fetch(self):
        session = self._ds().create_session()
        rs = session.open_index_rowset(
            "Customers", "ix_id", range_interval=Interval(2, 5, True, True)
        )
        bookmarks = [row[-1] for row in rs]
        fetched = session.fetch_by_bookmarks("Customers", bookmarks)
        ids = sorted(row[0] for row in fetched)
        assert ids == [2, 3, 4, 5]

    def test_schema_rowsets(self):
        session = self._ds().create_session()
        tables = session.schema_rowset("TABLES").fetch_all()
        assert any(r[2] == "Customers" for r in tables)
        indexes = session.schema_rowset("INDEXES").fetch_all()
        assert any(r[1] == "ix_id" for r in indexes)
        info = session.schema_rowset("TABLES_INFO").fetch_all()
        assert any(r[0] == "Customers" and r[1] == 10 for r in info)

    def test_histogram_rowset(self):
        session = self._ds().create_session()
        rs = session.open_histogram_rowset("Customers", "city")
        assert len(rs) >= 1

    def test_no_command(self):
        session = self._ds().create_session()
        with pytest.raises(NotSupportedError):
            session.create_command()


class TestExcelProvider:
    def test_sheet_as_rowset(self):
        wb = Workbook("d:/book.xls")
        wb.add_sheet("Sheet1", [("name", "qty"), ("ant", 3), ("bee", 5)])
        ds = ExcelDataSource(wb)
        ds.initialize()
        rs = ds.create_session().open_rowset("Sheet1$")
        assert rs.schema.names == ("name", "qty")
        assert rs.fetch_all() == [("ant", 3), ("bee", 5)]

    def test_missing_sheet(self):
        wb = Workbook()
        wb.add_sheet("s", [("a",)])
        ds = ExcelDataSource(wb)
        ds.initialize()
        with pytest.raises(CatalogError):
            ds.create_session().open_rowset("other")

    def test_empty_workbook_fails_connect(self):
        ds = ExcelDataSource(Workbook())
        with pytest.raises(ConnectionError_):
            ds.initialize()


class TestEmailProvider:
    def _ds(self):
        mf = MailFile("d:/m.mmf")
        mf.add(
            MailMessage(
                1, "a@x", "me", "hi", dt.datetime(2004, 1, 1),
                extras={"Location": "R9"},
                attachments=[("f.doc", 10)],
            )
        )
        mf.add(MailMessage(2, "b@y", "me", "re", dt.datetime(2004, 1, 2), 1))
        ds = EmailDataSource([mf])
        ds.initialize()
        return ds

    def test_maketable_rowset(self):
        rs = self._ds().create_session().open_rowset("d:/m.mmf")
        rows = rs.fetch_all()
        assert len(rows) == 2
        assert rows[1][5] == 1  # InReplyTo

    def test_chaptered_view_exposes_extras(self):
        session = self._ds().create_session()
        ch = session.open_chaptered_rowset("d:/m.mmf")
        first = next(ch.row_objects())
        assert first.specific("Location") == "R9"
        assert ch.chapter(0, "attachments").fetch_all() == [("f.doc", 10)]

    def test_unknown_mailfile(self):
        session = self._ds().create_session()
        with pytest.raises(CatalogError):
            session.open_rowset("d:/other.mmf")


class TestFullTextProvider:
    def _ds(self):
        svc = FullTextService()
        cat = svc.create_catalog("lit", "filesystem")
        cat.index_directory(
            {
                "d:/a.txt": "parallel database research",
                "d:/b.txt": "unrelated notes",
            }
        )
        ds = FullTextDataSource(svc, "lit")
        ds.initialize()
        return ds

    def test_command_returns_matches(self):
        session = self._ds().create_session()
        cmd = session.create_command()
        cmd.set_text(
            "Select Path, size from SCOPE() where "
            "CONTAINS('\"parallel database\"')"
        )
        rows = cmd.execute().fetch_all()
        assert rows == [("d:/a.txt", len("parallel database research"))]

    def test_describe_without_execution(self):
        session = self._ds().create_session()
        cmd = session.create_command()
        cmd.set_text("Select Path, Rank from SCOPE() where CONTAINS('x')")
        schema = cmd.describe()
        assert schema.names == ("Path", "Rank")

    def test_bad_language_rejected(self):
        session = self._ds().create_session()
        cmd = session.create_command()
        cmd.set_text("DELETE FROM SCOPE()")
        with pytest.raises(Exception):
            cmd.execute()

    def test_scope_rowset(self):
        session = self._ds().create_session()
        rs = session.open_rowset("SCOPE()")
        assert len(rs.fetch_all()) == 2

    def test_scope_rowset_is_charged_like_command_rows(self):
        """SCOPE() rows cross the provider's channel, as command rows
        do: bytes received, and one round trip for the request and its
        one batch of rows."""
        svc = FullTextService()
        svc.create_catalog("lit", "filesystem").index_directory(
            {
                "d:/lit/one.txt": "query processing",
                "d:/lit/two.txt": "query optimizer",
                "d:/lit/six.txt": "query engine",
            }
        )
        by_command = NetworkChannel("wan", latency_ms=5)
        ds = FullTextDataSource(svc, "lit", channel=by_command)
        ds.initialize()
        cmd = ds.create_session().create_command()
        cmd.set_text("SELECT Path, Size FROM SCOPE() WHERE CONTAINS('query')")
        assert len(cmd.execute().fetch_all()) == 3
        # three rows of Path (14 chars + 2) and Size (4), one batch
        assert by_command.stats.bytes_received == 60
        assert by_command.stats.round_trips == 1  # the command + its batch

        by_scope = NetworkChannel("wan", latency_ms=5)
        ds = FullTextDataSource(svc, "lit", channel=by_scope)
        ds.initialize()
        rowset = ds.create_session().open_rowset("SCOPE()")
        rows = rowset.fetch_all()
        assert len(rows) == 3
        assert by_scope.stats.bytes_received == sum(
            rowset.schema.row_width(row) for row in rows
        ) > 0
        assert by_scope.stats.round_trips == 1
        assert by_scope.stats.simulated_ms >= 5

    def test_non_scope_rowset_rejected(self):
        session = self._ds().create_session()
        with pytest.raises(ProviderError):
            session.open_rowset("documents")

    def test_contains_rowset_for_relational(self):
        svc = FullTextService()
        cat = svc.create_catalog("rel", "relational")
        cat.index_row(5, "parallel database")
        ds = FullTextDataSource(svc, "rel")
        ds.initialize()
        rs = ds.create_session().contains_rowset("parallel")
        assert rs.fetch_all()[0][0] == 5


class TestPassThroughProvider:
    def test_handler_invoked(self):
        schema = Schema([Column("measure", varchar())])

        def handler(text):
            assert "MDX" in text
            return MaterializedRowset(schema, [("42",)])

        ds = PassThroughDataSource(handler, query_language="MDX")
        ds.initialize()
        cmd = ds.create_session().create_command()
        cmd.set_text("SELECT MDX THINGS")
        assert cmd.execute().fetch_all() == [("42",)]

    def test_no_named_rowsets(self):
        ds = PassThroughDataSource(lambda t: None)
        ds.initialize()
        with pytest.raises(ProviderError):
            ds.create_session().open_rowset("x")


class TestSqlServerProvider:
    def _pair(self):
        backend = ServerInstance("be")
        backend.execute("CREATE TABLE t (id int PRIMARY KEY, v varchar(10))")
        backend.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        ds = SqlServerDataSource(backend)
        ds.initialize()
        return backend, ds

    def test_full_interface_surface(self):
        __, ds = self._pair()
        assert ds.supports_interface(ICOMMAND)
        assert ds.supports_interface(IROWSET_INDEX)

    def test_command_roundtrip(self):
        __, ds = self._pair()
        cmd = ds.create_session().create_command()
        cmd.set_text("SELECT v FROM t WHERE id = 2")
        assert cmd.execute().fetch_all() == [("b",)]

    def test_command_with_parameters(self):
        __, ds = self._pair()
        cmd = ds.create_session().create_command()
        cmd.set_text("SELECT v FROM t WHERE id = ?")
        cmd.bind_parameters([1])
        assert cmd.execute().fetch_all() == [("a",)]

    def test_parameter_count_mismatch(self):
        __, ds = self._pair()
        cmd = ds.create_session().create_command()
        cmd.set_text("SELECT v FROM t WHERE id = ?")
        cmd.bind_parameters([1, 2])
        with pytest.raises(ProviderError, match="markers"):
            cmd.execute()

    @pytest.mark.parametrize(
        "text, values, expected",
        [
            # a ? inside a literal is text, not a marker
            ("SELECT id FROM t WHERE v <> 'a?' AND id = ?", [2], [(2,)]),
            ("SELECT id FROM t WHERE v <> '?' AND id = ?", [1], [(1,)]),
            # an escaped quote does not end the literal early
            ("SELECT id FROM t WHERE v <> 'it''s ?' AND id = ?", [1], [(1,)]),
            ("SELECT id FROM t WHERE v <> ? AND v <> 'x''?'", ["a"], [(2,)]),
            # nor is one inside a bracketed name or a comment
            ("SELECT id AS [id?] FROM t WHERE id = ? -- ?", [2], [(2,)]),
            ("SELECT id FROM t /* ? */ WHERE id = ?", [1], [(1,)]),
        ],
    )
    def test_markers_are_what_the_lexer_says(self, text, values, expected):
        __, ds = self._pair()
        cmd = ds.create_session().create_command()
        cmd.set_text(text)
        cmd.bind_parameters(values)
        assert cmd.execute().fetch_all() == expected
        # a second value has no marker to go to
        cmd.bind_parameters(values + [0])
        with pytest.raises(ProviderError, match="1 parameter markers but 2"):
            cmd.execute()

    def test_rendered_text_is_the_wire_charge(self):
        backend = ServerInstance("be")
        backend.execute("CREATE TABLE t (id int, v varchar(10))")
        channel = NetworkChannel("ch", latency_ms=1)
        ds = SqlServerDataSource(backend, channel=channel)
        ds.initialize()
        cmd = ds.create_session().create_command()
        cmd.set_text("SELECT id FROM t WHERE v = 'a?' AND v <> ? AND id > ?")
        cmd.bind_parameters(["it's", 12345])
        cmd.execute().fetch_all()
        rendered = "SELECT id FROM t WHERE v = 'a?' AND v <> 'it''s' AND id > 12345"
        assert channel.stats.bytes_sent == len(rendered)
        # what the backend ran is the marker text, not the rendering
        assert cmd.text in backend.query_stats
        assert rendered not in backend.query_stats

    def test_describe_binds_without_running(self):
        __, ds = self._pair()
        cmd = ds.create_session().create_command()
        cmd.set_text("SELECT v, id FROM t")
        schema = cmd.describe()
        assert schema.names == ("v", "id")

    def test_channel_accounting_on_remote_execution(self):
        backend = ServerInstance("be")
        backend.execute("CREATE TABLE t (id int)")
        backend.execute("INSERT INTO t VALUES (1), (2), (3)")
        channel = NetworkChannel("ch", latency_ms=1)
        ds = SqlServerDataSource(backend, channel=channel)
        ds.initialize()
        cmd = ds.create_session().create_command()
        cmd.set_text("SELECT id FROM t")
        rows = cmd.execute().fetch_all()
        assert len(rows) == 3
        assert channel.stats.bytes_sent > 0      # the SQL text
        assert channel.stats.bytes_received == 12  # 3 ints

    def test_transaction_branch_rolls_back_backend(self):
        backend, ds = self._pair()
        session = ds.create_session()
        txn = session.begin_transaction()
        cmd = session.create_command()
        cmd.set_text("INSERT INTO t VALUES (3, 'c')")
        cmd.execute()
        assert backend.execute("SELECT COUNT(*) FROM t").scalar() == 3
        txn.abort()
        assert backend.execute("SELECT COUNT(*) FROM t").scalar() == 2
