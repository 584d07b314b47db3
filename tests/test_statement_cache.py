"""The statement cache's contract: a server parses a text once, a
member plans a shipped text once whatever values follow it, view bodies
are parsed at CREATE VIEW, and the cached AST is never written to.

Counts are taken by patching the functions where the engine looks them
up; nothing here measures time.
"""

from collections import Counter

import pytest

from repro import Engine, NetworkChannel, OptimizerOptions, ServerInstance
from repro import engine as engine_module
from repro.core import physical as P
from repro.core.optimizer import Optimizer
from repro.engine import _HANDLERS
from repro.errors import ReproError
from repro.execution import plancache
from repro.observability import querystore
from repro.oledb import command
from repro.sql import ast, parser


# ----------------------------------------------------------------------
# counting by patching
# ----------------------------------------------------------------------
@pytest.fixture
def calls(monkeypatch):
    """Counter of front-end calls by function name, plus the texts
    ``parse_sql`` was handed (``calls.parsed``)."""
    counts = Counter()
    counts.parsed = []

    def counted(name, fn, record=None):
        def wrapper(text, *args, **kwargs):
            counts[name] += 1
            if record is not None:
                record.append(text)
            return fn(text, *args, **kwargs)

        return wrapper

    parse = counted("parse_sql", engine_module.parse_sql, counts.parsed)
    monkeypatch.setattr(engine_module, "parse_sql", parse)
    lex = counted("tokenize_sql", parser.tokenize_sql)
    monkeypatch.setattr(parser, "tokenize_sql", lex)
    monkeypatch.setattr(command, "tokenize_sql", lex)
    normalize = counted(
        "normalize_query_text", querystore.normalize_query_text
    )
    monkeypatch.setattr(querystore, "normalize_query_text", normalize)
    monkeypatch.setattr(plancache, "normalize_query_text", normalize)
    return counts


def optimize_calls(monkeypatch, server):
    """A list that grows by one per ``Optimizer.optimize`` on ``server``."""
    seen = []
    optimize = Optimizer.optimize

    def counting(self, *args, **kwargs):
        if self is server.optimizer:
            seen.append(1)
        return optimize(self, *args, **kwargs)

    monkeypatch.setattr(Optimizer, "optimize", counting)
    return seen


@pytest.fixture
def pair():
    """Coordinator + one member holding ``d(k PRIMARY KEY, v)``."""
    local, remote = Engine("local"), ServerInstance("r1")
    remote.execute("CREATE TABLE d (k int PRIMARY KEY, v varchar(10))")
    table = remote.catalog.database().table("d")
    for i in range(2000):
        table.insert((i, f"v{i}"))
    local.add_linked_server(
        "r1", remote, NetworkChannel("c", latency_ms=1, mb_per_second=5)
    )
    return local, remote


def federation():
    """Coordinator with a partitioned view ``pv`` over two members."""
    coordinator = Engine("coord")
    members = []
    for m, (low, high) in enumerate(((0, 10), (10, 20))):
        member = ServerInstance(f"m{m}")
        member.execute(
            f"CREATE TABLE part_{m} (k int NOT NULL "
            f"CHECK (k >= {low} AND k < {high}), v int)"
        )
        coordinator.add_linked_server(
            f"m{m}", member, NetworkChannel(f"ch{m}", latency_ms=1)
        )
        members.append(member)
    coordinator.execute(
        "CREATE VIEW pv AS SELECT * FROM m0.master.dbo.part_0 "
        "UNION ALL SELECT * FROM m1.master.dbo.part_1"
    )
    return coordinator, members


# ----------------------------------------------------------------------
# parse once, prepare once
# ----------------------------------------------------------------------
class TestParseOnce:
    def test_second_execution_skips_the_front_end_on_both_sides(
        self, pair, calls
    ):
        local, remote = pair
        sql = "SELECT d.v FROM r1.master.dbo.d d WHERE d.k = @k"
        first = local.execute(sql, params={"k": 3})
        assert first.rows == [("v3",)]
        # the first execution parsed two texts: this one, the shipped one
        assert calls["parse_sql"] == 2
        assert len(remote.statement_cache) == 2  # CREATE TABLE + the shipped text
        calls.clear()
        second = local.execute(sql, params={"k": 4})
        assert second.rows == [("v4",)]
        assert second.plan_cache_status == "hit"
        assert dict(calls) == {}, "a warm statement reached the front end"

    def test_member_plans_a_parameterized_read_once(self, pair):
        local, remote = pair
        sql = "SELECT d.v FROM r1.master.dbo.d d WHERE d.k = @k"
        for k in range(50):
            assert local.execute(sql, params={"k": k}).rows == [(f"v{k}",)]
        assert remote.plan_cache.misses == 1
        assert remote.plan_cache.hits == 49
        # one marker text on the member, not fifty literal texts
        shipped = [t for t in remote.query_stats if t.startswith("SELECT")]
        assert len(shipped) == 1 and "?" in shipped[0]
        assert remote.query_stats[shipped[0]].execution_count == 50

    def test_parameterized_join_optimizes_on_the_member_once(
        self, pair, monkeypatch
    ):
        local, remote = pair
        local.execute("CREATE TABLE f (k int)")
        local.execute(
            "INSERT INTO f VALUES "
            + ", ".join(f"({i % 6})" for i in range(30))
        )
        local.optimizer.options = OptimizerOptions(enable_remote_query=False)
        seen = optimize_calls(monkeypatch, remote)
        result = local.execute(
            "SELECT d.v FROM f, r1.master.dbo.d d WHERE f.k = d.k"
        )
        assert any(
            isinstance(n, P.ParameterizedRemoteJoin)
            for n in result.plan.walk()
        )
        assert sorted(result.rows) == sorted(
            (f"v{i % 6}",) for i in range(30)
        )
        # six distinct keys, six probes, one compilation
        assert result.context.remote_queries_executed == 6
        assert len(seen) == 1

    def test_pv_writes_parse_only_their_own_text(self, calls):
        coordinator, members = federation()
        coordinator.execute("SELECT * FROM pv")  # warm remote metadata
        calls.clear()
        del calls.parsed[:]
        insert = "INSERT INTO pv VALUES (3, 30)"
        coordinator.execute(insert)
        # the statement, and the one member it routed to parsing what
        # it was shipped — never the view body
        assert calls.parsed[0] == insert and len(calls.parsed) == 2
        assert calls.parsed[1].startswith("INSERT INTO master.dbo.part_0")
        del calls.parsed[:]
        update = "UPDATE pv SET v = 31 WHERE k = 3"
        coordinator.execute(update)
        assert calls.parsed[0] == update and len(calls.parsed) == 3
        assert all(t.startswith("UPDATE master.dbo.part_") for t in calls.parsed[1:])
        assert members[0].execute("SELECT v FROM part_0").rows == [(31,)]

    def test_view_bodies_are_parsed_at_create_view(self, calls):
        engine = Engine("local")
        engine.execute("CREATE TABLE t (id int, v int)")
        engine.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        engine.execute("CREATE VIEW big AS SELECT id FROM t WHERE v > 15")
        view = engine.catalog.database().view("big")
        assert isinstance(view.select, ast.SelectStmt)
        calls.clear()
        assert engine.execute("SELECT * FROM big").rows == [(2,)]
        assert engine.execute("SELECT id FROM big WHERE id > 0").rows == [(2,)]
        assert calls["parse_sql"] == 2  # the two statements themselves
        assert calls["tokenize_sql"] == 2

    def test_positional_values_bind_markers_in_order(self):
        engine = Engine("local")
        engine.execute("CREATE TABLE t (id int, v varchar(5))")
        engine.execute("INSERT INTO t VALUES (1, 'a?'), (2, 'b')")
        sql = "SELECT id FROM t WHERE v <> ? AND v <> 'a?' AND id < ?"
        assert engine.execute(sql, ["z", 9]).rows == [(2,)]
        assert engine.execute(sql, ("b", 9)).rows == []
        with pytest.raises(ReproError, match=r"parameter \?1 not supplied"):
            engine.execute(sql, ["z"])


class TestBound:
    def test_cache_never_exceeds_its_bound(self):
        engine = Engine("local")
        engine.execute("CREATE TABLE t (id int)")
        bound = engine.statement_cache.capacity
        assert bound == engine.plan_cache.capacity
        hot = "SELECT id FROM t"
        for i in range(1000):
            engine.execute(f"SELECT id FROM t WHERE id = {i}")
            if i % 50 == 0:
                engine.execute(hot)
            assert len(engine.statement_cache) <= bound
        assert len(engine.statement_cache) == bound
        # recency, not age, decides who goes: the hot text is still there
        assert engine.statement_cache.get(hot, None).text == hot

    def test_a_large_text_is_parsed_but_not_kept(self, calls):
        engine = Engine("local")
        engine.execute("CREATE TABLE t (id int, v varchar(40))")
        row = "'" + "x" * 36 + "'"
        big = "INSERT INTO t VALUES " + ", ".join(
            f"({i}, {row})" for i in range(22000)
        )
        assert len(big) > 1_000_000 > plancache.MAX_CACHED_TEXT
        before = len(engine.statement_cache)
        assert engine.execute(big).rowcount == 22000
        assert len(engine.statement_cache) == before
        assert all(len(t) <= plancache.MAX_CACHED_TEXT
                   for t in engine.statement_cache._entries)
        # a short text is still kept, and hit the second time
        short = "SELECT COUNT(*) FROM t"
        assert engine.execute(short).rows == [(22000,)]
        calls.clear()
        assert engine.execute(short).rows == [(22000,)]
        assert calls["parse_sql"] == 0


# ----------------------------------------------------------------------
# immutability: the AST every execution shares is never written to
# ----------------------------------------------------------------------
def dump(node):
    """A structural copy of an AST made of plain tuples."""
    if isinstance(node, ast.Node):
        return (
            type(node).__name__,
            tuple((k, dump(v)) for k, v in sorted(vars(node).items())),
        )
    if isinstance(node, (list, tuple)):
        return tuple(dump(item) for item in node)
    if isinstance(node, dict):
        return tuple(sorted((k, dump(v)) for k, v in node.items()))
    return node


#: one statement of every handler type, in an order that runs, plus a
#: view, a partitioned view, a scalar subquery and an INSERT..SELECT
SCRIPT = (
    "CREATE DATABASE side",
    "CREATE TABLE t (id int PRIMARY KEY, grp varchar(5), v int CHECK (v >= 0))",
    "CREATE TABLE t2 (id int, v int)",
    "CREATE TABLE doomed (id int)",
    "CREATE INDEX ix_v ON t (v)",
    "INSERT INTO t VALUES (1, 'a', 10), (2, 'b', 20), (@p, 'a', 30)",
    "CREATE TABLE m1 (k int NOT NULL CHECK (k >= 0 AND k < 10), v int)",
    "CREATE TABLE m2 (k int NOT NULL CHECK (k >= 10 AND k < 20), v int)",
    "CREATE VIEW big AS SELECT id, v FROM t WHERE v > 15",
    "CREATE VIEW pv AS SELECT * FROM m1 UNION ALL SELECT * FROM m2",
    "INSERT INTO pv VALUES (1, 1), (11, 2)",
    "SELECT id, v FROM big ORDER BY id",
    "SELECT k, v FROM pv WHERE k = @p",
    "SELECT id FROM t WHERE v > (SELECT MIN(v) FROM t) ORDER BY id",
    "SELECT grp, COUNT(*) FROM t GROUP BY grp",
    "INSERT INTO t2 SELECT id, v FROM t WHERE v >= @p",
    "UPDATE t SET v = v + 1 WHERE id = @p",
    "UPDATE pv SET v = v + @p WHERE k = 11",
    "DELETE FROM t2 WHERE id = @p",
    "SET PARALLEL_DOP 2",
    "EXPLAIN SELECT id FROM t WHERE v > 5",
    "DROP TABLE doomed",
)


def outcome(engine, session, sql, params):
    try:
        result = engine.execute(sql, params=params, session=session)
    except ReproError as error:
        return type(error).__name__
    if sql.startswith("EXPLAIN"):
        return len(result.rows) > 0
    return sorted(result.rows, key=repr), result.rowcount


class TestCachedAstIsImmutable:
    def test_script_covers_every_handler(self):
        parsed = {type(parser.parse_sql(sql)) for sql in SCRIPT}
        assert parsed == set(_HANDLERS)

    def test_three_executions_leave_the_ast_as_parsed(self):
        cached, uncached = Engine("cached"), Engine("uncached")
        sessions = {
            engine: [engine.create_session(f"s{i}") for i in range(3)]
            for engine in (cached, uncached)
        }
        for engine in (cached, uncached):
            for session, dop in zip(sessions[engine], (1, 2, 4)):
                session.execute(f"SET PARALLEL_DOP {dop}")
        for sql in SCRIPT:
            entry = cached._parsed(sql)
            before = dump(entry.statement)
            for run, p in enumerate((3, 11, 1)):
                uncached.statement_cache.clear()
                expected = outcome(
                    uncached, sessions[uncached][run], sql, {"p": p}
                )
                got = outcome(cached, sessions[cached][run], sql, {"p": p})
                assert got == expected, (sql, run)
            assert cached._parsed(sql) is entry, f"{sql!r} was parsed again"
            assert dump(entry.statement) == before, f"{sql!r} was mutated"
        # the views' bodies, shared by every statement that named them
        for name in ("big", "pv"):
            select = cached.catalog.database().view(name).select
            assert dump(select) == dump(
                parser.parse_sql(cached.catalog.database().view(name).sql_text)
            )
