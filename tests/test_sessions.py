"""Multi-session engine + shared plan cache: the concurrency battery.

One engine, many sessions, many threads.  The battery hammers the
shared compiled-plan cache with a mixed statement stream and checks the
four properties a session layer must hold under concurrency:

* **row correctness** — every statement returns exactly what a serial
  single-user engine returns, regardless of interleaving;
* **setting isolation** — ``SET PARALLEL_DOP`` / ``SET
  PARTIAL_RESULTS`` on one session never leak into another session,
  the default session, or the engine singletons (and a failed ``SET``
  leaves its session untouched);
* **exactly-once breaker trips** — N sessions discovering the same
  dead server concurrently trip its circuit breaker once, not N times;
* **trace attribution** — concurrent statements produce traces whose
  spans and network attribution belong to their own session only;
* **network attribution** — ``QueryResult.network`` and the
  ``remote_command`` span counters are the statement's own, whatever
  other sessions push through the same channels meanwhile — and so is
  the traffic that counts as circuit-breaker success evidence.

Thread interleavings are randomized by ``SESSIONS_SCHED_SEED`` (CI
repeats the battery under several seeds); every failure message names
the seed so a bad interleaving reproduces with::

    SESSIONS_SCHED_SEED=<n> pytest tests/test_sessions.py
"""

import os
import random
import sys
import threading
import traceback

import pytest

from repro import Engine, FaultInjector, NetworkChannel, ServerInstance
from repro.errors import ServerUnavailableError, SqlError
from repro.resilience.health import OPEN

pytestmark = pytest.mark.integration

#: thread-scheduling randomization seed (varied across CI repeats)
SCHED_SEED = int(os.environ.get("SESSIONS_SCHED_SEED", "0"))


# ----------------------------------------------------------------------
# topology: one local table + two remote servers
# ----------------------------------------------------------------------
def build_engine(tracing: bool = False) -> Engine:
    local = Engine("local")
    local.execute("CREATE TABLE lt (id int, grp varchar(5), v int)")
    local.execute(
        "INSERT INTO lt VALUES "
        + ", ".join(
            f"({i}, '{'abc'[i % 3]}', {i * 7 % 23})" for i in range(30)
        )
    )
    for name, base in (("east", 100), ("west", 200)):
        server = ServerInstance(name)
        server.execute("CREATE TABLE rt (id int, grp varchar(5), v int)")
        server.execute(
            "INSERT INTO rt VALUES "
            + ", ".join(
                f"({base + i}, '{'xyz'[i % 3]}', {i * 5 % 19})"
                for i in range(25)
            )
        )
        local.add_linked_server(
            name,
            server,
            NetworkChannel(f"ch-{name}", latency_ms=0.5, mb_per_second=50),
        )
    if tracing:
        local.tracing_enabled = True
    return local


#: the mixed statement pool: local, remote, join, aggregate, TOP —
#: all read-only so any interleaving must reproduce the serial answers
STATEMENTS = (
    "SELECT * FROM lt WHERE v > 5",
    "SELECT grp, COUNT(*) FROM lt GROUP BY grp",
    "SELECT id, v FROM east.master.dbo.rt WHERE v < 10",
    "SELECT COUNT(*) FROM west.master.dbo.rt WHERE grp = 'x'",
    "SELECT l.id, r.v FROM lt l, east.master.dbo.rt r WHERE l.v = r.v",
    "SELECT e.id FROM east.master.dbo.rt e WHERE e.grp = 'y' ORDER BY e.id",
    "SELECT TOP 5 id, v FROM west.master.dbo.rt ORDER BY v DESC, id",
)


def _run_threads(workers):
    threads = [
        threading.Thread(target=worker, name=f"battery-{i}")
        for i, worker in enumerate(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "battery deadlocked"


# ----------------------------------------------------------------------
# the battery: N sessions x M mixed statements vs a serial reference
# ----------------------------------------------------------------------
class TestConcurrencyBattery:
    N_SESSIONS = 6
    STATEMENTS_EACH = 24

    def test_mixed_battery_matches_serial_reference(self):
        reference = build_engine()
        expected = {
            sql: sorted(reference.execute(sql).rows) for sql in STATEMENTS
        }

        engine = build_engine()
        barrier = threading.Barrier(self.N_SESSIONS)
        failures: list = []

        def make_worker(index: int):
            def worker():
                rng = random.Random((SCHED_SEED << 16) ^ index)
                session = engine.create_session(f"w{index}")
                dop = rng.choice((1, 2, 4))
                session.execute(f"SET PARALLEL_DOP {dop}")
                barrier.wait()
                for __ in range(self.STATEMENTS_EACH):
                    sql = rng.choice(STATEMENTS)
                    try:
                        result = session.execute(sql)
                    except Exception:  # noqa: BLE001
                        failures.append(
                            (SCHED_SEED, index, sql, traceback.format_exc())
                        )
                        return
                    if sorted(result.rows) != expected[sql]:
                        failures.append(
                            (SCHED_SEED, index, sql, "rows diverged")
                        )
                    if result.session_id != session.session_id:
                        failures.append(
                            (SCHED_SEED, index, sql, "foreign session_id")
                        )
                    if rng.random() < 0.25:
                        dop = rng.choice((1, 2, 4))
                        session.execute(f"SET PARALLEL_DOP {dop}")
                if session.parallel_dop != dop:
                    failures.append(
                        (SCHED_SEED, index, "SET", "session DOP drifted")
                    )

            return worker

        _run_threads([make_worker(i) for i in range(self.N_SESSIONS)])
        assert not failures, (
            f"seed {SCHED_SEED} (repro: SESSIONS_SCHED_SEED={SCHED_SEED} "
            f"pytest tests/test_sessions.py): {failures[:5]}"
        )

        # the shared cache carried the battery: one compile per distinct
        # statement shape, everything else a hit
        cache = engine.plan_cache
        assert cache.hits > 0
        total = cache.hits + cache.misses
        assert cache.hits / total > 0.5, (cache.hits, cache.misses)

        # nothing leaked into the engine-level (default session) API
        assert engine.parallel_dop == 1
        assert engine.optimizer.parallel_dop == 1
        assert not engine.partial_results

    def test_eight_sessions_share_one_text(self):
        """Eight sessions hammer one parameterized remote read, each
        with its own values and DOP: every answer is its own, and the
        text was parsed into one AST — on the coordinator and on the
        member, which saw one marker text — that nobody wrote to."""
        sql = "SELECT id, v FROM east.master.dbo.rt WHERE id >= @a AND v < @b"
        reference = build_engine()
        expected = {
            (a, b): sorted(reference.execute(sql, {"a": a, "b": b}).rows)
            for a in range(100, 125, 3) for b in (5, 10, 19)
        }
        engine = build_engine()
        east = engine.linked_server("east").datasource.backend
        n_sessions, failures = 8, []
        barrier = threading.Barrier(n_sessions)

        def make_worker(index: int):
            def worker():
                rng = random.Random((SCHED_SEED << 16) ^ index)
                session = engine.create_session(f"w{index}")
                session.execute(f"SET PARALLEL_DOP {rng.choice((1, 2, 4))}")
                barrier.wait()
                for __ in range(40):
                    (a, b), rows = rng.choice(sorted(expected.items()))
                    try:
                        got = session.execute(sql, {"a": a, "b": b}).rows
                    except Exception:  # noqa: BLE001
                        failures.append(
                            (SCHED_SEED, index, traceback.format_exc())
                        )
                        return
                    if sorted(got) != rows:
                        failures.append((SCHED_SEED, index, (a, b), got))

            return worker

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _run_threads([make_worker(i) for i in range(n_sessions)])
        finally:
            sys.setswitchinterval(interval)
        assert not failures, (
            f"seed {SCHED_SEED} (repro: SESSIONS_SCHED_SEED={SCHED_SEED} "
            f"pytest tests/test_sessions.py): {failures[:5]}"
        )
        from repro.sql.parser import parse_sql

        for server in (engine, east):
            assert len(server.statement_cache) <= server.statement_cache.capacity
        shared = engine.statement_cache.get(sql, None).statement
        assert repr(shared) == repr(parse_sql(sql))
        shipped = [t for t in east.query_stats if "?" in t]
        assert len(shipped) == 1
        assert east.query_stats[shipped[0]].execution_count == 8 * 40
        assert repr(east.statement_cache.get(shipped[0], None).statement) == repr(
            parse_sql(shipped[0])
        )
        # racing first executions may each compile; nobody else does
        assert east.plan_cache.misses <= n_sessions

    def test_sessions_appear_in_dmv(self):
        engine = build_engine()
        engine.create_session("alpha")
        engine.create_session("beta")
        rows = engine.execute(
            "SELECT name FROM sys.dm_exec_sessions"
        ).rows
        names = {row[0] for row in rows}
        assert {"default", "alpha", "beta"} <= names


# ----------------------------------------------------------------------
# setting isolation (including the failed-SET atomicity regression)
# ----------------------------------------------------------------------
class TestSettingIsolation:
    def test_settings_do_not_leak_between_sessions(self):
        engine = build_engine()
        a = engine.create_session("a")
        b = engine.create_session("b")
        a.execute("SET PARALLEL_DOP 4")
        b.execute("SET PARTIAL_RESULTS ON")
        assert a.parallel_dop == 4 and not a.partial_results
        assert b.parallel_dop == 1 and b.partial_results
        # the engine-level properties mirror the *default* session only
        assert engine.parallel_dop == 1
        assert not engine.partial_results

    def test_engine_level_set_is_the_default_session(self):
        engine = build_engine()
        engine.execute("SET PARALLEL_DOP 2")
        assert engine.parallel_dop == 2
        assert engine.optimizer.parallel_dop == 2
        # sessions minted afterwards still start from the defaults
        assert engine.create_session().parallel_dop == 1

    def test_failed_set_leaves_session_unchanged(self):
        # regression: SET used to write through to the engine singleton,
        # so a failed SET left half-applied state visible to everyone
        engine = build_engine()
        session = engine.create_session()
        session.execute("SET PARALLEL_DOP 4")
        with pytest.raises(SqlError):
            session.execute("SET PARALLEL_DOP 0")
        assert session.parallel_dop == 4
        assert engine.parallel_dop == 1
        assert engine.optimizer.parallel_dop == 1

    def test_session_dop_never_sticks_to_the_optimizer(self):
        # compiling under a session's DOP must restore the optimizer's
        # own setting afterwards (mid-query mutation rollback)
        engine = build_engine()
        session = engine.create_session()
        session.execute("SET PARALLEL_DOP 4")
        session.execute("SELECT id, v FROM east.master.dbo.rt WHERE v < 10")
        assert engine.optimizer.parallel_dop == 1
        assert engine.parallel_dop == 1

    def test_partial_results_session_bypasses_the_plan_cache(self):
        engine = build_engine()
        sql = "SELECT id, v FROM east.master.dbo.rt WHERE v < 10"
        assert engine.execute(sql).plan_cache_status == "miss"
        assert engine.execute(sql).plan_cache_status == "hit"
        degraded = engine.create_session("degraded")
        degraded.execute("SET PARTIAL_RESULTS ON")
        # a may-be-partial answer must never be cached nor served from
        # the cache (its plan shape depends on member health)
        assert degraded.execute(sql).plan_cache_status is None

    def test_transactions_are_per_session(self):
        engine = build_engine()
        writer = engine.create_session("writer")
        reader = engine.create_session("reader")
        writer.begin_transaction()
        writer.execute("INSERT INTO lt VALUES (999, 'z', 1)")
        writer.abort()
        rows = reader.execute("SELECT COUNT(*) FROM lt WHERE id = 999").rows
        assert rows == [(0,)]
        assert writer.txn is None


# ----------------------------------------------------------------------
# exactly-once breaker trips under concurrent discovery
# ----------------------------------------------------------------------
class TestBreakerExactlyOnce:
    N_SESSIONS = 4

    def test_concurrent_sessions_trip_the_breaker_once(self):
        engine = build_engine()
        # a long open interval so statement ticks can't half-open the
        # breaker mid-test (set before the breaker is minted)
        engine.health.open_interval_ms = 1e9
        engine.execute("SELECT id FROM east.master.dbo.rt")  # warm + cache
        engine.linked_server("east").channel.fault_injector = FaultInjector(
            seed=1, down=True
        )

        barrier = threading.Barrier(self.N_SESSIONS)
        outcomes: list = []

        def make_worker(index: int):
            def worker():
                session = engine.create_session(f"b{index}")
                barrier.wait()
                try:
                    session.execute("SELECT id FROM east.master.dbo.rt")
                except ServerUnavailableError:
                    outcomes.append("unavailable")
                except Exception as error:  # noqa: BLE001
                    outcomes.append(repr(error))
                else:
                    outcomes.append("rows-from-a-dead-server")

            return worker

        _run_threads([make_worker(i) for i in range(self.N_SESSIONS)])
        # every session saw the unavailability as such...
        assert outcomes == ["unavailable"] * self.N_SESSIONS, outcomes
        # ...but the shared breaker tripped exactly once
        breaker = engine.health.breaker("east")
        assert breaker.state == OPEN
        assert breaker.trip_count == 1


# ----------------------------------------------------------------------
# trace attribution: spans never cross session boundaries
# ----------------------------------------------------------------------
class TestTraceIsolation:
    #: one distinct statement per session, with its expected remote set
    PER_SESSION = (
        ("SELECT id, v FROM east.master.dbo.rt WHERE v < 10", {"east"}),
        ("SELECT COUNT(*) FROM west.master.dbo.rt WHERE grp = 'x'", {"west"}),
        ("SELECT grp, COUNT(*) FROM lt GROUP BY grp", set()),
        ("SELECT e.id FROM east.master.dbo.rt e WHERE e.grp = 'y' "
         "ORDER BY e.id", {"east"}),
    )

    def test_concurrent_traces_stay_per_session(self):
        # serial reference: per-statement simulated network attribution
        # on a warm (cache-hit) execution
        reference = build_engine(tracing=True)
        ref_net = {}
        for sql, __ in self.PER_SESSION:
            reference.execute(sql)  # warm metadata + plan cache
            trace = reference.execute(sql).trace
            ref_net[sql] = trace.spans("execute")[0].net_ms

        engine = build_engine(tracing=True)
        for sql, __ in self.PER_SESSION:
            engine.execute(sql)  # warm through the default session

        barrier = threading.Barrier(len(self.PER_SESSION))
        collected: dict = {}

        def make_worker(index: int, sql: str):
            def worker():
                session = engine.create_session(f"t{index}")
                barrier.wait()
                traces = [session.execute(sql).trace for __ in range(6)]
                collected[session.session_id] = (sql, traces)

            return worker

        _run_threads(
            [
                make_worker(i, sql)
                for i, (sql, __) in enumerate(self.PER_SESSION)
            ]
        )

        servers_for = dict(self.PER_SESSION)
        assert len(collected) == len(self.PER_SESSION)
        for session_id, (sql, traces) in collected.items():
            for trace in traces:
                # the trace is stamped with its own session...
                assert trace.session_id == session_id
                # ...its remote spans only touch that statement's servers
                touched = {
                    span.attrs["server"]
                    for span in trace.remote_command_spans()
                }
                assert touched == servers_for[sql], (sql, touched)
                # ...and its network attribution equals the serial
                # reference: nothing from a concurrent session bled in
                execute_span = trace.spans("execute")[0]
                assert execute_span.net_ms == pytest.approx(
                    ref_net[sql], abs=1e-6
                ), (sql, execute_span.net_ms, ref_net[sql])


# ----------------------------------------------------------------------
# network attribution: a statement reports its own traffic, exactly
# ----------------------------------------------------------------------
_COUNTS = ("round_trips", "bytes_sent", "bytes_received")


def _counts(network: dict) -> dict:
    return {
        server: tuple(stats[key] for key in _COUNTS)
        for server, stats in network.items()
    }


class TestNetworkAttribution:
    """Channels are shared by every session, so ``QueryResult.network``
    and the ``remote_command`` span counters must come from the
    statement's own ledger, never from a diff of the shared totals."""

    LOCAL_STATEMENTS = 1200
    LOCAL = tuple(sql for sql in STATEMENTS if "master.dbo" not in sql)
    REMOTE = tuple(
        sql for sql in STATEMENTS if "master.dbo" in sql and " lt " not in sql
    )

    def test_local_statements_report_no_remote_traffic(self):
        reference = build_engine()
        serial = {}
        for sql in self.REMOTE:
            reference.execute(sql)  # warm metadata + plan cache
            serial[sql] = _counts(reference.execute(sql).network)

        engine = build_engine()
        for sql in self.REMOTE + self.LOCAL:
            engine.execute(sql)
        rng = random.Random(SCHED_SEED)
        local_session = engine.create_session("local-only")
        remote_session = engine.create_session("remote")
        local_done = threading.Event()
        leaked: list = []
        diverged: list = []

        def local_worker():
            try:
                for i in range(self.LOCAL_STATEMENTS):
                    sql = self.LOCAL[i % len(self.LOCAL)]
                    network = local_session.execute(sql).network
                    if network != {}:
                        leaked.append((i, sql, network))
            finally:
                local_done.set()

        def remote_worker():
            ran = 0
            while not local_done.is_set() or ran < 50:
                sql = rng.choice(self.REMOTE)
                counts = _counts(remote_session.execute(sql).network)
                if counts != serial[sql]:
                    diverged.append((sql, counts, serial[sql]))
                ran += 1

        _run_threads([local_worker, remote_worker])
        assert not leaked, (
            f"seed {SCHED_SEED}: {len(leaked)} of {self.LOCAL_STATEMENTS} "
            f"local statements reported remote traffic, first {leaked[0]}"
        )
        assert not diverged, (SCHED_SEED, len(diverged), diverged[0])

    def test_parallel_span_round_trips_add_up_to_the_statement(self):
        # four PV members, two per server: at DOP 4 the branches of one
        # statement share each server's channel with each other and
        # with a concurrent session reading the same servers
        local = Engine("local")
        servers = {name: ServerInstance(name) for name in ("fed0", "fed1")}
        for name, server in servers.items():
            local.add_linked_server(
                name, server, NetworkChannel(f"ch-{name}", latency_ms=0.5)
            )
        branches = []
        for index in range(4):
            name = f"fed{index % 2}"
            member = servers[name]
            low, high = index * 100, index * 100 + 99
            member.execute(
                f"CREATE TABLE part_{index} (k int NOT NULL CHECK "
                f"(k >= {low} AND k <= {high}), v int)"
            )
            member.execute(
                f"INSERT INTO part_{index} VALUES "
                + ", ".join(f"({low + i}, {i})" for i in range(40))
            )
            branches.append(f"SELECT * FROM {name}.master.dbo.part_{index}")
        local.execute("CREATE VIEW parts AS " + " UNION ALL ".join(branches))
        local.tracing_enabled = True
        reader = local.create_session("pv-reader")
        reader.execute("SET PARALLEL_DOP 4")
        sql = "SELECT k, v FROM parts"
        assert reader.execute(sql).dop > 1  # warm, and really parallel
        other = local.create_session("other")
        other_sql = "SELECT COUNT(*) FROM fed0.master.dbo.part_0"
        other.execute(other_sql)
        reader_done = threading.Event()
        mismatches: list = []

        def reader_worker():
            try:
                for __ in range(40):
                    result = reader.execute(sql)
                    spans: dict = {}
                    for span in result.trace.remote_command_spans():
                        server = span.attrs["server"]
                        spans[server] = (
                            spans.get(server, 0) + span.attrs["round_trips"]
                        )
                    charged = {
                        server: stats["round_trips"]
                        for server, stats in result.network.items()
                    }
                    if spans != charged or len(result.rows) != 160:
                        mismatches.append((spans, charged))
            finally:
                reader_done.set()

        def other_worker():
            while not reader_done.is_set():
                other.execute(other_sql)

        _run_threads([reader_worker, other_worker])
        assert not mismatches, (SCHED_SEED, len(mismatches), mismatches[0])


class TestBreakerEvidenceIsPerSession:
    """``run_with_retry`` counts a call as breaker *success* evidence
    only when the call itself produced traffic.  The channel is shared,
    so "itself" has to mean the caller's own ledger row: a diff of the
    channel totals lets any other session's round trips turn a free
    metadata ping into proof of health, and a hung member's failure
    streak would never reach the threshold."""

    def test_free_ping_is_no_success_while_another_session_talks(self):
        from repro.errors import NetworkError
        from repro.network import StatementLedger, bind_ledger

        engine = build_engine()
        server = engine.linked_server("east")
        breaker = engine.health.breaker("east")
        for _ in range(breaker.failure_threshold - 1):
            breaker.record_failure(NetworkError("hung"), server.channel)
        streak = breaker.consecutive_failures
        successes = []
        record_success = breaker.record_success
        breaker.record_success = lambda channel=None: (
            successes.append(threading.current_thread().name),
            record_success(channel),
        )

        pinging = threading.Event()
        charged = threading.Event()

        def other_session():
            # thread B: real traffic on the shared channel, while A is
            # inside its (free) remote operation
            assert pinging.wait(timeout=30)
            server.channel.send_command("SELECT 1")
            charged.set()

        def free_ping():
            pinging.set()
            assert charged.wait(timeout=30)
            return "pong"

        other = threading.Thread(target=other_session, name="session-b")
        other.start()
        try:
            with bind_ledger(StatementLedger()) as ledger:
                trips_before = server.channel.stats.round_trips
                assert server.run_with_retry(free_ping) == "pong"
                # B's round trip is on the channel, not on A's ledger
                assert server.channel.stats.round_trips == trips_before + 1
                assert ledger.on(server.channel).round_trips == 0
        finally:
            other.join(timeout=30)
        assert not other.is_alive()
        assert successes == []
        assert breaker.consecutive_failures == streak


class TestCoordinatorThreadSafety:
    """begin()/commit()/abort() racing across sessions: unique txn ids,
    exactly-once outcome counters, and an intact registry."""

    N_THREADS = 8
    TXNS_PER_THREAD = 40

    def test_concurrent_begin_commit_abort_exactly_once(self):
        from repro.dtc.coordinator import TransactionCoordinator

        class NoopRM:
            def prepare(self):
                return True

            def commit(self):
                pass

            def abort(self):
                pass

        dtc = TransactionCoordinator()
        barrier = threading.Barrier(self.N_THREADS)
        ids: dict = {}

        def worker_for(index: int):
            def worker():
                rng = random.Random(index)
                minted = []
                barrier.wait()
                for __ in range(self.TXNS_PER_THREAD):
                    txn = dtc.begin()
                    minted.append(txn.txn_id)
                    txn.enlist(f"rm-{index}", NoopRM())
                    if rng.random() < 0.5:
                        dtc.commit(txn)
                    else:
                        dtc.abort(txn)
                        dtc.abort(txn)  # double abort must not recount
                ids[index] = minted

            return worker

        _run_threads([worker_for(i) for i in range(self.N_THREADS)])

        total = self.N_THREADS * self.TXNS_PER_THREAD
        all_ids = [txn_id for minted in ids.values() for txn_id in minted]
        assert len(all_ids) == total
        assert len(set(all_ids)) == total, "duplicate transaction ids"
        assert dtc.committed_count + dtc.aborted_count == total
        assert not list(dtc.active_transactions)
        assert not dtc.has_in_doubt()
