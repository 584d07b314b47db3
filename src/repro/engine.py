"""The engine: a SQL Server instance with a built-in DHQP.

:class:`ServerInstance` is a complete mini SQL Server: catalog, SQL
front end, Cascades optimizer, execution engine, DML, linked servers,
and (optionally) an attached full-text service.  The same class serves
as the *local* engine of Figure 1 and as each simulated *remote* server
— a remote instance is simply another ServerInstance reachable only
through its OLE DB provider over a simulated network channel.

Typical use::

    engine = ServerInstance("local")
    engine.execute("CREATE TABLE t (id int PRIMARY KEY, name varchar(50))")
    engine.execute("INSERT INTO t VALUES (1, 'one')")
    remote = ServerInstance("remote0")
    engine.add_linked_server("remote0", remote,
                             NetworkChannel("wan", latency_ms=5))
    result = engine.execute(
        "SELECT * FROM remote0.master.dbo.customer c WHERE c.id = 3")
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from typing import Any, Callable, Dict, Iterator, Optional, Sequence

from repro import ddl
from repro.explain import explain
from repro.algebra.logical import LogicalOp
from repro.core.linked_server import LinkedServer
from repro.core.optimizer import OptimizationResult, Optimizer, OptimizerOptions
from repro.core.physical import PhysicalOp
from repro.dtc.coordinator import TransactionCoordinator
from repro.errors import (
    BindError,
    ExecutionError,
    SchemaValidationError,
    ServerUnavailableError,
    SqlError,
)
from repro.execution.context import ExecutionContext
from repro.execution.executor import execute_plan
from repro.execution.plancache import (
    CachedStatement,
    CompiledSelect,
    PlanCache,
    StatementCache,
    lookup_compiled,
    plan_references,
    statement_key,
    store_compiled,
)
from repro.federation import dml
from repro.fulltext.service import FullTextService
from repro.governor import ResourceGovernor
from repro.network.channel import NetworkChannel
from repro.network.ledger import StatementLedger, bind_ledger, current_ledger
from repro.observability.metrics import MetricsRegistry
from repro.observability.profile import PlanProfiler
from repro.observability.querystore import QueryStore
from repro.observability.statement import (
    QueryResult,
    record_statement,
    statement_network,
)
from repro.observability.trace import QueryTrace
from repro.observability.views import QueryStatsEntry, system_view
from repro.oledb.datasource import DataSource
from repro.oledb.rowset import MaterializedRowset, Rowset
from repro.providers.sqlserver import SqlServerDataSource
from repro.resilience.degrade import PartialResultsInfo, prune_unreachable_members
from repro.resilience.health import HealthRegistry
from repro.resilience.retry import QueryBudget, RetryPolicy
from repro.session import Session, StatementContext, apply_set
from repro.sql import ast
from repro.sql.binder import Binder, FullTextBinding
from repro.sql.lexer import marker_name
from repro.sql.parser import parse_sql
from repro.storage.catalog import Catalog, Database, DEFAULT_SCHEMA
from repro.storage.transactions import LocalTransaction
from repro.types.datatypes import SqlType, infer_type, varchar
from repro.types.schema import Column, Schema

__all__ = ["Engine", "QueryResult", "ServerInstance"]


class ServerInstance:
    """A complete server: storage + DHQP + execution."""

    def __init__(
        self,
        name: str = "local",
        optimizer_options: Optional[OptimizerOptions] = None,
        default_database: str = "master",
    ):
        self.name = name
        self.catalog = Catalog(default_database)
        self.linked_servers: Dict[str, LinkedServer] = {}
        self.optimizer = Optimizer({}, optimizer_options)
        self.fulltext_service: Optional[FullTextService] = None
        self._fulltext_bindings: Dict[tuple, FullTextBinding] = {}
        self._openrowset_providers: Dict[str, Callable[..., DataSource]] = {}
        self._maketable_providers: Dict[str, DataSource] = {}
        #: Halloween protection switch (E14 flips this off to show why
        #: the spool exists)
        self.halloween_protection = True
        #: always-on instrument registry (sys.dm_os_performance_counters)
        self.metrics = MetricsRegistry(name)
        #: structured tracing switch: off by default; when on, every
        #: execute() gets a QueryTrace with parse/bind/optimize/execute
        #: spans, rule firings and network attribution
        self.tracing_enabled = False
        #: per-operator profiling switch (EXPLAIN ANALYZE profiles
        #: regardless of this flag)
        self.profiling_enabled = False
        #: per-statement aggregates (sys.dm_exec_query_stats), bounded
        self.query_stats: Dict[str, QueryStatsEntry] = {}
        #: plan-level runtime history (sys.query_store_* views); off by
        #: default like tracing — when on, every SELECT's execution is
        #: attributed to (query hash, plan fingerprint) and plan pins
        #: are honored by the optimizer
        self.query_store = QueryStore()
        self.query_store_enabled = False
        self.optimizer.plan_pins = self.query_store.forced_plan_for
        #: per-query timeout budget in simulated network ms (None = off);
        #: when set, every statement gets a QueryBudget and remote
        #: traffic beyond it raises RemoteTimeoutError
        self.query_timeout_ms: Optional[float] = None
        #: per-linked-server circuit breakers on a simulated clock; the
        #: clock ticks once per statement so open breakers admit a
        #: half-open probe after a few statements rather than never
        self.health = HealthRegistry(name)
        self.optimizer.health = self.health
        #: the MS DTC role: crash-safe presumed-abort 2PC with a WAL on
        #: the health registry's simulated clock, so coordinator-log
        #: fsyncs and in-doubt ages share the engine's timeline
        self.dtc = TransactionCoordinator(
            name=f"{name}-dtc", clock=self.health.clock, metrics=self.metrics
        )
        #: one bounded re-optimize-and-replan after a mid-query
        #: ServerUnavailableError (the member's breaker has tripped by
        #: then, so the second plan routes around it)
        self.replan_on_failure = True
        #: sessions: every statement runs under exactly one.  The
        #: default session backs the single-user API (``execute``
        #: without an explicit session, plus the legacy
        #: ``engine.partial_results`` / ``engine.parallel_dop``
        #: attributes, which are now views over it).
        self._sessions_lock = threading.RLock()
        self._session_ids = itertools.count(1)
        self._sessions: Dict[int, Session] = {}
        self._default_session = self.create_session("default")
        #: shared compiled-plan cache: optimized SELECT plans keyed by
        #: normalized text × plan-affecting settings, validated against
        #: schema version / stats generation / breaker state at lookup
        self.plan_cache = PlanCache(metrics=self.metrics)
        self.plan_cache_enabled = True
        #: statement text -> parsed statement, probed before the lexer:
        #: this server parses a text once (each server its own texts —
        #: a member is another machine); as many texts as plans
        self.statement_cache = StatementCache(self.plan_cache.capacity)
        #: statistics epoch; bumped by refresh_statistics() so plans
        #: costed on stale statistics recompile
        self._stats_generation = 0
        #: serializes bind+optimize — the Cascades memo, the binder's
        #: column registry and the optimizer's per-query attributes are
        #: single-threaded machinery shared by every session
        self._compile_lock = threading.RLock()
        #: serializes local DML/DDL — the storage engine has no row
        #: latching, so writers take turns (readers run latch-free on
        #: materialized snapshots)
        self._write_lock = threading.RLock()
        #: guards the query_stats dict (shared DMV surface)
        self._stats_lock = threading.RLock()
        #: the Resource Governor: workload groups, memory grants and
        #: admission control.  Fresh engines run everything under the
        #: built-in ``default`` group on an unbounded pool, so the
        #: governor is a pass-through until pools/groups are created.
        self.governor = ResourceGovernor(
            self.health.clock, metrics=self.metrics
        )
        #: live exchange schedulers (for close(); workers register via
        #: ExecutionContext.scheduler_registry and are weakly held)
        self._schedulers: "weakref.WeakSet" = weakref.WeakSet()
        #: lifecycle: close() refuses new statements and drains these
        self._closed = False
        self._inflight = 0
        self._inflight_cond = threading.Condition()

    # ==================================================================
    # lifecycle
    # ==================================================================
    def close(self, timeout_s: float = 5.0) -> None:
        """Shut the engine down: refuse new statements, wait for
        in-flight ones to drain (up to ``timeout_s``), stop any
        exchange worker threads still alive, and drop the plan cache.
        Idempotent; execute() after close raises ExecutionError."""
        with self._inflight_cond:
            if self._closed:
                return
            self._closed = True
            deadline = time.monotonic() + timeout_s
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._inflight_cond.wait(timeout=remaining)
        for scheduler in list(self._schedulers):
            try:
                scheduler.shutdown()
            except Exception:
                pass
        self.plan_cache.clear()
        self.statement_cache.clear()
        self.metrics.set_gauge("engine.closed", 1.0)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ServerInstance":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @contextmanager
    def _in_flight(self) -> Iterator[None]:
        """One statement's stay: refused once closed, counted so that
        close() can wait for it."""
        with self._inflight_cond:
            if self._closed:
                raise ExecutionError(f"engine {self.name!r} is closed")
            self._inflight += 1
        try:
            yield
        finally:
            with self._inflight_cond:
                self._inflight = max(0, self._inflight - 1)
                self._inflight_cond.notify_all()

    # ==================================================================
    # sessions
    # ==================================================================
    def create_session(self, name: str = "") -> Session:
        """Mint an independent session: its settings (PARALLEL_DOP,
        PARTIAL_RESULTS, active txn) never leak into other
        sessions, so many threads can execute concurrently against
        this one engine (one statement at a time per session)."""
        with self._sessions_lock:
            session_id = next(self._session_ids)
            session = Session(self, session_id, name)
            self._sessions[session_id] = session
        self.metrics.set_gauge("engine.sessions", float(len(self._sessions)))
        return session

    def sessions(self) -> list[Session]:
        with self._sessions_lock:
            return list(self._sessions.values())

    @property
    def partial_results(self) -> bool:
        """Legacy engine-level view of the *default session's*
        PARTIAL_RESULTS setting."""
        return self._default_session.partial_results

    @partial_results.setter
    def partial_results(self, value: bool) -> None:
        self._default_session.partial_results = bool(value)

    @property
    def parallel_dop(self) -> int:
        """Legacy engine-level view of the *default session's*
        PARALLEL_DOP setting."""
        return self._default_session.parallel_dop

    @parallel_dop.setter
    def parallel_dop(self, value: int) -> None:
        self._default_session.parallel_dop = int(value)
        self.optimizer.parallel_dop = int(value)

    # ==================================================================
    # linked servers & providers
    # ==================================================================
    def add_linked_server(
        self,
        name: str,
        target: "ServerInstance | DataSource",
        channel: Optional[NetworkChannel] = None,
        retry_policy: Optional[RetryPolicy] = None,
        **provider_kwargs: Any,
    ) -> LinkedServer:
        """Register a linked server (Section 2.1's sp_addlinkedserver).

        ``target`` may be another :class:`ServerInstance` (wrapped in a
        SQL Server provider) or any pre-built OLE DB DataSource.
        ``retry_policy`` overrides the default retry/backoff applied to
        every remote operation against this server.
        """
        if isinstance(target, ServerInstance):
            datasource: DataSource = SqlServerDataSource(
                target,
                channel=channel or NetworkChannel(name),
                **provider_kwargs,
            )
            datasource.initialize()
        else:
            datasource = target
            if not datasource.initialized:
                datasource.initialize()
        server = LinkedServer(name, datasource, retry_policy=retry_policy)
        # fault/retry/timeout counters from this server's channel land
        # in the engine's registry (sys.dm_os_performance_counters)
        datasource.channel.metrics = self.metrics
        # every remote operation on this server is now gated by the
        # engine's circuit breaker for it
        server.health = self.health
        self.linked_servers[name.lower()] = server
        self.optimizer.register_linked_server(server)
        return server

    def linked_server(self, name: str) -> Optional[LinkedServer]:
        return self.linked_servers.get(name.lower())

    def register_openrowset_provider(
        self, provider_name: str, factory: Callable[..., DataSource]
    ) -> None:
        """factory(datasource, user, password) -> initialized DataSource."""
        self._openrowset_providers[provider_name.lower()] = factory

    def register_maketable_provider(
        self, key: str, datasource: DataSource
    ) -> None:
        """Register a MakeTable() provider (Section 2.4), e.g. 'Mail'."""
        if not datasource.initialized:
            datasource.initialize()
        self._maketable_providers[key.lower()] = datasource

    # ==================================================================
    # full-text integration (Sections 2.2-2.3)
    # ==================================================================
    def attach_fulltext_service(self, service: FullTextService) -> None:
        self.fulltext_service = service
        # OPENROWSET('MSIDXS', <catalog>, '<query>') works out of the box
        from repro.providers.fulltext import FullTextDataSource

        def factory(datasource: str, user: str, password: str) -> DataSource:
            ds = FullTextDataSource(service, datasource)
            ds.initialize()
            return ds

        self.register_openrowset_provider("MSIDXS", factory)

    def create_fulltext_index(
        self,
        table_name: str,
        key_column: str,
        text_column: str,
        catalog_name: Optional[str] = None,
        database: Optional[str] = None,
        schema_name: str = DEFAULT_SCHEMA,
    ) -> None:
        """Create and populate a relational full-text catalog over a
        table's text column (Figure 2's indexing-support half)."""
        if self.fulltext_service is None:
            self.attach_fulltext_service(FullTextService())
        assert self.fulltext_service is not None
        db = self.catalog.database(database)
        table = db.table(table_name, schema_name)
        catalog_name = catalog_name or f"ft_{table_name}"
        self.fulltext_service.create_catalog(catalog_name, "relational")
        binding = FullTextBinding(
            self.fulltext_service, catalog_name, key_column, text_column
        )
        for row in table.rows():
            binding.reindex(table.schema, None, row)
        self._fulltext_bindings[
            (db.name.lower(), schema_name.lower(), table_name.lower())
        ] = binding

    # ==================================================================
    # BindContext protocol
    # ==================================================================
    def local_database(self, name: Optional[str]) -> Database:
        return self.catalog.database(name)

    def openrowset_datasource(
        self, provider: str, datasource: str, user: str, password: str
    ) -> DataSource:
        factory = self._openrowset_providers.get(provider.lower())
        if factory is None:
            raise BindError(
                f"no OPENROWSET provider registered as {provider!r}"
            )
        return factory(datasource, user, password)

    def maketable_datasource(self, provider_key: str) -> DataSource:
        ds = self._maketable_providers.get(provider_key.lower())
        if ds is None:
            raise BindError(
                f"no MakeTable provider registered as {provider_key!r}"
            )
        return ds

    def fulltext_binding(
        self, database: str, schema_name: str, table_name: str
    ) -> Optional[FullTextBinding]:
        return self._fulltext_bindings.get(
            (database.lower(), schema_name.lower(), table_name.lower())
        )

    def system_view(self, view_name: str) -> Optional[tuple]:
        """``sys.<view_name>`` DMV snapshot for the binder."""
        return system_view(self, view_name)

    def local_object(self, named: ast.NamedTable) -> tuple[Database, str, str]:
        """(database, schema name, object name) of a one- to three-part
        name in this server's catalog."""
        parts = named.parts
        if len(parts) > 3:
            raise SqlError("DML targets must be local objects")
        database_name = parts[0] if len(parts) == 3 else None
        schema_name = parts[-2] if len(parts) >= 2 else DEFAULT_SCHEMA
        return self.catalog.database(database_name), schema_name, parts[-1]

    # ==================================================================
    # SqlBackend protocol (what our own OLE DB provider fronts)
    # ==================================================================
    def execute_sql(
        self,
        text: str,
        params: Optional[Sequence[Any]] = None,
        txn: Optional[LocalTransaction] = None,
    ) -> Rowset:
        """Run a command's text; ``params`` are the values bound to its
        positional ``?`` markers."""
        result = self.execute(text, params, txn=txn)
        schema = Schema(
            [Column(name, _infer_result_type(result, i)) for i, name in
             enumerate(result.columns)]
        )
        return MaterializedRowset(schema, result.rows)

    def describe_sql(self, text: str) -> Schema:
        """Bind-only schema discovery (used by command describe)."""
        stmt = self._parsed(text).statement
        if not isinstance(stmt, ast.SelectStmt):
            raise SqlError("describe_sql expects a SELECT")
        bound = Binder(self).bind_select(stmt)
        return Schema(
            [Column(d.name, d.type, d.nullable) for d in bound.output_defs]
        )

    def begin_transaction(self) -> LocalTransaction:
        return LocalTransaction(f"{self.name}-txn")

    # ==================================================================
    # the statement driver
    # ==================================================================
    #: bound on distinct statement texts kept in query_stats
    MAX_QUERY_STATS = 256

    def _parsed(self, sql_text: str) -> CachedStatement:
        """``sql_text`` parsed — by :func:`parse_sql` the first time
        this server sees the text, from the statement cache after."""
        return self.statement_cache.get(sql_text, parse_sql)

    def execute(
        self,
        sql_text: str,
        params: Optional[Dict[str, Any] | Sequence[Any]] = None,
        txn: Optional[LocalTransaction] = None,
        session: Optional[Session] = None,
    ) -> QueryResult:
        """Parse, plan, and run one SQL statement.

        ``params`` binds ``@name`` parameters by name (a dict) or the
        positional ``?`` markers in order (a sequence — what a linked
        server's command sends, Section 4.1.2).
        ``txn`` attaches DML effects to a local transaction branch (the
        path distributed transactions arrive through).  ``session``
        selects whose settings the statement runs under; without one
        the engine's default session is used (the single-user API).

        This is the one place a statement is admitted, bound, timed and
        released.  Admission comes before any work, parse included: an
        overloaded pool sheds with AdmissionTimeoutError having spent
        nothing but queue time.  The statement's ledger is bound to the
        calling thread while it runs (:mod:`repro.network.ledger`), so
        every channel charge lands on it and the result carries exact
        ``network`` totals whatever other sessions do meanwhile; with
        ``tracing_enabled`` it also carries a structured QueryTrace.  A
        nested execute() — a member running shipped SQL on this thread
        — charges a child ledger: it inherits the outer trace and
        budget unless it brings its own, and is folded into the outer
        statement when it ends.
        """
        session = session or self._default_session
        if params is not None and not isinstance(params, dict):
            params = {marker_name(i): v for i, v in enumerate(params)}
        trace = QueryTrace(sql_text) if self.tracing_enabled else None
        budget = (
            QueryBudget(self.query_timeout_ms)
            if self.query_timeout_ms is not None
            else None
        )
        ctx = StatementContext(
            session,
            sql_text,
            params,
            txn if txn is not None else session.txn,
            trace,
            StatementLedger(trace, budget, parent=current_ledger()),
        )
        if trace is not None:
            trace.session_id = session.session_id
        with self._in_flight():
            ctx.group = self.governor.classify(session)
            ticket = self.governor.admit(ctx.group, trace=trace)
            try:
                started = time.perf_counter()
                # advance the health clock: open breakers measure their
                # re-probe interval in statements, not wall time
                self.health.tick()
                with bind_ledger(ctx.ledger):
                    with ctx.span("parse"):
                        ctx.cached = self._parsed(sql_text)
                    stmt = ctx.cached.statement
                    handler = _HANDLERS.get(type(stmt))
                    if handler is None:
                        raise SqlError(
                            f"unsupported statement {type(stmt).__name__}"
                        )
                    result = handler(self, stmt, ctx)
            except SchemaValidationError as error:
                # plans compiled against the schema the member no longer
                # has must not outlive the statement that found out
                if error.table_name is not None:
                    self.plan_cache.invalidate_tables(
                        {error.table_name}, reason="ddl"
                    )
                raise
            finally:
                self.governor.complete(ctx.group, ticket)
                ctx.ledger.close()
                if trace is not None:
                    trace.rollup()
        result.workload_group = ctx.group.name
        result.admission_wait_ms = ticket.wait_ms
        result.elapsed_ms = (time.perf_counter() - started) * 1000.0
        result.network = statement_network(self, ctx.ledger)
        result.trace = trace
        result.session_id = session.session_id
        session.statement_count += 1
        record_statement(self, stmt, sql_text, result)
        return result

    @contextmanager
    def _compiling(self, session: Session) -> Iterator[None]:
        """Hold the compile lock with the optimizer set to ``session``'s
        DOP: compiles are serialized while executions stay concurrent,
        and the DOP is restored inside the lock, so a session's setting
        can never stick to the engine."""
        with self._compile_lock:
            prior_dop = self.optimizer.parallel_dop
            self.optimizer.parallel_dop = session.parallel_dop
            try:
                yield
            finally:
                self.optimizer.parallel_dop = prior_dop

    def force_plan(self, query_hash_hex: str, plan_fingerprint: str) -> None:
        """Pin a captured plan for a query (the Query Store's
        ``sp_query_store_force_plan``): the optimizer replays the pinned
        plan on the next execution instead of exploring.  Both arguments
        come from the ``sys.query_store_*`` views."""
        self.query_store.force_plan(query_hash_hex, plan_fingerprint)
        # the pin must win over any already-cached plan for the query
        self.plan_cache.invalidate_query(query_hash_hex, reason="pin")
        self.metrics.increment("query_store.plans_forced")

    def unforce_plan(self, query_hash_hex: str) -> None:
        self.query_store.unforce_plan(query_hash_hex)
        # executions while pinned bypass the cache, but a plan cached
        # *before* the pin existed must not resurface after unpinning
        self.plan_cache.invalidate_query(query_hash_hex, reason="pin")

    def refresh_statistics(self) -> None:
        """Refresh optimizer statistics: remote metadata/cardinality
        caches are dropped and the statistics generation is bumped, so
        every cached plan (costed on the old numbers) recompiles on its
        next execution."""
        for server in self.linked_servers.values():
            server.invalidate_metadata()
        self._stats_generation += 1
        self._purge_stale_plans()
        self.metrics.increment("engine.stats_refreshes")

    def _purge_stale_plans(self) -> None:
        """Purge every cached plan compiled under a previous schema
        version or statistics generation."""
        self.plan_cache.invalidate_stale(
            schema_version=self.catalog.schema_version,
            stats_generation=self._stats_generation,
        )

    def plan(
        self, sql_text: str, session: Optional[Session] = None
    ) -> OptimizationResult:
        """Optimize a SELECT without executing it (EXPLAIN).  Always
        compiles fresh, bypassing the plan cache."""
        stmt = self._parsed(sql_text).statement
        if not isinstance(stmt, ast.SelectStmt):
            raise SqlError("plan() expects a SELECT statement")
        with self._compiling(session or self._default_session):
            return self.optimizer.optimize(Binder(self).bind_select(stmt).root)

    # ==================================================================
    # handlers: SET, DML, DDL (EXPLAIN is repro.explain)
    # ==================================================================
    def _execute_set(self, stmt: ast.SetStmt, ctx: StatementContext) -> QueryResult:
        apply_set(self, ctx.session, stmt.option, stmt.value)
        return QueryResult([], [], rowcount=0)

    def _execute_dml(
        self, stmt: ast.Statement, ctx: StatementContext, run: Callable[..., int]
    ) -> QueryResult:
        """INSERT / UPDATE / DELETE: fence, take the write lock, run the
        verb (:mod:`repro.federation.dml`), invalidate.  The ``dml``
        span is the one distributed-transaction ``txn`` spans parent
        under."""
        named = stmt.table
        with ctx.span("dml", statement=run.__name__):
            # a table held by an in-doubt distributed transaction has
            # prepared (undecided) effects visible in storage, so
            # further writes would compound torn state; PV DML re-checks
            # per member
            if self.dtc.has_in_doubt():
                self.dtc.check_accessible(tables={named.parts[-1]})
            with self._write_lock:
                count = run(self, stmt, ctx)
        # row counts changed: plans scanning the written table were
        # costed on stale cardinalities, so they recompile
        self.plan_cache.invalidate_tables(
            {named.parts[-1].lower()}, reason="stats"
        )
        return QueryResult([], [], rowcount=count)

    def _execute_ddl(
        self, stmt: ast.Statement, ctx: StatementContext, run: Callable[..., None]
    ) -> QueryResult:
        with self._write_lock:
            run(self, stmt)
        self._purge_stale_plans()
        return QueryResult([], [], rowcount=0)

    # ==================================================================
    # SELECT: plan (cached or compiled), grant, run — at most twice
    # ==================================================================
    def _optimize(
        self,
        root: LogicalOp,
        ctx: StatementContext,
        query_key: Optional[str] = None,
    ) -> OptimizationResult:
        """Optimize (caller holds the compile lock) with rule-firing
        events routed to the statement's trace.  ``query_key`` (the
        statement text, when the Query Store is on) lets the optimizer
        consult plan pins before exploration."""
        self.optimizer.trace = ctx.trace
        try:
            with ctx.span("optimize"):
                return self.optimizer.optimize(root, query_key=query_key)
        finally:
            self.optimizer.trace = None

    def _plan_select(
        self,
        stmt: ast.SelectStmt,
        ctx: StatementContext,
        allow_probes: bool = True,
    ) -> CompiledSelect:
        """Bind, optionally prune unreachable PV members, optimize."""
        with self._compiling(ctx.session):
            with ctx.span("bind"):
                bound = Binder(self).bind_select(stmt)
            root, skipped = bound.root, []
            # a textless SELECT is the source of an INSERT..SELECT, and
            # DML is fail-stop (docs/FAULT_MODEL.md): it never degrades
            if ctx.session.partial_results and ctx.sql_text is not None:
                root, skipped = prune_unreachable_members(
                    self, root, ctx.trace, allow_probes
                )
            # plan pins are honored on the first plan only: a replan
            # runs because the pinned plan's member just died, so
            # replaying the pin would fail the statement a second time
            pinnable = (
                self.query_store_enabled and ctx.sql_text and allow_probes
            )
            optimization = self._optimize(
                root, ctx, ctx.sql_text if pinnable else None
            )
        return CompiledSelect(
            optimization,
            bound.output_names,
            [d.cid for d in bound.output_defs],
            skipped,
        )

    def _execute_select(
        self, stmt: ast.SelectStmt, ctx: StatementContext
    ) -> QueryResult:
        entry_key = statement_key(self, ctx)
        compiled = cache_status = None
        if entry_key is not None:
            compiled = lookup_compiled(self, entry_key, ctx.trace)
            cache_status = "miss" if compiled is None else "hit"
        if compiled is None:
            compiled = self._plan_select(stmt, ctx)
            # a plan built against pruned PV members is this statement's
            # private degraded plan, never shared
            if entry_key is not None and not compiled.skipped:
                store_compiled(self, entry_key, ctx.sql_text, compiled)
        # A statement must not observe effects whose commit/abort fate
        # is undecided.  Partial mode already pruned in-doubt PV members
        # from the plan (stamped "in_doubt" in skipped_partitions), so
        # whatever the plan still references is checked here in both
        # modes — in-doubt local tables and non-PV remote reads fail
        # fast with TransactionInDoubtError.
        if self.dtc.has_in_doubt():
            servers, tables = plan_references(compiled.optimization.plan)
            self.dtc.check_accessible(servers=servers, tables=tables)
        result = self._run_select(stmt, ctx, compiled, entry_key)
        result.plan_cache_status = cache_status
        result.plan_cache_key = entry_key
        return result

    def _run_select(
        self,
        stmt: ast.SelectStmt,
        ctx: StatementContext,
        compiled: CompiledSelect,
        entry_key: Optional[tuple],
    ) -> QueryResult:
        """Lease the plan's memory grant and execute it; if a member
        dies mid-query, re-plan around it and do both once more."""
        session, group, trace = ctx.session, ctx.group, ctx.trace
        profiler = PlanProfiler() if self.profiling_enabled else None
        replans, grant_wait_ms, spool_cache = 0, 0.0, None
        while True:
            plan = compiled.optimization.plan
            exec_ctx = ExecutionContext(
                ctx.params,
                subquery_executor=self._run_subquery,
                profiler=profiler,
                metrics=self.metrics,
                trace=trace,
                spool_cache=spool_cache,
                requested_dop=session.parallel_dop,
                max_dop=group.max_dop or None,
                scheduler_registry=self._schedulers,
            )
            # the memory grant is leased before execution and released
            # unconditionally after; a replan's plan gets its own
            grant = self.governor.acquire_grant(
                plan, group, session, self.optimizer.cost_model,
                trace=trace, sql_text=ctx.sql_text,
            )
            if grant is not None:
                grant_wait_ms += grant.wait_ms
            try:
                with ctx.span("execute", session=session.session_id):
                    rows = execute_plan(plan, exec_ctx)
                break
            except ServerUnavailableError as error:
                if replans or not self.replan_on_failure:
                    raise
                # one bounded replan: the dead member's breaker tripped
                # inside run_with_retry, so re-optimization now routes
                # around it (and partial mode prunes its PV branches);
                # already-spooled remote results carry over via the
                # shared spool cache.  A second failure propagates
                # fail-stop.  A cached plan that hit this path is stale
                # by definition (it references a member whose breaker
                # just opened), so it is evicted rather than
                # fast-failing the next caller.
                replans = 1
                self.metrics.increment("engine.replans")
                if entry_key is not None:
                    self.plan_cache.invalidate_key(entry_key, reason="breaker")
                if trace is not None:
                    trace.event(
                        "replan",
                        server=getattr(error, "server_name", None),
                        error=f"{type(error).__name__}: {error}",
                    )
                compiled = self._plan_select(stmt, ctx, allow_probes=False)
                spool_cache = exec_ctx.spool_cache
            finally:
                if grant is not None:
                    grant.release()
        result = QueryResult(
            # align plan output order with the bound output defs
            _reorder_output(rows, plan, compiled.output_cids),
            compiled.output_names,
            plan,
            compiled.optimization,
            exec_ctx,
        )
        result.profile = profiler
        result.replans = replans
        result.parallel_saved_ms = exec_ctx.parallel_saved_ms
        result.dop = max(1, exec_ctx.max_dop_used)
        result.memory_grant_kb = grant.granted_kb if grant is not None else 0.0
        result.grant_wait_ms = grant_wait_ms
        if compiled.skipped:
            result.partial = PartialResultsInfo(compiled.skipped)
        return result

    def nested_select(
        self, select: ast.SelectStmt, ctx: StatementContext
    ) -> QueryResult:
        """The source rows of an INSERT..SELECT, run as part of the
        issuing statement — its session, workload group, trace and
        ledger — but textless, hence uncached."""
        return self._execute_select(select, replace(ctx, sql_text=None))

    def _run_subquery(self, root: LogicalOp) -> list[tuple]:
        with self._compile_lock:
            optimization = self.optimizer.optimize(root)
        ctx = ExecutionContext(
            subquery_executor=self._run_subquery,
            metrics=self.metrics,
            scheduler_registry=self._schedulers,
        )
        rows = execute_plan(optimization.plan, ctx)
        return _reorder_output(rows, optimization.plan, list(root.output_ids()))

    def __repr__(self) -> str:
        return f"ServerInstance({self.name})"


# convenient alias: the local engine IS the public entry point
Engine = ServerInstance


_DML, _DDL = ServerInstance._execute_dml, ServerInstance._execute_ddl

#: statement type -> handler(engine, stmt, ctx); exact-type lookup
_HANDLERS: Dict[type, Callable[..., QueryResult]] = {
    ast.SelectStmt: ServerInstance._execute_select,
    ast.ExplainStmt: explain,
    ast.SetStmt: ServerInstance._execute_set,
    ast.InsertStmt: partial(_DML, run=dml.insert),
    ast.UpdateStmt: partial(_DML, run=dml.update),
    ast.DeleteStmt: partial(_DML, run=dml.delete),
    ast.CreateTableStmt: partial(_DDL, run=ddl.create_table),
    ast.CreateIndexStmt: partial(_DDL, run=ddl.create_index),
    ast.CreateViewStmt: partial(_DDL, run=ddl.create_view),
    ast.CreateDatabaseStmt: partial(_DDL, run=ddl.create_database),
    ast.DropTableStmt: partial(_DDL, run=ddl.drop_table),
}


def _infer_result_type(result: QueryResult, ordinal: int) -> SqlType:
    for row in result.rows:
        if row[ordinal] is not None:
            return infer_type(row[ordinal])
    return varchar()


def _reorder_output(
    rows: list[tuple], plan: PhysicalOp, wanted: list
) -> list[tuple]:
    """Plans may emit columns in a different id order than the query's
    output list (``wanted`` column ids); realign by column id."""
    plan_ids = list(plan.output_ids())
    if plan_ids == list(wanted):
        return rows
    positions = [plan_ids.index(cid) for cid in wanted]
    return [tuple(row[p] for p in positions) for row in rows]
