"""What one statement reports: its :class:`QueryResult`, the
linked-server traffic it caused, and the engine-wide records it feeds
(``sys.dm_exec_query_stats``, the Query Store, the statement counters).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.core.optimizer import OptimizationResult
from repro.core.physical import PhysicalOp
from repro.execution.context import ExecutionContext
from repro.observability.profile import PlanProfiler
from repro.observability.trace import QueryTrace
from repro.observability.views import QueryStatsEntry
from repro.resilience.degrade import PartialResultsInfo
from repro.sql import ast

Network = Dict[str, Dict[str, float]]


class QueryResult:
    """Result of one statement: rows + metadata + telemetry."""

    def __init__(
        self,
        rows: list[tuple],
        columns: list[str],
        plan: Optional[PhysicalOp] = None,
        optimization: Optional[OptimizationResult] = None,
        context: Optional[ExecutionContext] = None,
        rowcount: Optional[int] = None,
    ):
        self.rows = rows
        self.columns = columns
        self.plan = plan
        self.optimization = optimization
        self.context = context
        #: affected-row count for DML statements
        self.rowcount = rowcount if rowcount is not None else len(rows)
        #: per-operator runtime profile (PlanProfiler) when profiling ran
        self.profile: Optional[PlanProfiler] = None
        #: structured trace (QueryTrace) when tracing was enabled
        self.trace: Optional[QueryTrace] = None
        #: per-linked-server network attribution for this statement:
        #: {server_name: {bytes_sent, bytes_received, round_trips,
        #: simulated_ms, retries, backoff_ms, breaker_trips,
        #: breaker_fast_fails}} — only servers with activity appear
        self.network: Network = {}
        #: wall-clock time for the whole statement
        self.elapsed_ms: float = 0.0
        #: incomplete-result metadata when PARTIAL_RESULTS degraded the
        #: answer; None means the result is complete
        self.partial: Optional[PartialResultsInfo] = None
        #: bounded mid-query re-optimizations taken after a member died
        self.replans: int = 0
        #: simulated network ms hidden by parallel exchanges (0.0 when
        #: the plan had none); elapsed simulated time for a statement is
        #: sum(network simulated_ms) - parallel_saved_ms
        self.parallel_saved_ms: float = 0.0
        #: highest exchange degree of parallelism the plan actually used
        self.dop: int = 1
        #: "hit" when the plan came from the shared plan cache, "miss"
        #: when it was compiled (and possibly cached) by this
        #: statement, None when the statement was uncacheable
        self.plan_cache_status: Optional[str] = None
        #: the cache key (normalized text, settings fingerprint) the
        #: statement looked up, when cacheable
        self.plan_cache_key: Optional[tuple] = None
        #: id of the session the statement ran under
        self.session_id: Optional[int] = None
        #: workload group the statement was classified into (resource
        #: governor); None for statements that bypassed classification
        self.workload_group: Optional[str] = None
        #: memory the governor leased for this statement's plan (KB);
        #: 0.0 for streaming plans that needed no grant
        self.memory_grant_kb: float = 0.0
        #: simulated ms spent waiting for the memory grant
        self.grant_wait_ms: float = 0.0
        #: simulated ms spent waiting in the admission queue
        self.admission_wait_ms: float = 0.0

    @property
    def is_partial(self) -> bool:
        return self.partial is not None and self.partial.is_partial

    def scalar(self) -> Any:
        """First column of the first row (aggregate shortcuts)."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def as_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def to_json(self, indent: Optional[int] = None) -> str:
        """Rows plus whatever telemetry this execution captured."""
        payload: Dict[str, Any] = {
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "rowcount": self.rowcount,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.network:
            payload["network"] = self.network
        if self.is_partial:
            payload["partial"] = self.partial.as_dict()
        if self.replans:
            payload["replans"] = self.replans
        if self.dop > 1 or self.parallel_saved_ms:
            payload["dop"] = self.dop
            payload["parallel_saved_ms"] = round(self.parallel_saved_ms, 3)
        if self.workload_group is not None:
            payload["workload_group"] = self.workload_group
        if self.memory_grant_kb:
            payload["memory_grant_kb"] = round(self.memory_grant_kb, 1)
            payload["grant_wait_ms"] = round(self.grant_wait_ms, 3)
        if self.admission_wait_ms:
            payload["admission_wait_ms"] = round(self.admission_wait_ms, 3)
        if self.profile is not None and self.plan is not None:
            payload["profile"] = self.profile.as_rows(self.plan)
        if self.trace is not None:
            payload["trace"] = self.trace.as_dict()
        return json.dumps(payload, indent=indent, default=str)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"QueryResult({len(self.rows)} rows, columns={self.columns})"


def statement_network(engine: Any, ledger: Any) -> Network:
    """What a statement charged, per linked server: its ledger's rows
    (:mod:`repro.network.ledger`) renamed from channel to server name,
    omitting servers it left idle."""
    touched = ledger.stats
    out: Network = {}
    if touched:
        for server in engine.linked_servers.values():
            row = touched.get(server.channel)
            if row is not None:
                charged = row.snapshot()
                if any(charged.values()):
                    out[server.name] = charged
    return out


def record_statement(
    engine: Any, stmt: ast.Statement, sql_text: str, result: QueryResult
) -> None:
    """Feed one finished statement (``elapsed_ms`` and ``network``
    already stamped on ``result``) into the engine-wide records."""
    elapsed_ms, network = result.elapsed_ms, result.network
    if result.trace is not None:
        for server, delta in network.items():
            result.trace.network(server, delta)
    with engine._stats_lock:
        entry = engine.query_stats.get(sql_text)
        if entry is None:
            if len(engine.query_stats) >= engine.MAX_QUERY_STATS:
                engine.query_stats.pop(next(iter(engine.query_stats)))
            entry = engine.query_stats[sql_text] = QueryStatsEntry(sql_text)
        entry.record(
            len(result.rows),
            elapsed_ms,
            sum(
                int(d["bytes_sent"] + d["bytes_received"])
                for d in network.values()
            ),
            sum(int(d["round_trips"]) for d in network.values()),
        )
    if (
        engine.query_store_enabled
        and result.plan is not None
        and isinstance(stmt, ast.SelectStmt)
    ):
        engine.query_store.record(
            sql_text,
            result.plan,
            len(result.rows),
            elapsed_ms,
            network,
            replans=result.replans,
            partial=result.is_partial,
        )
        engine.metrics.increment("query_store.executions")
    engine.metrics.increment("engine.statements")
    engine.metrics.observe("engine.statement_ms", elapsed_ms)
