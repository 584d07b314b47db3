"""DMV-style system views (``sys.dm_*``).

The binder resolves two-part names in the ``sys`` schema through
:func:`system_view`, which returns a (columns, rows) pair the binder
turns into a constant table — so the observability layer is itself
queryable with ordinary SELECTs, filters, joins and aggregates:

* ``sys.dm_exec_connections`` — one row per linked server/channel with
  live cumulative totals;
* ``sys.dm_exec_query_stats`` — per-statement aggregates the engine
  maintains on every execute;
* ``sys.dm_os_performance_counters`` — a dump of the instance's
  :class:`~repro.observability.metrics.MetricsRegistry`.

Rows are materialized at bind time: a DMV query sees the state of the
instance at the moment the statement is compiled, exactly like a DMV
snapshot in the real server.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.types.datatypes import BIGINT, FLOAT, INT, SqlType, varchar


class QueryStatsEntry:
    """Aggregate execution statistics for one statement text."""

    __slots__ = (
        "query_text",
        "execution_count",
        "total_rows",
        "last_rows",
        "total_elapsed_ms",
        "last_elapsed_ms",
        "min_elapsed_ms",
        "max_elapsed_ms",
        "total_bytes",
        "total_round_trips",
    )

    def __init__(self, query_text: str):
        self.query_text = query_text
        self.execution_count = 0
        self.total_rows = 0
        self.last_rows = 0
        self.total_elapsed_ms = 0.0
        self.last_elapsed_ms = 0.0
        self.min_elapsed_ms = 0.0
        self.max_elapsed_ms = 0.0
        self.total_bytes = 0
        self.total_round_trips = 0

    def record(
        self, rows: int, elapsed_ms: float, nbytes: int, round_trips: int
    ) -> None:
        self.execution_count += 1
        self.total_rows += rows
        self.last_rows = rows
        self.total_elapsed_ms += elapsed_ms
        self.last_elapsed_ms = elapsed_ms
        if self.execution_count == 1 or elapsed_ms < self.min_elapsed_ms:
            self.min_elapsed_ms = elapsed_ms
        if elapsed_ms > self.max_elapsed_ms:
            self.max_elapsed_ms = elapsed_ms
        self.total_bytes += nbytes
        self.total_round_trips += round_trips

    def __repr__(self) -> str:
        return (
            f"QueryStatsEntry({self.query_text!r}, "
            f"n={self.execution_count})"
        )


Columns = list[tuple[str, SqlType]]


def _dm_exec_connections(engine: Any) -> tuple[Columns, list[tuple]]:
    columns: Columns = [
        ("server_name", varchar(128)),
        ("provider", varchar(128)),
        ("latency_ms", FLOAT),
        ("mb_per_second", FLOAT),
        ("bytes_sent", BIGINT),
        ("bytes_received", BIGINT),
        ("round_trips", BIGINT),
        ("simulated_ms", FLOAT),
    ]
    # type-consistent zeros for channel-less providers, derived from the
    # declared column types so the row can never drift out of sync with
    # the column list
    zeros = tuple(
        0.0 if sql_type is FLOAT else 0 for __, sql_type in columns[2:]
    )
    rows = []
    for server in engine.linked_servers.values():
        channel = server.channel
        if channel is None:
            rows.append(
                (server.name, type(server.datasource).__name__) + zeros
            )
            continue
        stats = channel.stats
        rows.append(
            (
                server.name,
                type(server.datasource).__name__,
                channel.latency_ms,
                channel.mb_per_second,
                stats.bytes_sent,
                stats.bytes_received,
                stats.round_trips,
                stats.simulated_ms,
            )
        )
    return columns, rows


def _dm_exec_query_stats(engine: Any) -> tuple[Columns, list[tuple]]:
    columns: Columns = [
        ("query_text", varchar()),
        ("execution_count", INT),
        ("total_rows", BIGINT),
        ("last_rows", BIGINT),
        ("total_elapsed_ms", FLOAT),
        ("last_elapsed_ms", FLOAT),
        ("min_elapsed_ms", FLOAT),
        ("max_elapsed_ms", FLOAT),
        ("total_bytes", BIGINT),
        ("total_round_trips", BIGINT),
    ]
    rows = [
        (
            entry.query_text,
            entry.execution_count,
            entry.total_rows,
            entry.last_rows,
            entry.total_elapsed_ms,
            entry.last_elapsed_ms,
            entry.min_elapsed_ms,
            entry.max_elapsed_ms,
            entry.total_bytes,
            entry.total_round_trips,
        )
        for entry in engine.query_stats.values()
    ]
    return columns, rows


def _dm_os_performance_counters(engine: Any) -> tuple[Columns, list[tuple]]:
    columns: Columns = [
        ("object_name", varchar(128)),
        ("counter_name", varchar(128)),
        ("counter_type", varchar(32)),
        ("cntr_value", FLOAT),
    ]
    return columns, engine.metrics.rows()


def _dm_server_health(engine: Any) -> tuple[Columns, list[tuple]]:
    """One row per linked server with its circuit-breaker state."""
    columns: Columns = [
        ("server_name", varchar(128)),
        ("state", varchar(16)),
        ("consecutive_failures", INT),
        ("trips", INT),
        ("fast_fails", BIGINT),
        ("probes", BIGINT),
        ("opened_at_ms", FLOAT),
        ("next_probe_at_ms", FLOAT),
        ("last_failure", varchar()),
    ]
    rows: list[tuple] = []
    health = getattr(engine, "health", None)
    for server in engine.linked_servers.values():
        breaker = health.get(server.name) if health is not None else None
        if breaker is None:
            rows.append(
                (server.name, "closed", 0, 0, 0, 0, None, None, None)
            )
            continue
        rows.append(
            (
                server.name,
                breaker.state,
                breaker.consecutive_failures,
                breaker.trip_count,
                breaker.fast_fails,
                breaker.probe_count,
                breaker.opened_at_ms,
                breaker.next_probe_at_ms,
                breaker.last_failure,
            )
        )
    return columns, rows


def _dm_tran_active_transactions(engine: Any) -> tuple[Columns, list[tuple]]:
    """One row per active or in-doubt distributed transaction.

    ``in_doubt_age_ms`` is how long an in-doubt transaction has awaited
    recovery (NULL for active ones); ``logged_decision`` is what the
    durable coordinator log will resolve it to (``commit`` when the
    decision record survived, ``abort`` by presumption otherwise).
    """
    columns: Columns = [
        ("transaction_id", INT),
        ("state", varchar(16)),
        ("branch_count", INT),
        ("branches", varchar()),
        ("in_doubt_age_ms", FLOAT),
        ("logged_decision", varchar(16)),
        ("crash_point", varchar(64)),
    ]
    dtc = getattr(engine, "dtc", None)
    rows = dtc.transaction_rows() if dtc is not None else []
    return columns, rows


def _query_store_query(engine: Any) -> tuple[Columns, list[tuple]]:
    """One row per distinct (normalized) query the store has seen."""
    columns: Columns = [
        ("query_id", INT),
        ("query_hash", varchar(16)),
        ("query_text", varchar()),
        ("execution_count", BIGINT),
        ("plan_count", INT),
        ("active_plan_fingerprint", varchar(16)),
        ("forced_plan_fingerprint", varchar(16)),
    ]
    rows = [
        (
            entry.query_id,
            entry.query_hash,
            entry.query_text,
            entry.execution_count,
            len(entry.plans),
            entry.active_fingerprint,
            entry.forced_fingerprint,
        )
        for entry in engine.query_store.queries()
    ]
    return columns, rows


def _query_store_plan(engine: Any) -> tuple[Columns, list[tuple]]:
    """One row per captured (query, plan fingerprint) pair."""
    columns: Columns = [
        ("query_id", INT),
        ("plan_id", INT),
        ("plan_fingerprint", varchar(16)),
        ("is_active", INT),
        ("is_forced", INT),
        ("first_execution", BIGINT),
        ("last_execution", BIGINT),
        ("plan_shape", varchar()),
    ]
    rows = []
    for entry in engine.query_store.queries():
        for fingerprint, plan_entry in entry.plans.items():
            rows.append(
                (
                    entry.query_id,
                    plan_entry.plan_id,
                    fingerprint,
                    1 if fingerprint == entry.active_fingerprint else 0,
                    1 if fingerprint == entry.forced_fingerprint else 0,
                    plan_entry.first_execution,
                    plan_entry.last_execution,
                    plan_entry.shape,
                )
            )
    return columns, rows


def _query_store_runtime_stats(engine: Any) -> tuple[Columns, list[tuple]]:
    """Aggregated execution intervals per (query, plan).  Latency is
    wall-clock elapsed + simulated network ms (the modeled end-to-end
    time of a statement over the simulated fabric)."""
    columns: Columns = [
        ("query_id", INT),
        ("plan_id", INT),
        ("plan_fingerprint", varchar(16)),
        ("execution_count", BIGINT),
        ("mean_latency_ms", FLOAT),
        ("recent_mean_latency_ms", FLOAT),
        ("last_latency_ms", FLOAT),
        ("min_latency_ms", FLOAT),
        ("max_latency_ms", FLOAT),
        ("total_elapsed_ms", FLOAT),
        ("total_simulated_ms", FLOAT),
        ("total_rows", BIGINT),
        ("total_bytes", BIGINT),
        ("total_round_trips", BIGINT),
        ("total_retries", BIGINT),
        ("total_replans", BIGINT),
        ("partial_count", BIGINT),
    ]
    rows = []
    for entry in engine.query_store.queries():
        for fingerprint, stats in entry.stats.items():
            plan_entry = entry.plans[fingerprint]
            rows.append(
                (
                    entry.query_id,
                    plan_entry.plan_id,
                    fingerprint,
                    stats.execution_count,
                    stats.mean_latency_ms,
                    stats.recent_mean_latency_ms,
                    stats.last_latency_ms,
                    stats.min_latency_ms if stats.execution_count else 0.0,
                    stats.max_latency_ms,
                    stats.total_elapsed_ms,
                    stats.total_simulated_ms,
                    stats.total_rows,
                    stats.total_bytes,
                    stats.total_round_trips,
                    stats.total_retries,
                    stats.total_replans,
                    stats.partial_count,
                )
            )
    return columns, rows


def _query_store_regressions(engine: Any) -> tuple[Columns, list[tuple]]:
    """Queries whose active plan changed and got slower (worst first)."""
    columns: Columns = [
        ("query_id", INT),
        ("query_hash", varchar(16)),
        ("query_text", varchar()),
        ("prior_plan_fingerprint", varchar(16)),
        ("active_plan_fingerprint", varchar(16)),
        ("prior_mean_latency_ms", FLOAT),
        ("active_mean_latency_ms", FLOAT),
        ("regression_ratio", FLOAT),
    ]
    rows = [
        (
            regression.query_id,
            regression.query_hash,
            regression.query_text,
            regression.prior_fingerprint,
            regression.active_fingerprint,
            regression.prior_mean_latency_ms,
            regression.active_mean_latency_ms,
            regression.ratio,
        )
        for regression in engine.query_store.regressed_queries()
    ]
    return columns, rows


def _dm_exec_cached_plans(engine: Any) -> tuple[Columns, list[tuple]]:
    """One row per compiled plan in the shared plan cache."""
    columns: Columns = [
        ("query_hash", varchar(16)),
        ("query_text", varchar()),
        ("plan_fingerprint", varchar(64)),
        ("hit_count", BIGINT),
        ("schema_version", INT),
        ("stats_generation", INT),
        ("servers", varchar()),
        ("tables", varchar()),
        ("unhealthy_at_compile", varchar()),
    ]
    rows = [
        (
            entry.query_hash,
            entry.sql_text,
            entry.fingerprint,
            entry.hits,
            entry.schema_version,
            entry.stats_generation,
            ",".join(sorted(entry.servers)),
            ",".join(sorted(entry.tables)),
            ",".join(sorted(entry.unhealthy_servers)),
        )
        for entry in engine.plan_cache.entries()
    ]
    return columns, rows


def _dm_exec_sessions(engine: Any) -> tuple[Columns, list[tuple]]:
    """One row per session minted by ``engine.create_session`` (plus
    the default session)."""
    columns: Columns = [
        ("session_id", INT),
        ("name", varchar(128)),
        ("parallel_dop", INT),
        ("partial_results", INT),
        ("statement_count", BIGINT),
        ("open_txn", INT),
    ]
    rows = [
        (
            session.session_id,
            session.name,
            session.parallel_dop,
            1 if session.partial_results else 0,
            session.statement_count,
            1 if session.txn is not None else 0,
        )
        for session in engine.sessions()
    ]
    return columns, rows


def _dm_resource_governor_resource_pools(
    engine: Any,
) -> tuple[Columns, list[tuple]]:
    """One row per resource pool with capacity, live usage and
    lifetime admission/grant accounting."""
    columns: Columns = [
        ("pool_name", varchar(128)),
        ("max_memory_kb", FLOAT),
        ("used_memory_kb", FLOAT),
        ("peak_memory_kb", FLOAT),
        ("max_concurrency", INT),
        ("active_requests", INT),
        ("peak_concurrency", INT),
        ("queued_requests", INT),
        ("total_admissions", BIGINT),
        ("total_admission_wait_ms", FLOAT),
        ("admission_timeouts", BIGINT),
        ("total_grants", BIGINT),
        ("total_grant_wait_ms", FLOAT),
        ("grant_timeouts", BIGINT),
    ]
    rows = [
        (
            pool.name,
            pool.max_memory_kb,
            pool.used_memory_kb,
            pool.peak_memory_kb,
            pool.max_concurrency,
            pool.active_requests,
            pool.peak_concurrency,
            pool.queued_requests(),
            pool.total_admissions,
            pool.total_admission_wait_ms,
            pool.admission_timeouts,
            pool.total_grants,
            pool.total_grant_wait_ms,
            pool.grant_timeouts,
        )
        for pool in engine.governor.pools.values()
    ]
    return columns, rows


def _dm_resource_governor_workload_groups(
    engine: Any,
) -> tuple[Columns, list[tuple]]:
    """One row per workload group with its policy and request totals."""
    columns: Columns = [
        ("group_name", varchar(128)),
        ("pool_name", varchar(128)),
        ("max_dop", INT),
        ("max_memory_grant_pct", FLOAT),
        ("request_timeout_ms", FLOAT),
        ("total_requests", BIGINT),
        ("active_requests", INT),
        ("total_timeouts", BIGINT),
        ("total_grant_kb", FLOAT),
    ]
    rows = [
        (
            group.name,
            group.pool,
            group.max_dop,
            group.max_memory_grant_pct,
            group.request_timeout_ms,
            group.total_requests,
            group.active_requests,
            group.total_timeouts,
            group.total_grant_kb,
        )
        for group in engine.governor.groups.values()
    ]
    return columns, rows


def _dm_exec_query_memory_grants(engine: Any) -> tuple[Columns, list[tuple]]:
    """One row per *outstanding* memory grant — a statement currently
    holding leased workspace memory.  Empty at quiesce; anything left
    here after all statements finished is a leak."""
    columns: Columns = [
        ("grant_id", INT),
        ("session_id", INT),
        ("group_name", varchar(128)),
        ("pool_name", varchar(128)),
        ("requested_memory_kb", FLOAT),
        ("granted_memory_kb", FLOAT),
        ("grant_wait_ms", FLOAT),
        ("acquired_at_ms", FLOAT),
        ("query_text", varchar()),
    ]
    rows = [
        (
            grant.grant_id,
            grant.session_id,
            grant.group_name,
            grant.pool.name,
            grant.requested_kb,
            grant.granted_kb,
            grant.wait_ms,
            grant.acquired_at_ms,
            grant.sql_text,
        )
        for grant in engine.governor.active_grants()
    ]
    return columns, rows


_VIEWS = {
    "dm_exec_cached_plans": _dm_exec_cached_plans,
    "dm_exec_query_memory_grants": _dm_exec_query_memory_grants,
    "dm_resource_governor_resource_pools": _dm_resource_governor_resource_pools,
    "dm_resource_governor_workload_groups": _dm_resource_governor_workload_groups,
    "dm_exec_connections": _dm_exec_connections,
    "dm_exec_sessions": _dm_exec_sessions,
    "dm_exec_query_stats": _dm_exec_query_stats,
    "dm_os_performance_counters": _dm_os_performance_counters,
    "dm_server_health": _dm_server_health,
    "dm_tran_active_transactions": _dm_tran_active_transactions,
    "query_store_query": _query_store_query,
    "query_store_plan": _query_store_plan,
    "query_store_runtime_stats": _query_store_runtime_stats,
    "query_store_regressions": _query_store_regressions,
}


def system_view_names() -> tuple[str, ...]:
    return tuple(sorted(_VIEWS))


def system_view(
    engine: Any, view_name: str
) -> Optional[tuple[Columns, list[tuple]]]:
    """Resolve ``sys.<view_name>`` to (columns, rows), or None when no
    such view exists (the binder then falls back to normal lookup)."""
    builder = _VIEWS.get(view_name.lower())
    if builder is None:
        return None
    return builder(engine)
