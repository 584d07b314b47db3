"""Execution context: parameters, spool caches, telemetry.

Telemetry flows through the ``record_*`` hooks rather than ad-hoc
increments at operator sites: each hook maintains the context's summary
counters, feeds the engine's metrics registry when one is attached, and
emits trace/profile events when those recorders are enabled.  With
observability off every hook costs a counter add plus three ``is None``
tests.

Per-operator rows and time are not hooks: the executor's one operator
meter (:func:`repro.execution.executor.open_plan`) feeds both the
profiler and the operator span.  The meter runs each runner's open
work on the operator's first pull, inside its span, so a hook a runner
fires (a remote query, a startup-filter skip) is stamped with the
operator that fired it.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional, TYPE_CHECKING

from repro.algebra.expressions import Literal, ScalarExpr, ScalarSubquery

if TYPE_CHECKING:  # pragma: no cover
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.profile import PlanProfiler
    from repro.observability.trace import QueryTrace


class ExecutionContext:
    """Per-execution state shared by all operators of one plan run."""

    def __init__(
        self,
        params: Optional[Dict[str, Any]] = None,
        subquery_executor: Optional[Callable[[Any], list]] = None,
        profiler: Optional["PlanProfiler"] = None,
        metrics: Optional["MetricsRegistry"] = None,
        trace: Optional["QueryTrace"] = None,
        spool_cache: Optional[Dict[Any, list]] = None,
        requested_dop: Optional[int] = None,
        max_dop: Optional[int] = None,
        scheduler_registry: Optional[Any] = None,
    ):
        #: @parameter values for this execution
        self.params = dict(params or {})
        #: engine callback: optimize+execute a logical tree, return rows
        self.subquery_executor = subquery_executor
        #: per-execution spool materializations (Spool.cache_key() ->
        #: rows); an existing cache may be handed in so a bounded
        #: replan reuses results already spooled before a failure
        self.spool_cache: Dict[Any, list] = (
            spool_cache if spool_cache is not None else {}
        )
        #: guards spool_cache lookups/inserts — parallel exchange
        #: workers may hit the same spool key concurrently
        self.spool_lock = threading.Lock()
        #: observability recorders (all optional; None = off)
        self.profiler = profiler
        self.metrics = metrics
        self.trace = trace
        #: summary counters, maintained by the record_* hooks below
        #: (guarded by _telemetry_lock: hooks fire from worker threads)
        self._telemetry_lock = threading.Lock()
        self.rows_produced = 0
        self.remote_queries_executed = 0
        self.startup_filters_skipped = 0
        self.spool_rescans = 0
        #: parallel-exchange accounting (record_gather): simulated ms
        #: hidden by overlapping branches, and the highest DOP any
        #: exchange actually ran at
        self.parallel_saved_ms = 0.0
        self.parallel_branches = 0
        self.max_dop_used = 1
        #: the session's PARALLEL_DOP at execution time; exchange
        #: operators run at this degree rather than the one baked into
        #: the plan, so a cached parallel plan is DOP-invariant (None =
        #: use the plan's compiled dop)
        self.requested_dop = requested_dop
        #: workload-group DOP ceiling (resource governor); clamps both
        #: requested and compiled degrees.  None = ungoverned.
        self.max_dop = max_dop
        #: engine-owned WeakSet the exchange scheduler registers into
        #: so Engine.close() can shut worker threads down
        self.scheduler_registry = scheduler_registry

    # ------------------------------------------------------------------
    # telemetry hooks (the single reporting path for all operators)
    # ------------------------------------------------------------------
    def record_rows_produced(self, count: int) -> None:
        with self._telemetry_lock:
            self.rows_produced += count
        if self.metrics is not None:
            self.metrics.increment("executor.rows_produced", count)

    def record_startup_skip(self, plan: Any) -> None:
        """A startup filter pruned its subtree without opening it."""
        with self._telemetry_lock:
            self.startup_filters_skipped += 1
        if self.metrics is not None:
            self.metrics.increment("executor.startup_filters_skipped")
        if self.profiler is not None:
            self.profiler.profile_for(plan).startup_skips += 1
        if self.trace is not None:
            self.trace.event(
                "startup_filter_skip", predicate=repr(plan.predicate)
            )

    def record_remote_query(
        self, server_name: str, sql_text: Optional[str] = None
    ) -> None:
        """A SQL statement was shipped to a remote provider."""
        with self._telemetry_lock:
            self.remote_queries_executed += 1
        if self.metrics is not None:
            self.metrics.increment("executor.remote_queries")
        if self.trace is not None:
            self.trace.event(
                "remote_query", server=server_name, sql=sql_text
            )

    def record_spool_rescan(self, plan: Any) -> None:
        """A spool served its materialization again without re-opening
        the child (Section 4.1.4)."""
        with self._telemetry_lock:
            self.spool_rescans += 1
        if self.metrics is not None:
            self.metrics.increment("executor.spool_rescans")
        if self.trace is not None:
            self.trace.event("spool_rescan", reason=plan.reason)

    def record_gather(
        self, dop: int, branches: int, saved_ms: float,
        busiest_ms: float = 0.0,
    ) -> None:
        """A Gather/GatherMerge finished all branches.  ``saved_ms`` is
        the simulated network time hidden by overlap: the sum of branch
        times minus the critical path (busiest worker slot).  Called on
        the consumer thread once per exchange execution."""
        with self._telemetry_lock:
            self.parallel_saved_ms += saved_ms
            self.parallel_branches += branches
            if dop > self.max_dop_used:
                self.max_dop_used = dop
        if self.metrics is not None:
            self.metrics.increment("executor.parallel_branches", branches)
            self.metrics.increment("executor.parallel_saved_ms", saved_ms)
        if self.trace is not None:
            self.trace.event(
                "gather_complete",
                dop=dop,
                branches=branches,
                saved_ms=round(saved_ms, 3),
                busiest_ms=round(busiest_ms, 3),
            )

    def resolve_scalar_subqueries(self, expr: ScalarExpr) -> ScalarExpr:
        """Replace ScalarSubquery nodes with their (once-evaluated)
        values; uncorrelated by construction, so one evaluation per
        execution suffices."""
        if isinstance(expr, ScalarSubquery):
            if self.subquery_executor is None:
                raise RuntimeError(
                    "plan contains a scalar subquery but the context has "
                    "no subquery executor"
                )
            rows = self.subquery_executor(expr.plan)
            if len(rows) > 1:
                from repro.errors import ExecutionError

                raise ExecutionError(
                    "scalar subquery returned more than one row"
                )
            value = rows[0][0] if rows else None
            return Literal(value, expr.type)
        children = expr.children()
        if not children:
            return expr
        resolved = [self.resolve_scalar_subqueries(child) for child in children]
        if all(new is old for new, old in zip(resolved, children)):
            return expr
        return expr.with_children(resolved)
