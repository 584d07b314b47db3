"""The EXPLAIN statement handler."""

from __future__ import annotations

from typing import Any, Optional

from repro.execution.context import ExecutionContext
from repro.execution.executor import execute_plan
from repro.network.ledger import StatementLedger, bind_ledger
from repro.observability.profile import PlanProfiler, render_analyze
from repro.observability.statement import QueryResult, statement_network
from repro.observability.trace import QueryTrace
from repro.sql import ast
from repro.sql.binder import Binder


def explain(engine: Any, stmt: ast.ExplainStmt, ctx: Any) -> QueryResult:
    """EXPLAIN [ANALYZE] [VERBOSE] SELECT ...: one plan-tree line per
    row, plus phase telemetry as trailing rows.

    ANALYZE executes the plan under a profiler and annotates each
    operator with actual rows and open/next/close timings plus the
    statement's per-server network traffic; VERBOSE appends memo
    statistics (groups, expressions, per-rule firing counts).
    EXPLAIN always compiles fresh — it never reads or populates the
    plan cache (its job is to show what compilation would do now).
    """
    with engine._compiling(ctx.session):
        bound = Binder(engine).bind_select(stmt.select)
        optimization = engine._optimize(bound.root, ctx)
    exec_ctx: Optional[ExecutionContext] = None
    profiler: Optional[PlanProfiler] = None
    if stmt.analyze:
        profiler = PlanProfiler()
        # ANALYZE always runs under a trace so remote operators can be
        # annotated from their remote_command child spans; when
        # engine-wide tracing is off the trace is private to this run.
        # The run charges a child ledger, so the traffic reported is
        # the execution's alone, compile-time metadata excluded
        run_trace = (
            QueryTrace("explain analyze") if ctx.trace is None else ctx.trace
        )
        run = StatementLedger(run_trace, parent=ctx.ledger)
        exec_ctx = ExecutionContext(
            ctx.params,
            subquery_executor=engine._run_subquery,
            profiler=profiler,
            metrics=engine.metrics,
            trace=run_trace,
        )
        try:
            with bind_ledger(run):
                execute_plan(optimization.plan, exec_ctx)
        finally:
            run.close()
        run_trace.rollup()
        lines = render_analyze(
            optimization.plan,
            profiler,
            statement_network(engine, run),
            trace=run_trace,
        )
        if stmt.verbose:
            verbose_lines = optimization.explain(verbose=True).splitlines()
            lines.extend(verbose_lines[verbose_lines.index("-- memo --"):])
    else:
        lines = optimization.explain(verbose=stmt.verbose).splitlines()
    lines.append("--")
    for phase in optimization.phase_stats:
        lines.append(
            f"phase {phase.phase}: cost={phase.best_cost:.3f} "
            f"rules={phase.rules_fired} groups={phase.groups_optimized}"
        )
    result = QueryResult(
        [(line,) for line in lines],
        ["plan"],
        optimization.plan,
        optimization,
        exec_ctx,
    )
    result.profile = profiler
    return result
