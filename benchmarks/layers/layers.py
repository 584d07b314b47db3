"""Per-layer metrics: what each is called, its unit, where it is read.

Layers carry this repo's module names.  ``*_us_per_op`` is span *self*
time summed over the traced pass and divided by operations (so a layer
that calls another is not charged for it); ``member.execute_us_per_op``
alone is inclusive.  Counts sit beside times so a span that leaves the
path shows as calls dropping to zero, not as a mysteriously fast layer.
"""

from __future__ import annotations

from typing import Optional

from benchmarks.layers.spans import MEMBER_EXECUTE, Tracer, unresolved_spans

#: metric -> span whose self time it sums
SELF_US = {
    "sql.lex_us_per_op": "sql.lex",
    "sql.parse_us_per_op": "sql.parse",
    "plancache.key_us_per_op": "plancache.key",
    "plancache.lookup_us_per_op": "plancache.lookup",
    "plancache.store_us_per_op": "plancache.store",
    "binder.bind_us_per_op": "binder.bind",
    "linked_server.table_info_us_per_op": "linked_server.table_info",
    "stats.build_us_per_op": "stats.build",
    "stats.histogram_us_per_op": "stats.histogram",
    "stats.estimate_us_per_op": "stats.estimate",
    "optimizer.optimize_us_per_op": "optimizer.optimize",
    "decoder.decode_us_per_op": "decoder.decode",
    "governor.admit_us_per_op": "governor.admit",
    "governor.grant_us_per_op": "governor.grant",
    "execution.execute_plan_us_per_op": "execution.execute_plan",
    "oledb.command_us_per_op": "oledb.command",
    "network.stream_rows_us_per_op": "network.stream_rows",
    "network.send_command_us_per_op": "network.send_command",
    "dtc.commit_us_per_op": "dtc.commit",
    "dtc.log_us_per_op": "dtc.log",
    "federation.dml_us_per_op": "federation.dml",
    "storage.write_us_per_op": "storage.write",
    "engine.glue_us_per_op": "engine.execute",
}
#: metric -> span whose calls it counts
CALLS = {
    "sql.parse_calls_per_op": "sql.parse",
    "binder.bind_calls_per_op": "binder.bind",
    "linked_server.table_info_calls_per_op": "linked_server.table_info",
    "stats.build_calls_per_op": "stats.build",
    "optimizer.optimize_calls_per_op": "optimizer.optimize",
    "member.statements_per_op": MEMBER_EXECUTE,
    "storage.writes_per_op": "storage.write",
}
#: metric -> (tracer count, span it is taken at)
COUNTS = {
    "stats.build_rows_per_op": ("stats.build.rows", "stats.build"),
    "network.rows_streamed_per_op": (
        "network.stream_rows.items", "network.stream_rows"),
    "governor.wait_ms_per_op": ("governor.wait_ms", "engine.execute"),
}
PER_COMPILE = {
    "optimizer.rules_fired_per_compile": "optimizer.rules_fired",
    "optimizer.expressions_added_per_compile": "optimizer.expressions_added",
}
OPERATORS = (
    "RemoteQuery", "RemoteScan", "TableScan", "Filter", "ComputeProject",
    "PhysicalSort", "PhysicalTop", "HashJoin", "HashAggregate", "Concat",
    "StartupFilter",
)
#: metric -> (registry counter, which engines' registries are summed)
REGISTRY = {
    "plancache.evictions_per_op": ("plan_cache.evictions", "coordinator"),
    "plancache.invalidations_per_op": ("plan_cache.invalidations", "all"),
    "execution.rows_produced_per_op": ("executor.rows_produced", "all"),
    "execution.startup_filters_skipped_per_op": (
        "executor.startup_filters_skipped", "coordinator"),
    "dtc.fsyncs_per_op": ("dtc.fsyncs", "coordinator"),
    "dtc.prepares_per_op": ("dtc.prepares", "coordinator"),
}
REGISTRY_COUNTERS = sorted(
    {counter for counter, __ in REGISTRY.values()}
    | {"plan_cache.hits", "plan_cache.misses", "executor.parallel_saved_ms"}
)


def units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in print order."""
    out: dict[str, str] = {}
    for name in SELF_US:
        out[name] = "us"
    out["member.execute_us_per_op"] = "us"
    for name in (*CALLS, *REGISTRY, *PER_COMPILE):
        out[name] = "count"
    out["stats.build_rows_per_op"] = "count"
    out["network.rows_streamed_per_op"] = "count"
    out["governor.wait_ms_per_op"] = "sim_ms"
    out["network.sim_ms_per_op"] = "sim_ms"
    for operator in OPERATORS:
        out[f"execution.op.{operator}_self_us_per_op"] = "us"
    out["plancache.hit_share"] = "ratio"
    out["plancache.member_hit_share"] = "ratio"
    out["observability.overhead_us_per_op"] = "us"
    out["trace.overhead_share"] = "ratio"
    out["trace.closure_share"] = "ratio"
    return dict(sorted(out.items()))


def registry_snapshot(world) -> dict[str, dict[str, float]]:
    """The counters above, for the coordinator and summed over members."""
    def read(engines):
        return {
            counter: sum(e.metrics.value_of(counter) for e in engines)
            for counter in REGISTRY_COUNTERS
        }
    return {
        "coordinator": read([world.coordinator]),
        "members": read(world.members),
    }


def _share(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def derive(
    tracer: Tracer, registry: dict[str, dict[str, float]], ops: int
) -> dict[str, Optional[float]]:
    """Per-layer metrics of one traced pass of ``ops`` operations;
    ``registry`` is the counters' increase over that pass."""
    calls: dict[str, int] = {}
    busy: dict[str, int] = {}
    own: dict[str, int] = {}
    for name, __, ___, busy_ns, self_ns, ____, _____ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0) + busy_ns
        own[name] = own.get(name, 0) + self_ns
    missing = unresolved_spans(tracer)
    if "engine.execute" in missing:
        missing.add(MEMBER_EXECUTE)

    def per_op(value: float, span: str) -> Optional[float]:
        return None if span in missing else value / ops

    out: dict[str, Optional[float]] = {}
    for metric, span in SELF_US.items():
        out[metric] = per_op(own.get(span, 0) / 1000.0, span)
    out["member.execute_us_per_op"] = per_op(
        busy.get(MEMBER_EXECUTE, 0) / 1000.0, MEMBER_EXECUTE
    )
    for metric, span in CALLS.items():
        out[metric] = per_op(calls.get(span, 0), span)
    for metric, (count, span) in COUNTS.items():
        out[metric] = per_op(tracer.counts[count], span)
    compiles = calls.get("optimizer.optimize", 0)
    for metric, count in PER_COMPILE.items():
        out[metric] = (
            None if "optimizer.optimize" in missing
            else tracer.counts[count] / compiles if compiles else 0.0
        )
    coordinator, members = registry["coordinator"], registry["members"]
    for metric, (counter, scope) in REGISTRY.items():
        value = coordinator[counter]
        if scope == "all":
            value += members[counter]
        out[metric] = value / ops
    out["plancache.hit_share"] = _share(
        coordinator["plan_cache.hits"], coordinator["plan_cache.misses"]
    )
    out["plancache.member_hit_share"] = _share(
        members["plan_cache.hits"], members["plan_cache.misses"]
    )
    return out


def operator_self_us(tracer: Tracer, ops: int) -> dict[str, Optional[float]]:
    """``execution.op.*``: PlanProfiler time per operator class, self =
    node minus children, over every engine's plans in a profiled pass."""
    gone = "engine.execute" in unresolved_spans(tracer)
    return {
        f"execution.op.{operator}_self_us_per_op": (
            None if gone else tracer.counts[f"op.{operator}.self_us"] / ops
        )
        for operator in OPERATORS
    }
