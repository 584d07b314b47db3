"""The measurement loop and the two kinds of run built on it.

:func:`run_untraced` gives the end-to-end metrics with every kind of
tracing off.  :func:`run_traced` is a separate run that gives the
per-layer metrics; nothing it measures feeds an end-to-end number.

Load model: one process, one thread, one session, closed loop — the
next operation starts when the previous one has returned.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

from benchmarks.layers import layers, spans
from benchmarks.layers.workloads import Workload

#: the reference check runs on the warm-up pass and on every Nth op
CHECK_EVERY = 50
#: set-up is repeated and the median reported: one build takes 0.03 to
#: 0.3 s, and a single reading of that moves by 10% or more.  At least
#: MIN builds, then more until BUDGET seconds are spent on them
SETUP_REPEATS_MIN = 7
SETUP_BUDGET_S = 3.0
#: every timing metric is computed on each of this many consecutive
#: slices of the run (whole rounds each) and the best slice is reported:
#: the sandbox is a shared machine whose stalls last a second or two and
#: only ever slow a slice down, while anything the program itself does
#: periodically (collections, evictions) falls in every slice alike
SLICES = 10
#: how far span self times may be from the traced op time
CLOSURE_TOLERANCE = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p95": "ms",
    "cpu_ms_per_op": "ms",
    "net_bytes_per_op": "B",
    "net_round_trips_per_op": "count",
    "peak_rss_mb": "MB",
}


@dataclass
class Pass:
    """What one time-boxed stretch of rounds measured."""

    latencies_s: list[float] = field(default_factory=list)
    #: (index into latencies_s, process CPU seconds) after each round
    round_ends: list[tuple[int, float]] = field(default_factory=list)
    cpu_s: float = 0.0
    failed: int = 0
    net_bytes: float = 0.0
    net_round_trips: float = 0.0
    sim_ms: float = 0.0
    registry: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.latencies_s)

    @property
    def wall_s(self) -> float:
        return sum(self.latencies_s)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.wall_s


def _network(world) -> tuple[float, float, float]:
    stats = [channel.stats for channel in world.channels]
    return (
        sum(s.total_bytes for s in stats),
        sum(s.round_trips for s in stats),
        sum(s.simulated_ms for s in stats),
    )


def run_round(
    workload: Workload,
    out: Pass,
    configure: Optional[Callable] = None,
    tracer: Optional[spans.Tracer] = None,
) -> None:
    """One round of ``workload``, added to ``out``.

    Only ``workload.run`` is timed; ``prepare``, the reference check
    and ``begin_round``/``end_round`` are not.  ``configure(world)`` is
    applied after ``begin_round``, because a round may bring a fresh
    world."""
    workload.begin_round()
    world = workload.world
    if configure is not None:
        configure(world)
    net_before = _network(world)
    registry_before = layers.registry_snapshot(world)
    for k in range(workload.ops_per_round):
        workload.prepare(k)
        if tracer is not None:
            tracer.begin_op(out.ops)
        cpu_started = time.process_time()
        started = time.perf_counter()
        try:
            outcome = workload.run(k)
        except Exception:  # an op that raises is a failed op
            ended = time.perf_counter()
            if not out.failed:
                traceback.print_exc(file=sys.stderr)
            outcome = None
            out.failed += 1
        else:
            ended = time.perf_counter()
        out.cpu_s += time.process_time() - cpu_started
        out.latencies_s.append(ended - started)
        if tracer is not None:
            tracer.end_op()
        if (
            outcome is not None
            and k % CHECK_EVERY == 0
            and not workload.verify(k, outcome)
        ):
            out.failed += 1
    out.failed += workload.end_round()
    out.round_ends.append((out.ops, out.cpu_s))
    net_after = _network(world)
    registry_after = layers.registry_snapshot(world)
    out.net_bytes += net_after[0] - net_before[0]
    out.net_round_trips += net_after[1] - net_before[1]
    out.sim_ms += net_after[2] - net_before[2]
    for scope, counters in registry_after.items():
        totals = out.registry.setdefault(scope, {})
        for counter, value in counters.items():
            totals[counter] = (
                totals.get(counter, 0.0)
                + value - registry_before[scope][counter]
            )


def measure(workload: Workload, seconds: float) -> Pass:
    """Whole rounds until ``seconds`` have passed (at least one)."""
    out = Pass()
    deadline = time.perf_counter() + seconds
    while True:
        run_round(workload, out)
        if time.perf_counter() >= deadline:
            return out


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def set_up(workload: Workload) -> tuple[float, int]:
    """Median set-up seconds over repeated builds, and the warm-up
    executions the reference rejects.  The last world built is the one
    the run measures."""
    readings: list[float] = []
    while len(readings) < SETUP_REPEATS_MIN or sum(readings) < SETUP_BUDGET_S:
        started = time.perf_counter()
        workload.setup()
        readings.append(time.perf_counter() - started)
    return statistics.median(readings), workload.verify_setup()


def peak_rss_mb() -> float:
    """Peak resident set of this process image.  ``VmHWM`` rather than
    ``ru_maxrss``: across fork + exec the kernel folds the *parent's*
    resident set into the child's ``ru_maxrss``, so under a driver that
    figure reads the driver's size whenever that is the larger one."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sim_ms(measured: Pass) -> float:
    """Simulated network ms, net of what parallel exchanges hid."""
    return (
        measured.sim_ms
        - measured.registry["coordinator"]["executor.parallel_saved_ms"]
    )


def sliced_timings(measured: Pass) -> dict[str, list[float]]:
    """The four timing metrics on each slice of the run."""
    rounds = [(0, 0.0), *measured.round_ends]
    count = min(SLICES, len(rounds) - 1)
    cuts = [rounds[i * (len(rounds) - 1) // count] for i in range(count + 1)]
    per_slice: dict[str, list[float]] = {
        "ops_per_s": [], "op_ms_p50": [], "op_ms_p95": [], "cpu_ms_per_op": [],
    }
    for (start, cpu_start), (end, cpu_end) in zip(cuts, cuts[1:]):
        latencies_ms = [s * 1000.0 for s in measured.latencies_s[start:end]]
        per_slice["ops_per_s"].append(
            len(latencies_ms) * 1000.0 / sum(latencies_ms)
        )
        per_slice["op_ms_p50"].append(statistics.median(latencies_ms))
        per_slice["op_ms_p95"].append(percentile(latencies_ms, 95))
        per_slice["cpu_ms_per_op"].append(
            (cpu_end - cpu_start) * 1000.0 / len(latencies_ms)
        )
    return per_slice


def run_untraced(workload: Workload, seconds: float) -> dict:
    setup_s, setup_failed = set_up(workload)
    measured = measure(workload, seconds)
    ops = measured.ops
    per_slice = sliced_timings(measured)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": max(per_slice["ops_per_s"]),
        "op_ms_p50": min(per_slice["op_ms_p50"]),
        "op_ms_p95": min(per_slice["op_ms_p95"]),
        "cpu_ms_per_op": min(per_slice["cpu_ms_per_op"]),
        "net_bytes_per_op": measured.net_bytes / ops,
        "net_round_trips_per_op": measured.net_round_trips / ops,
        "peak_rss_mb": peak_rss_mb(),
    }
    failed = measured.failed + setup_failed
    latencies_ms = [s * 1000.0 for s in measured.latencies_s]
    return {
        "attempted": ops,
        "failed": failed,
        "metrics": metrics,
        # whole-run figures, for information: p99 moved by a fifth
        # between identical runs, so it is not a metric
        "info": {
            "ops": ops,
            "rounds": len(measured.round_ends),
            "per_slice": per_slice,
            "whole_run_ops_per_s": measured.ops_per_s,
            "whole_run_op_ms_p95": percentile(latencies_ms, 95),
            "whole_run_op_ms_p99": percentile(latencies_ms, 99),
            "error_share": failed / ops,
        },
    }


def _observed(world) -> None:
    """The engine's own observability, all on (the E16 configuration)."""
    world.coordinator.tracing_enabled = True
    world.coordinator.query_store_enabled = True
    world.coordinator.profiling_enabled = True


def _plain(world) -> None:
    for engine in world.engines:
        engine.tracing_enabled = False
        engine.query_store_enabled = False
        engine.profiling_enabled = False


def _profiled(world) -> None:
    """Operator profiles on every engine and nothing else, so the span
    wrappers can read coordinator- and member-side operator self time."""
    _plain(world)
    for engine in world.engines:
        engine.profiling_enabled = True


def run_traced(
    workload: Workload, seconds: float, spans_path=None
) -> dict:
    """Rounds in four modes, taken in turn until ``seconds`` have passed,
    so that a stall or a drift of the machine falls on all four alike:

    1. plain — the base for both overhead figures;
    2. the engine's own observability on (``observability.overhead``);
    3. the span wrappers on and nothing else — every per-layer time and
       count, and ``trace.overhead_share``;
    4. the wrappers plus operator profiling on every engine — only the
       ``execution.op.*`` figures, because the profiler's per-row cost
       would otherwise be charged to ``execute_plan``.
    """
    __, setup_failed = set_up(workload)
    plain, observed, traced, profiled = Pass(), Pass(), Pass(), Pass()
    tracer, profiled_tracer = spans.Tracer(), spans.Tracer()
    deadline = time.perf_counter() + seconds
    while True:
        run_round(workload, plain, _plain)
        run_round(workload, observed, _observed)
        with spans.installed(tracer):
            run_round(workload, traced, _plain, tracer)
        with spans.installed(profiled_tracer):
            run_round(workload, profiled, _profiled, profiled_tracer)
        if time.perf_counter() >= deadline:
            break
    metrics = layers.derive(tracer, traced.registry, traced.ops)
    metrics.update(layers.operator_self_us(profiled_tracer, profiled.ops))
    metrics["network.sim_ms_per_op"] = _sim_ms(traced) / traced.ops
    metrics["observability.overhead_us_per_op"] = (
        observed.wall_s / observed.ops - plain.wall_s / plain.ops
    ) * 1e6
    metrics["trace.overhead_share"] = 1.0 - traced.ops_per_s / plain.ops_per_s
    closure = sum(s[4] for s in tracer.spans) / 1e9 / traced.wall_s
    metrics["trace.closure_share"] = closure
    if spans_path is not None:
        tracer.write(spans_path)
    passes = (plain, observed, traced, profiled)
    failed = (
        setup_failed + sum(p.failed for p in passes)
        + int(abs(1.0 - closure) > CLOSURE_TOLERANCE)
    )
    return {
        "attempted": sum(p.ops for p in passes),
        "failed": failed,
        "metrics": metrics,
        "info": {
            "ops": traced.ops,
            "spans": len(tracer.spans),
            "unresolved_spans": sorted(tracer.unresolved),
        },
    }
