"""Spans around the engine's own layer boundaries, from outside.

:data:`TARGETS` names public callables on the real ``engine.execute``
path; :func:`installed` wraps each where the engine looks it up and
unwraps on exit.  Nothing here re-drives the pipeline by hand, so a
later change that reorders the pipeline moves the numbers.  A target
that no longer resolves is reported in ``Tracer.unresolved`` and its
metrics read ``null``; it never stops a run.

A span's *busy* time is its duration; for a generator it is the time
inside ``next()`` only.  Its *self* time is busy minus the busy time of
the spans that ran inside it.  Spans are kept in memory and written
out (:meth:`Tracer.write`) after the pass.  One thread only: a call
from any other thread goes through untimed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Iterator, Optional

#: (defining module, qualified name, span name)
TARGETS = (
    ("repro.engine", "ServerInstance.execute", "engine.execute"),
    ("repro.sql.lexer", "tokenize_sql", "sql.lex"),
    ("repro.sql.parser", "parse_sql", "sql.parse"),
    ("repro.observability.querystore", "normalize_query_text", "plancache.key"),
    ("repro.execution.plancache", "PlanCache.lookup", "plancache.lookup"),
    ("repro.execution.plancache", "PlanCache.store", "plancache.store"),
    ("repro.execution.plancache", "PlanCache.invalidate_tables",
     "plancache.invalidate"),
    ("repro.sql.binder", "Binder.bind_select", "binder.bind"),
    ("repro.core.linked_server", "LinkedServer.table_info",
     "linked_server.table_info"),
    ("repro.stats.table_stats", "TableStatistics.build", "stats.build"),
    ("repro.stats.histogram", "Histogram.build", "stats.histogram"),
    ("repro.stats.histogram", "Histogram.estimate_interval_set",
     "stats.estimate"),
    ("repro.core.optimizer", "Optimizer.optimize", "optimizer.optimize"),
    ("repro.core.decoder", "Decoder.decode_group", "decoder.decode"),
    ("repro.core.decoder", "Decoder.decode_tree", "decoder.decode"),
    ("repro.governor", "ResourceGovernor.admit", "governor.admit"),
    ("repro.governor", "ResourceGovernor.complete", "governor.admit"),
    ("repro.governor", "ResourceGovernor.acquire_grant", "governor.grant"),
    ("repro.execution.executor", "execute_plan", "execution.execute_plan"),
    ("repro.oledb.command", "Command.execute", "oledb.command"),
    ("repro.network.channel", "NetworkChannel.send_command",
     "network.send_command"),
    ("repro.network.channel", "NetworkChannel.stream_rows",
     "network.stream_rows"),
    ("repro.dtc.coordinator", "TransactionCoordinator.commit", "dtc.commit"),
    ("repro.dtc.log", "CoordinatorLog.append", "dtc.log"),
    ("repro.dtc.log", "CoordinatorLog.flush", "dtc.log"),
    ("repro.federation.dml", "insert_into_partitioned_view", "federation.dml"),
    ("repro.federation.dml", "update_partitioned_view", "federation.dml"),
    ("repro.storage.table", "Table.insert", "storage.write"),
    ("repro.storage.table", "Table.update", "storage.write"),
    ("repro.storage.table", "Table.delete", "storage.write"),
)

#: the span a nested ``ServerInstance.execute`` (a linked member
#: running a shipped statement) is recorded under
MEMBER_EXECUTE = "member.execute"
_NO_KWARGS: dict = {}


class Tracer:
    """In-memory span store plus the counts read at the same places."""

    def __init__(self) -> None:
        #: [name, start_ns, end_ns, busy_ns, self_ns, parent, op] per span;
        #: a span's id is its index
        self.spans: list[list] = []
        #: counts taken where the work happens (rows streamed, rows
        #: scanned for statistics, rules fired, operator self time...)
        self.counts: Counter = Counter()
        #: "module:qualified name" of every target that did not resolve
        self.unresolved: set[str] = set()
        self.op = -1
        self._stack: list[list] = []  # [span id, child busy ns]
        self._thread = threading.get_ident()

    # -- op boundaries (driven by the harness) --------------------------
    def begin_op(self, op: int) -> None:
        self.op = op

    def end_op(self) -> None:
        self.op = -1

    @property
    def recording(self) -> bool:
        return self.op >= 0 and threading.get_ident() == self._thread

    # -- span mechanics --------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, 0, 0, 0, 0, parent, self.op])
        return len(self.spans) - 1

    def _run(self, span: int, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Time one stretch of ``span`` (a call, or one ``next()``)."""
        frame = [span, 0]
        self._stack.append(frame)
        started = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            ended = perf_counter_ns()
            self._stack.pop()
            busy = ended - started
            record = self.spans[span]
            if not record[1]:
                record[1] = started
            record[2] = ended
            record[3] += busy
            record[4] += busy - frame[1]
            if self._stack:
                self._stack[-1][1] += busy

    @property
    def depth(self) -> int:
        """How many spans are running now."""
        return len(self._stack)

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        return self._run(self._open(name), fn, args, kwargs)

    def generator(self, name: str, inner: Iterator) -> Iterator:
        span = self._open(name)
        advance = inner.__next__
        try:
            while True:
                try:
                    item = self._run(span, advance, (), _NO_KWARGS)
                except StopIteration:
                    return
                self.counts[name + ".items"] += 1
                yield item
        finally:
            close = getattr(inner, "close", None)
            if close is not None:
                close()

    # -- output ----------------------------------------------------------
    def write(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "busy_ns", "self_ns",
                "parent", "op")
        with open(path, "w", encoding="utf-8") as out:
            for span_id, record in enumerate(self.spans):
                row = {"id": span_id, **dict(zip(keys, record))}
                out.write(json.dumps(row) + "\n")


# -- what each wrapper reads off the call it wraps -----------------------
def _after_execute(tracer: Tracer, result) -> None:
    tracer.counts["governor.wait_ms"] += (
        result.admission_wait_ms + result.grant_wait_ms
    )
    profiler, plan = result.profile, result.plan
    if profiler is None or plan is None:
        return
    stack = [plan]
    while stack:
        node = stack.pop()
        profile = profiler.lookup(node)
        stack.extend(node.children)
        if profile is None:
            continue
        below = sum(
            child.total_ms
            for child in map(profiler.lookup, node.children)
            if child is not None
        )
        tracer.counts[f"op.{profile.label}.self_us"] += max(
            0.0, profile.total_ms - below
        ) * 1000.0


def _after_optimize(tracer: Tracer, result) -> None:
    tracer.counts["optimizer.rules_fired"] += sum(
        p.rules_fired for p in result.phase_stats
    )
    tracer.counts["optimizer.expressions_added"] += sum(
        p.expressions_added for p in result.phase_stats
    )


def _after_stats_build(tracer: Tracer, result) -> None:
    tracer.counts["stats.build.rows"] += result.row_count


AFTER = {
    "engine.execute": _after_execute,
    "optimizer.optimize": _after_optimize,
    "stats.build": _after_stats_build,
}


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    after = AFTER.get(name)

    if inspect.isgeneratorfunction(fn):
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            return tracer.generator(name, inner) if tracer.recording else inner
    elif name == "engine.execute":
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            # the harness calls only the coordinator, so an execute that
            # starts inside another span is a member running shipped SQL
            result = tracer.call(
                MEMBER_EXECUTE if tracer.depth else name, fn, args, kwargs
            )
            after(tracer, result)
            return result
    else:
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            result = tracer.call(name, fn, args, kwargs)
            if after is not None:
                after(tracer, result)
            return result

    return functools.wraps(fn)(wrapper)


def _resolve(module_name: str, qualified: str):
    """(owner, attribute, raw value) or None when the target is gone."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attribute = qualified.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(attribute)
    return None if raw is None else (owner, attribute, raw)


@contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Wrap every target for the duration of the ``with`` block."""
    undo: list[tuple[Any, str, Any]] = []
    try:
        for module_name, qualified, name in targets:
            found = _resolve(module_name, qualified)
            if found is None:
                tracer.unresolved.add(f"{module_name}:{qualified}")
                continue
            owner, attribute, raw = found
            if isinstance(raw, staticmethod):
                wrapped: Any = staticmethod(_wrap(tracer, name, raw.__func__))
            else:
                wrapped = _wrap(tracer, name, raw)
            holders = [owner]
            if "." not in qualified:
                # ``from x import f`` copies the name: patch it wherever
                # the engine looks it up
                holders += [
                    module
                    for key, module in list(sys.modules.items())
                    if key.startswith("repro.")
                    and module is not owner
                    and vars(module).get(attribute) is raw
                ]
            for holder in holders:
                undo.append((holder, attribute, vars(holder)[attribute]))
                setattr(holder, attribute, wrapped)
        yield tracer
    finally:
        for holder, attribute, original in reversed(undo):
            setattr(holder, attribute, original)


def unresolved_spans(tracer: Tracer, targets=TARGETS) -> set[str]:
    """Span names none of whose targets resolved."""
    resolved = {
        name for module, qualified, name in targets
        if f"{module}:{qualified}" not in tracer.unresolved
    }
    return {name for __, ___, name in targets} - resolved
