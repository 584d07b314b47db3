"""Structured query traces with hierarchical distributed spans.

A :class:`QueryTrace` collects ordered events for one statement:

* **spans** — timed scopes with identities (``span_id``) and parentage
  (``parent_id``): the engine phases (parse / bind / optimize /
  execute), one span per executed plan operator, and one child span per
  remote command dispatched to a linked server, so retries, backoff
  waits, breaker fast-fails and per-member execution nest under the
  operator that dispatched them;
* **rule firings** — one event per optimizer rule application (rule
  name, phase, memo group, expressions added), the Cascades analogue of
  SQL Server's optimizer trace output;
* **point events** — startup-filter skips, remote query dispatches,
  spool rescans, retries, breaker transitions, and per-linked-server
  network attribution.  Point events carry the ``span_id`` of the span
  that was current when they fired.

Every span carries two durations: ``duration_ms`` is wall-clock time
spent inside the span, and ``net_ms`` is *simulated* network time.  A
channel charge lands on one span only — the innermost span of the
charging thread, as its ``self_net_ms`` — and :meth:`QueryTrace.rollup`
folds every span's self charge into its ancestors along ``parent_id``
once the statement ends, so ``net_ms`` is inclusive: the ``execute``
span's equals the statement's ``simulated_ms``.

The current-span context is an explicit *per-thread* stack.  Pipelined
operators interleave their pulls, so the executor's operator meter
re-enters an operator's span around every ``next()`` — whatever runs
inside a pull (a remote command, a retry backoff, a fault) is
attributed to the operator that triggered it, not to whichever
operator happened to open last.  Parallel exchange workers run on
their own (initially empty) stacks: each opens a ``parallel_branch``
span explicitly parented to the consumer-side exchange span (carrying
``parallelism`` / ``worker`` / ``branch`` attributes), so remote
commands keep nesting correctly while concurrent branches never
contaminate each other's attribution, and the rollup carries their
network time up through the exchange.

Tracing is off by default.  The engine only allocates a QueryTrace when
``tracing_enabled`` is set, and every producer site is guarded by an
``is not None`` check, so a disabled engine records no events and pays
one attribute test per hook.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Iterator, Optional

#: sentinel: "no parent override given" (None is a meaningful parent)
_UNSET = object()

#: the span of an untraced statement: one shared, re-enterable no-op,
#: so call sites write ``with span:`` once instead of forking on
#: ``trace is not None``
NO_SPAN = nullcontext()


class TraceEvent:
    """One point event: a name plus free-form attributes.

    ``span_id`` identifies the span that was current when the event
    fired (None for events outside any span).
    """

    __slots__ = ("name", "at_ms", "attrs", "span_id")

    def __init__(
        self,
        name: str,
        at_ms: float,
        attrs: Dict[str, Any],
        span_id: Optional[int] = None,
    ):
        self.name = name
        self.at_ms = at_ms
        self.attrs = attrs
        self.span_id = span_id

    def as_dict(self) -> Dict[str, Any]:
        out = {"event": self.name, "at_ms": round(self.at_ms, 3), **self.attrs}
        if self.span_id is not None:
            out["span_id"] = self.span_id
        return out

    def __repr__(self) -> str:
        return f"TraceEvent({self.name}, {self.attrs})"


class SpanEvent(TraceEvent):
    """A timed scope in the span hierarchy.

    For a span, ``span_id`` is its *own* identity and ``parent_id``
    points at the enclosing span (None for root spans).  ``duration_ms``
    accumulates wall-clock time spent inside the span; ``self_net_ms``
    the simulated network milliseconds charged while the span was the
    innermost one, and ``net_ms`` that plus every descendant's (set by
    :meth:`QueryTrace.rollup`).
    """

    __slots__ = ("duration_ms", "self_net_ms", "net_ms", "parent_id")

    def __init__(
        self,
        name: str,
        at_ms: float,
        attrs: Dict[str, Any],
        span_id: Optional[int] = None,
        parent_id: Optional[int] = None,
    ):
        super().__init__(name, at_ms, attrs, span_id)
        self.duration_ms: float = 0.0
        self.self_net_ms: float = 0.0
        self.net_ms: float = 0.0
        self.parent_id = parent_id

    def as_dict(self) -> Dict[str, Any]:
        out = super().as_dict()
        out["duration_ms"] = round(self.duration_ms, 3)
        out["self_net_ms"] = round(self.self_net_ms, 3)
        out["net_ms"] = round(self.net_ms, 3)
        out["parent_id"] = self.parent_id
        return out

    def __repr__(self) -> str:
        return (
            f"SpanEvent({self.name}, id={self.span_id}, "
            f"parent={self.parent_id}, {self.duration_ms:.3f}ms)"
        )


class QueryTrace:
    """The ordered event log (and span tree) for one statement."""

    def __init__(self, statement: str = ""):
        self.statement = statement
        #: id of the session the statement ran under (set by the
        #: engine; None for traces built outside a session)
        self.session_id: "int | None" = None
        self.events: list[TraceEvent] = []
        self._started = time.perf_counter()
        self._next_span_id = 1
        #: span-id minting is the one cross-thread mutation that can
        #: corrupt state; the event list itself relies on list.append
        #: being atomic
        self._id_lock = threading.Lock()
        #: the current-span context is *per thread* (innermost span
        #: last): parallel exchange workers each run their own span
        #: stack, rooted at their ``parallel_branch`` span, so channel
        #: charges on a worker attribute to that worker's branch only
        self._tls = threading.local()

    @property
    def _stack(self) -> list[SpanEvent]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def _now_ms(self) -> float:
        return (time.perf_counter() - self._started) * 1000.0

    @staticmethod
    def clock() -> float:
        """Monotonic wall-clock milliseconds, for manual span timing at
        call sites that cannot use the :meth:`span` context manager."""
        return time.perf_counter() * 1000.0

    # -- span context ----------------------------------------------------------
    @property
    def current_span_id(self) -> Optional[int]:
        return self._stack[-1].span_id if self._stack else None

    def begin_span(
        self, name: str, *, parent_span_id: Any = _UNSET, **attrs: Any
    ) -> SpanEvent:
        """Open a span under the current one and make it current.

        Prefer the :meth:`span` context manager; ``begin_span`` exists
        for scopes that cannot be expressed as a ``with`` block (the
        executor's operator meter re-enters its span around each pull).

        ``parent_span_id`` overrides the default parentage (the calling
        thread's current span): exchange workers start on an empty
        stack and pass the consumer-side exchange span's id so branch
        spans keep the plan tree's shape across threads.
        """
        if parent_span_id is _UNSET:
            parent_span_id = self.current_span_id
        with self._id_lock:
            span_id = self._next_span_id
            self._next_span_id += 1
        span = SpanEvent(
            name,
            self._now_ms(),
            attrs,
            span_id=span_id,
            parent_id=parent_span_id,
        )
        self.events.append(span)
        self._stack.append(span)
        return span

    def enter_span(self, span: SpanEvent) -> None:
        """Re-enter an already-created span (operator pulls)."""
        self._stack.append(span)

    def exit_span(self, span: SpanEvent) -> None:
        """Leave a span; tolerant of non-LIFO teardown on error paths."""
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
            return
        try:
            self._stack.remove(span)
        except ValueError:
            pass

    def add_network_ms(self, ms: float) -> None:
        """Charge simulated network time to the *calling thread's*
        innermost span (the channel's charging hook); :meth:`rollup`
        makes the charge inclusive."""
        stack = self._stack
        if stack:
            stack[-1].self_net_ms += ms

    def rollup(self) -> None:
        """Recompute every span's inclusive ``net_ms`` from the self
        charges.  A child span is always appended after its parent, so
        one reverse pass folds each subtree before its root; the pass
        starts from the self charges, so calling it again is a no-op."""
        spans = self.spans()
        by_id = {}
        for span in spans:
            span.net_ms = span.self_net_ms
            by_id[span.span_id] = span
        for span in reversed(spans):
            parent = by_id.get(span.parent_id)
            if parent is not None:
                parent.net_ms += span.net_ms

    # -- producers ------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[SpanEvent]:
        span = self.begin_span(name, **attrs)
        started = time.perf_counter()
        try:
            yield span
        finally:
            span.duration_ms += (time.perf_counter() - started) * 1000.0
            self.exit_span(span)

    def event(self, name: str, **attrs: Any) -> TraceEvent:
        event = TraceEvent(
            name, self._now_ms(), attrs, span_id=self.current_span_id
        )
        self.events.append(event)
        return event

    def rule_fired(
        self, rule_name: str, phase: int, group_id: int, added: int
    ) -> None:
        self.event(
            "rule_fired",
            rule=rule_name,
            phase=phase,
            group=group_id,
            expressions_added=added,
        )

    def network(self, server: str, delta: Dict[str, float]) -> None:
        """Per-linked-server attribution for this statement."""
        self.event("network", server=server, **delta)

    # -- consumers ------------------------------------------------------------
    def spans(self, name: Optional[str] = None) -> list[SpanEvent]:
        return [
            e
            for e in self.events
            if isinstance(e, SpanEvent) and (name is None or e.name == name)
        ]

    def remote_command_spans(self) -> list[SpanEvent]:
        """Spans that cover one remote command / remote rowset each."""
        return self.spans("remote_command")

    def rule_firings(self) -> list[TraceEvent]:
        return [e for e in self.events if e.name == "rule_fired"]

    def network_events(self) -> list[TraceEvent]:
        return [e for e in self.events if e.name == "network"]

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "statement": self.statement,
            "events": [e.as_dict() for e in self.events],
        }
        if self.session_id is not None:
            payload["session_id"] = self.session_id
        return payload

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, default=str)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"QueryTrace({self.statement!r}, {len(self.events)} events)"
