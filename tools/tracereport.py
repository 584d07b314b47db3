#!/usr/bin/env python
"""Render span trees and Query Store regressions from saved telemetry.

Input is JSON, from any of the engine's exporters:

* a ``QueryResult.to_json()`` payload (its ``trace`` section),
* a raw ``QueryTrace.as_dict()`` dump (``statement`` + ``events``),
* a ``QueryStore.as_dict()`` dump (``query_store`` section).

Usage::

    python tools/tracereport.py result.json            # all sections
    python tools/tracereport.py result.json --spans    # span tree only
    python tools/tracereport.py store.json --regressions --top 5
    some-producer | python tools/tracereport.py -      # read stdin

The span tree shows, per span: wall-clock ``duration_ms``, simulated
network ``net_ms`` (inclusive of the span's descendants) beside
``self_net_ms`` (charged while the span itself was innermost), and the
resilience attributes remote-command spans carry (retries, backoff ms,
breaker fast-fails, round trips).  Point events (retries, fault
injections, breaker transitions) print under the span that was current
when they fired, with ``--events``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

#: span attributes surfaced inline when non-zero
_RESILIENCE_ATTRS = ("retries", "backoff_ms", "breaker_fast_fails",
                     "round_trips")


def _is_span(event: Dict[str, Any]) -> bool:
    return "duration_ms" in event and "span_id" in event


def _span_label(span: Dict[str, Any]) -> str:
    name = span.get("event", "?")
    if name == "operator":
        return str(span.get("operator", "operator"))
    if name == "remote_command":
        return (
            f"remote_command -> {span.get('server', '?')} "
            f"[{span.get('operation', '?')}]"
        )
    return name


def _format_span(span: Dict[str, Any]) -> str:
    parts = [
        _span_label(span),
        f"wall={span.get('duration_ms', 0.0):.3f}ms",
        f"net={span.get('net_ms', 0.0):.3f}ms",
        f"self_net={span.get('self_net_ms', 0.0):.3f}ms",
    ]
    for attr in _RESILIENCE_ATTRS:
        value = span.get(attr)
        if value:
            parts.append(f"{attr}={value}")
    return "  ".join(parts)


def render_span_tree(
    trace: Dict[str, Any], include_events: bool = False
) -> List[str]:
    """Indented span-tree lines for one trace dict."""
    events = trace.get("events", [])
    spans = [e for e in events if _is_span(e)]
    points = [e for e in events if not _is_span(e)]
    children: Dict[Optional[int], List[Dict[str, Any]]] = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)
    points_by_span: Dict[Optional[int], List[Dict[str, Any]]] = {}
    for point in points:
        points_by_span.setdefault(point.get("span_id"), []).append(point)

    lines: List[str] = []
    statement = trace.get("statement")
    if statement:
        lines.append(f"statement: {statement}")

    def emit(span: Dict[str, Any], depth: int) -> None:
        lines.append("  " * depth + _format_span(span))
        if include_events:
            for point in points_by_span.get(span["span_id"], []):
                attrs = {
                    k: v for k, v in point.items()
                    if k not in ("event", "at_ms", "span_id")
                }
                lines.append(
                    "  " * (depth + 1) + f". {point['event']} {attrs}"
                )
        for child in children.get(span["span_id"], []):
            emit(child, depth + 1)

    for root in children.get(None, []):
        emit(root, 0)
    if include_events:
        orphans = points_by_span.get(None, [])
        for point in orphans:
            attrs = {
                k: v for k, v in point.items()
                if k not in ("event", "at_ms", "span_id")
            }
            lines.append(f". {point['event']} {attrs}")
    if not spans:
        lines.append("<no spans recorded>")
    return lines


def render_regressions(
    store: Dict[str, Any], top: int = 10
) -> List[str]:
    """Top plan regressions from a ``QueryStore.as_dict()`` dump."""
    regressions = store.get("regressions", [])
    lines: List[str] = []
    if not regressions:
        lines.append("no plan regressions detected")
        return lines
    lines.append(
        f"{len(regressions)} plan regression(s), worst first:"
    )
    for reg in regressions[:top]:
        lines.append(
            f"  x{reg.get('ratio', 0)}  {reg.get('query_hash')}  "
            f"{reg.get('prior_fingerprint')} -> "
            f"{reg.get('active_fingerprint')}  "
            f"({reg.get('prior_mean_latency_ms')}ms -> "
            f"{reg.get('active_mean_latency_ms')}ms)"
        )
        lines.append(f"      {reg.get('query_text')}")
    if len(regressions) > top:
        lines.append(f"  ... {len(regressions) - top} more")
    return lines


def render_payload(
    payload: Dict[str, Any],
    spans_only: bool = False,
    regressions_only: bool = False,
    include_events: bool = False,
    top: int = 10,
) -> List[str]:
    """Render every recognized section of a telemetry payload."""
    trace = None
    store = None
    if "trace" in payload:
        trace = payload["trace"]
    elif "events" in payload:
        trace = payload
    if "query_store" in payload:
        store = payload["query_store"]

    lines: List[str] = []
    if trace is not None and not regressions_only:
        lines.append("== span tree ==")
        lines += render_span_tree(trace, include_events=include_events)
    if store is not None and not spans_only:
        if lines:
            lines.append("")
        lines.append("== query store regressions ==")
        lines += render_regressions(store, top=top)
    if trace is None and store is None:
        lines.append(
            "tracereport: no 'trace', 'events' or 'query_store' section "
            "found in the payload"
        )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", help="JSON file to render, or - for stdin")
    parser.add_argument("--spans", action="store_true",
                        help="render only the span tree")
    parser.add_argument("--regressions", action="store_true",
                        help="render only the regression report")
    parser.add_argument("--events", action="store_true",
                        help="include point events under their spans")
    parser.add_argument("--top", type=int, default=10,
                        help="regressions shown (default 10)")
    args = parser.parse_args()

    if args.path == "-":
        payload = json.load(sys.stdin)
    else:
        with open(args.path, encoding="utf-8") as handle:
            payload = json.load(handle)

    for line in render_payload(
        payload,
        spans_only=args.spans,
        regressions_only=args.regressions,
        include_events=args.events,
        top=args.top,
    ):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
