"""Per-operator runtime profiles (``SET STATISTICS PROFILE`` analogue).

When profiling is enabled on an :class:`~repro.execution.context.ExecutionContext`,
the executor's operator meter (:func:`repro.execution.executor.open_plan`)
times every pull of every operator once and charges it through
:meth:`OperatorProfile.pulled`, which records per plan node:

* ``actual_rows`` — rows the operator produced (summed over re-opens);
* ``opens`` — how many times the operator was opened (``opens - 1``
  rescans, the interesting number over remote sources);
* ``open_ms`` — time spent producing the *first* row, including the
  runner's open work (a remote query's schema validation and command
  dispatch, a hash-join build, a sort), which the meter defers to the
  first pull so that it is this operator's and not its consumer's;
* ``next_ms`` — time spent producing the remaining rows;
* ``close_ms`` — time spent in the exhausting call (StopIteration); an
  open that produces no row charges its one pull, open work included,
  here;
* ``startup_skips`` — times a startup filter pruned the subtree without
  opening it (Section 4.1.5 runtime pruning, visible per node).

``render_analyze`` prints the plan tree annotated with estimated vs.
actual rows so cardinality misestimates are visible at a glance.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class OperatorProfile:
    """Runtime counters for one physical plan node."""

    __slots__ = (
        "label",
        "est_rows",
        "actual_rows",
        "opens",
        "open_ms",
        "next_ms",
        "close_ms",
        "startup_skips",
    )

    def __init__(self, label: str, est_rows: float):
        self.label = label
        self.est_rows = est_rows
        self.actual_rows = 0
        self.opens = 0
        self.open_ms = 0.0
        self.next_ms = 0.0
        self.close_ms = 0.0
        self.startup_skips = 0

    def pulled(self, ms: float, opening: bool, produced: bool) -> None:
        """Charge one pull of ``ms``: the opening pull's row is open
        time, a later row next time, and the exhausting pull close
        time."""
        if not produced:
            self.close_ms += ms
            return
        self.actual_rows += 1
        if opening:
            self.open_ms += ms
        else:
            self.next_ms += ms

    @property
    def rescans(self) -> int:
        return max(0, self.opens - 1)

    @property
    def total_ms(self) -> float:
        return self.open_ms + self.next_ms + self.close_ms

    def as_dict(self) -> Dict[str, Any]:
        return {
            "operator": self.label,
            "est_rows": round(self.est_rows, 1),
            "actual_rows": self.actual_rows,
            "opens": self.opens,
            "rescans": self.rescans,
            "open_ms": round(self.open_ms, 3),
            "next_ms": round(self.next_ms, 3),
            "close_ms": round(self.close_ms, 3),
            "startup_skips": self.startup_skips,
        }

    def __repr__(self) -> str:
        return (
            f"OperatorProfile({self.label}: actual={self.actual_rows}, "
            f"est={self.est_rows:.1f}, {self.total_ms:.3f}ms)"
        )


class PlanProfiler:
    """Collects :class:`OperatorProfile` objects for one plan execution.

    Profiles are keyed by plan-node identity; a subtree the optimizer
    shares between two plan positions (or a re-opened inner) accumulates
    into one profile, mirroring how the spool cache is keyed.
    """

    def __init__(self) -> None:
        self.profiles: Dict[int, OperatorProfile] = {}

    def profile_for(self, plan: Any) -> OperatorProfile:
        key = id(plan)
        profile = self.profiles.get(key)
        if profile is None:
            profile = OperatorProfile(type(plan).__name__, plan.est_rows)
            self.profiles[key] = profile
        return profile

    def lookup(self, plan: Any) -> Optional[OperatorProfile]:
        return self.profiles.get(id(plan))

    def as_rows(self, plan: Any) -> list[Dict[str, Any]]:
        """Pre-order operator dicts for structured consumption."""
        out = []
        for depth, node in _walk_depth(plan, 0):
            profile = self.lookup(node)
            entry = (
                profile.as_dict()
                if profile is not None
                else OperatorProfile(type(node).__name__, node.est_rows).as_dict()
            )
            entry["depth"] = depth
            out.append(entry)
        return out

    def __len__(self) -> int:
        return len(self.profiles)

    def __repr__(self) -> str:
        return f"PlanProfiler({len(self.profiles)} operators)"


def _walk_depth(plan: Any, depth: int):
    yield depth, plan
    for child in plan.children:
        yield from _walk_depth(child, depth + 1)


#: the ``remote_command`` span attributes :func:`remote_stats_by_node`
#: adds up per node and server
_REMOTE_ATTRS = ("retries", "backoff_ms", "breaker_fast_fails")


def remote_stats_by_node(trace: Any) -> Dict[int, Dict[str, Dict[str, float]]]:
    """Aggregate ``remote_command`` spans per dispatching plan node.

    Operator spans carry the plan node's identity (``node_id``); each
    remote command is a child span of the operator that dispatched it,
    so walking parentage attributes retries, backoff waits, breaker
    fast-fails and network time to specific plan nodes, per server.
    """
    spans_by_id = {s.span_id: s for s in trace.spans()}
    out: Dict[int, Dict[str, Dict[str, float]]] = {}
    for span in trace.remote_command_spans():
        parent = spans_by_id.get(span.parent_id)
        node_id = parent.attrs.get("node_id") if parent is not None else None
        if node_id is None:
            continue
        attrs = span.attrs
        entry = out.setdefault(node_id, {}).setdefault(
            attrs["server"],
            dict.fromkeys(("commands", *_REMOTE_ATTRS, "net_ms"), 0),
        )
        entry["commands"] += 1
        for attr in _REMOTE_ATTRS:
            entry[attr] += attrs[attr]
        entry["net_ms"] += span.net_ms
    return out


def render_analyze(
    plan: Any,
    profiler: PlanProfiler,
    network: Optional[Dict[str, Dict[str, float]]] = None,
    trace: Any = None,
) -> list[str]:
    """The EXPLAIN ANALYZE text: plan tree + actual-vs-estimated
    annotations, followed by per-linked-server network attribution.

    When a trace with spans is supplied, remote operators additionally
    carry per-server resilience annotations (retries, backoff ms,
    breaker fast-fails, simulated network ms) derived from their
    ``remote_command`` child spans.
    """
    remote_by_node = remote_stats_by_node(trace) if trace is not None else {}
    lines: list[str] = []
    for depth, node in _walk_depth(plan, 0):
        profile = profiler.lookup(node)
        if profile is None:
            annotation = "[never executed]"
        elif profile.opens == 0 and profile.startup_skips > 0:
            annotation = f"[skipped by startup filter x{profile.startup_skips}]"
        else:
            annotation = (
                f"[actual={profile.actual_rows} est={profile.est_rows:.1f} "
                f"opens={profile.opens} open={profile.open_ms:.3f}ms "
                f"next={profile.next_ms:.3f}ms close={profile.close_ms:.3f}ms]"
            )
            if profile.startup_skips:
                annotation = annotation[:-1] + (
                    f" startup_skips={profile.startup_skips}]"
                )
        line = "  " * depth + repr(node) + " " + annotation
        for server, stats in sorted(remote_by_node.get(id(node), {}).items()):
            line += (
                f" [remote {server}: commands={int(stats['commands'])} "
                f"retries={int(stats['retries'])} "
                f"backoff={stats['backoff_ms']:.1f}ms "
                f"fast_fails={int(stats['breaker_fast_fails'])} "
                f"net={stats['net_ms']:.2f}ms]"
            )
        lines.append(line)
    if network:
        lines.append("-- network --")
        for server, delta in sorted(network.items()):
            lines.append(
                f"{server}: sent={int(delta['bytes_sent'])}B "
                f"recv={int(delta['bytes_received'])}B "
                f"round_trips={int(delta['round_trips'])} "
                f"simulated={delta['simulated_ms']:.2f}ms"
            )
    return lines
