"""Partial-results degradation for partitioned views.

Under ``SET PARTIAL_RESULTS ON`` the engine answers a federated query
from the partitions it can still reach: before optimization (and again
after a mid-query failure) it replaces every ``UnionAll`` branch whose
subtree lives on an unavailable member with an empty table, which the
optimizer's normalization then drops exactly as it drops a branch whose
CHECK domain contradicts the predicate.  The breaker state, not a
predicate, decides which branches are empty.  Each emptied branch is
recorded as a :class:`SkippedPartition`, and the resulting
:class:`PartialResultsInfo` is stamped onto the ``QueryResult`` so the
caller always knows the answer is incomplete, which members were
skipped, and why.

Default mode never calls into this module: fail-stop semantics are
untouched, and PV DML stays fail-stop/atomic via the DTC in either
mode.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.algebra.logical import EmptyTable, Get, LogicalOp, UnionAll
from repro.core.rules.normalization import defs_for, normalize


class SkippedPartition:
    """One partitioned-view member excluded from a degraded answer."""

    __slots__ = ("server", "table", "reason")

    def __init__(self, server: str, table: str, reason: str):
        self.server = server
        self.table = table
        self.reason = reason

    def as_dict(self) -> Dict[str, str]:
        return {
            "server": self.server,
            "table": self.table,
            "reason": self.reason,
        }

    def __repr__(self) -> str:
        return f"SkippedPartition({self.server}.{self.table}: {self.reason})"


class PartialResultsInfo:
    """Incomplete-result metadata attached to a degraded QueryResult."""

    def __init__(self, skipped: Optional[List[SkippedPartition]] = None):
        self.skipped: List[SkippedPartition] = list(skipped or [])

    @property
    def is_partial(self) -> bool:
        return bool(self.skipped)

    @property
    def skipped_servers(self) -> List[str]:
        seen: List[str] = []
        for entry in self.skipped:
            if entry.server not in seen:
                seen.append(entry.server)
        return seen

    def as_dict(self) -> Dict[str, Any]:
        return {
            "is_partial": self.is_partial,
            "skipped_partitions": [s.as_dict() for s in self.skipped],
        }

    def __repr__(self) -> str:
        return f"PartialResultsInfo(skipped={self.skipped})"


def pv_member_tables(root: LogicalOp) -> frozenset:
    """``(server, qualified_name)`` pairs of remote partitioned-view
    members: every remote Get underneath a UnionAll in the *bound*
    tree.  Collected before normalization, because static pruning can
    collapse a one-survivor union into a bare remote read — this set
    is how the partial-results pruner still recognizes that read as a
    PV member (degradable) rather than a plain remote table
    (fail-stop)."""
    members = set()
    stack: List[Tuple[LogicalOp, bool]] = [(root, False)]
    while stack:
        node, under_union = stack.pop()
        if under_union and isinstance(node, Get) and node.table.server:
            members.add((node.table.server, node.table.qualified_name))
        inside = under_union or isinstance(node, UnionAll)
        stack.extend((child, inside) for child in node.inputs)
    return frozenset(members)


def prune_unavailable_branches(
    root: LogicalOp,
    is_down: Callable[[str], bool],
    pv_members: frozenset,
    reason_for: Callable[[str], str],
) -> Tuple[LogicalOp, List[SkippedPartition]]:
    """Empty out what reads an unavailable server.

    Every UnionAll branch that reads an unavailable server becomes an
    ``EmptyTable`` over the branch's column ids; the union rewrite of
    :func:`~repro.core.rules.normalization.normalize`, which the
    optimizer runs next, drops it.  A bare Get of a known PV member
    (``pv_members``, from :func:`pv_member_tables`) that static pruning
    already collapsed a union onto becomes ``EmptyTable`` too: the
    predicate routed the query to a dead partition, so the partial
    answer is empty, not an error.  Reads of an unavailable server that
    are neither under a union nor a known PV member stay: they have no
    healthy sibling to degrade to, so they keep fail-stop semantics
    even in partial mode.

    Returns the rewritten tree plus one :class:`SkippedPartition` per
    emptied member read; ``reason_for`` maps a server name to the
    reason recorded on it (the engine stamps ``"in_doubt"`` on members
    fenced off by an unresolved distributed transaction and
    ``"circuit_open"`` otherwise).
    """
    skipped: List[SkippedPartition] = []

    def emptied(op: LogicalOp, column_defs: Any) -> LogicalOp:
        dead = []
        stack = [op]
        while stack:
            node = stack.pop()
            if (
                isinstance(node, Get)
                and node.table.server is not None
                and is_down(node.table.server)
            ):
                dead.append(
                    SkippedPartition(
                        node.table.server,
                        node.table.qualified_name,
                        reason_for(node.table.server),
                    )
                )
            stack.extend(node.inputs)
        if not dead:
            return op
        skipped.extend(dead)
        return EmptyTable(column_defs)

    def visit(op: LogicalOp, under_union: bool) -> LogicalOp:
        if isinstance(op, Get):
            member = (op.table.server, op.table.qualified_name)
            if not under_union and member in pv_members:
                return emptied(op, op.table.columns)
            return op
        inside = under_union or isinstance(op, UnionAll)
        inputs = [visit(child, inside) for child in op.inputs]
        if isinstance(op, UnionAll):
            inputs = [emptied(branch, defs_for(branch)) for branch in inputs]
        if inputs != list(op.inputs):
            op = op.with_inputs(inputs)
        return op

    return visit(root, False), skipped


def prune_unreachable_members(
    engine: Any, root: LogicalOp, trace: Any, allow_probes: bool
) -> Tuple[LogicalOp, List[SkippedPartition]]:
    """Partial-results planning for one statement: empty the PV branches
    whose member is unreachable (breaker open) or fenced by an in-doubt
    distributed transaction, recording each as a skipped partition.

    The initial plan admits at most ONE probe-due open breaker (so
    half-open probes keep running and a recovered member is folded
    back in), routing around every other open breaker.  The replan
    pass (``allow_probes`` off) admits none — it must route around
    everything open, or a second synchronized probe window would burn
    the single replan and fail the statement.
    """
    # remember which remote tables are PV members while the unions are
    # still intact, then normalize so static pruning drops branches the
    # predicates contradict — a query routed entirely to live members
    # must not be stamped partial, while one collapsed onto a dead
    # member degrades to empty
    members = pv_member_tables(root)
    root = normalize(root, engine.optimizer.options)
    health = engine.health
    in_doubt = engine.dtc.in_doubt_branches()
    probing: List[str] = []

    def unavailable(server_name: str) -> bool:
        if server_name.lower() in in_doubt:
            return True
        if not allow_probes:
            return health.is_open(server_name)
        if health.should_route_around(server_name):
            return True
        if health.is_open(server_name):  # probe-due
            if probing and server_name not in probing:
                return True  # one probe per statement
            probing.append(server_name)
        return False

    root, skipped = prune_unavailable_branches(
        root,
        unavailable,
        members,
        lambda server_name: (
            "in_doubt" if server_name.lower() in in_doubt else "circuit_open"
        ),
    )
    if skipped and trace is not None:
        trace.event(
            "partial_results_prune", skipped=[s.as_dict() for s in skipped]
        )
    return root, skipped
