"""Partial-results degradation for partitioned views.

Under ``SET PARTIAL_RESULTS ON`` the engine answers a federated query
from the partitions it can still reach: before optimization (and again
after a mid-query failure) it prunes every ``UnionAll`` branch whose
subtree lives on an unavailable member — exactly the branch-dropping
the static pruner performs for contradicted CHECK domains, but driven
by breaker state instead of predicates.  Each dropped branch is
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

from repro.algebra.expressions import ColumnRef
from repro.algebra.logical import EmptyTable, Get, LogicalOp, Project, UnionAll
from repro.core.rules.normalization import normalize


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


def subtree_servers(op: LogicalOp) -> frozenset:
    """Linked-server names a logical subtree reads from."""
    found = set()
    stack = [op]
    while stack:
        node = stack.pop()
        if isinstance(node, Get) and node.table.server is not None:
            found.add(node.table.server)
        stack.extend(node.inputs)
    return frozenset(found)


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


def _branch_skips(
    branch: LogicalOp,
    down: frozenset,
    reason_for: Callable[[str], str],
) -> List[SkippedPartition]:
    entries: List[SkippedPartition] = []
    stack = [branch]
    while stack:
        node = stack.pop()
        if isinstance(node, Get) and node.table.server in down:
            entries.append(
                SkippedPartition(
                    node.table.server,
                    node.table.qualified_name,
                    reason_for(node.table.server),
                )
            )
        stack.extend(node.inputs)
    return entries


def prune_unavailable_branches(
    root: LogicalOp,
    is_down: Callable[[str], bool],
    pv_members: frozenset = frozenset(),
    reason_for: Optional[Callable[[str], str]] = None,
) -> Tuple[LogicalOp, List[SkippedPartition]]:
    """Drop UnionAll branches that read from unavailable servers.

    Returns the (possibly rebuilt) tree plus one entry per skipped
    member table.  Mirrors the static pruner's branch-drop mechanics:
    a single surviving branch is projected onto the union's output ids,
    zero survivors become an EmptyTable with the union's definitions.

    ``pv_members`` carries the ``(server, qualified_name)`` set from
    :func:`pv_member_tables`: when static pruning already collapsed a
    union to exactly the unavailable member, the surviving bare Get is
    still recognized as a partition and degrades to an EmptyTable —
    the predicate routed the query to a dead partition, so the partial
    answer is empty, not an error.  Non-union reads of an unavailable
    server that are *not* known PV members are left in place — they
    have no healthy sibling to degrade to, so they keep fail-stop
    semantics even in partial mode.

    ``reason_for`` maps a server name to the skip reason recorded on
    its :class:`SkippedPartition` (default ``"circuit_open"``); the
    engine uses it to stamp ``"in_doubt"`` on members fenced off by an
    unresolved distributed transaction rather than a tripped breaker.
    """
    skipped: List[SkippedPartition] = []
    if reason_for is None:
        reason_for = lambda server: "circuit_open"  # noqa: E731

    def visit(op: LogicalOp) -> LogicalOp:
        new_inputs = tuple(visit(child) for child in op.inputs)
        if new_inputs != tuple(op.inputs):
            op = op.with_inputs(new_inputs)
        if not isinstance(op, UnionAll):
            return op
        live: List[Tuple[LogicalOp, dict]] = []
        for branch, branch_map in zip(op.inputs, op.branch_maps):
            down = frozenset(
                s for s in subtree_servers(branch) if is_down(s)
            )
            if down:
                skipped.extend(_branch_skips(branch, down, reason_for))
            else:
                live.append((branch, branch_map))
        if len(live) == len(op.inputs):
            return op
        if not live:
            return EmptyTable(op.output_defs)
        if len(live) == 1:
            branch, branch_map = live[0]
            outputs = []
            for definition in op.output_defs:
                branch_cid = branch_map[definition.cid]
                outputs.append(
                    (
                        definition.cid,
                        ColumnRef(
                            branch_cid, definition.name, definition.type
                        ),
                    )
                )
            return Project(branch, outputs, op.output_defs)
        return UnionAll(
            [b for b, __ in live],
            op.output_defs,
            [m for __, m in live],
        )

    def degrade_collapsed(op: LogicalOp) -> LogicalOp:
        if (
            isinstance(op, Get)
            and op.table.server is not None
            and is_down(op.table.server)
            and (op.table.server, op.table.qualified_name) in pv_members
        ):
            skipped.append(
                SkippedPartition(
                    op.table.server,
                    op.table.qualified_name,
                    reason_for(op.table.server),
                )
            )
            return EmptyTable(op.table.columns)
        new_inputs = tuple(degrade_collapsed(child) for child in op.inputs)
        if new_inputs != tuple(op.inputs):
            op = op.with_inputs(new_inputs)
        return op

    pruned = visit(root)
    if pv_members:
        pruned = degrade_collapsed(pruned)
    return pruned, skipped


def prune_unreachable_members(
    engine: Any, root: LogicalOp, trace: Any, allow_probes: bool
) -> Tuple[LogicalOp, List[SkippedPartition]]:
    """Partial-results planning for one statement: drop the PV branches
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
    root = normalize(root, engine.optimizer.normalize_options())
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
        pv_members=members,
        reason_for=lambda server_name: (
            "in_doubt" if server_name.lower() in in_doubt else "circuit_open"
        ),
    )
    if skipped and trace is not None:
        trace.event(
            "partial_results_prune", skipped=[s.as_dict() for s in skipped]
        )
    return root, skipped
