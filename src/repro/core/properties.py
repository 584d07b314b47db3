"""Group (logical) properties (Section 4.1.1).

"Group Properties ... represent information about all of the
alternatives within a group": output columns and the cardinality
estimate.  We additionally track *locality* — the set of servers a
subtree touches — which powers the remote rules ("grouping joins based
on locality") and the build-remote-query implementation rule.
Constraint (domain) properties are not carried here: static pruning
and startup filters read them from the logical tree during
normalization (``normalization._base_domains``), before the memo
exists.

Properties are derived once per memo group from any of its logical
expressions (alternatives in a group are logically equivalent, so any
representative works).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Optional

from repro.algebra.expressions import (
    BinaryOp,
    ColumnId,
    ColumnRef,
    ContainsPredicate,
    InListOp,
    Literal,
    ScalarExpr,
    conjuncts,
    COMPARISON_OPS,
)
from repro.algebra.logical import (
    Aggregate,
    EmptyTable,
    Get,
    Join,
    JoinKind,
    LogicalOp,
    Project,
    ProviderRowset,
    Select,
    Sort,
    Top,
    UnionAll,
    Values,
)
from repro.stats.estimator import (
    DEFAULT_EQUALITY_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    estimate_comparison_selectivity,
    estimate_join_selectivity,
)
from repro.stats.table_stats import ColumnStatistics

#: marker for the local server in locality sets
LOCAL = "<local>"


_UNRESOLVED = object()


class ColumnStatsRef:
    """A base-table column's statistics, fetched when first read.

    Deriving properties only hands these around; building a histogram
    (local) or opening a histogram rowset (linked server) waits until
    an estimate actually reads the column, and happens at most once per
    compile.  Resolving twice from two threads is harmless: both get a
    complete object and the later assignment wins.
    """

    __slots__ = ("_fetch", "_stats")

    def __init__(self, fetch: Callable[[], Optional[ColumnStatistics]]):
        self._fetch = fetch
        self._stats: Any = _UNRESOLVED

    def resolve(self) -> Optional[ColumnStatistics]:
        stats = self._stats
        if stats is _UNRESOLVED:
            stats = self._stats = self._fetch()
        return stats


class GroupProperties:
    """Logical properties shared by every alternative in a group."""

    __slots__ = (
        "output_ids",
        "cardinality",
        "row_width",
        "servers",
        "column_stats",
    )

    def __init__(
        self,
        output_ids: tuple[ColumnId, ...],
        cardinality: float,
        row_width: float,
        servers: frozenset[str],
        column_stats: Dict[ColumnId, Optional[ColumnStatsRef]],
    ):
        self.output_ids = output_ids
        self.cardinality = max(0.0, cardinality)
        self.row_width = max(1.0, row_width)
        self.servers = servers
        self.column_stats = column_stats

    def column_statistics(self, cid: ColumnId) -> Optional[ColumnStatistics]:
        """Statistics of one output column — the only way estimates
        read them, and what makes the column's histogram exist."""
        ref = self.column_stats.get(cid)
        return None if ref is None else ref.resolve()

    @property
    def single_server(self) -> Optional[str]:
        """The lone server this subtree touches, or None if mixed/local."""
        if len(self.servers) == 1:
            (server,) = self.servers
            if server != LOCAL:
                return server
        return None

    def __repr__(self) -> str:
        return (
            f"GroupProperties(card={self.cardinality:.1f}, "
            f"width={self.row_width:.0f}, servers={sorted(self.servers)})"
        )


def derive_properties(
    op: LogicalOp, children: list[GroupProperties]
) -> GroupProperties:
    """Derive a group's properties from one logical expression whose
    children's properties are already known."""
    # note: ops built by rules have placeholder inputs — output ids of
    # pass-through operators come from the *child group's* properties
    if isinstance(op, Get):
        return _get_properties(op)
    if isinstance(op, Select):
        return _select_properties(op, children[0])
    if isinstance(op, Project):
        return _project_properties(op, children[0])
    if isinstance(op, Join):
        return _join_properties(op, children[0], children[1])
    if isinstance(op, Aggregate):
        return _aggregate_properties(op, children[0])
    if isinstance(op, (Sort,)):
        child = children[0]
        return GroupProperties(
            child.output_ids,
            child.cardinality,
            child.row_width,
            child.servers,
            child.column_stats,
        )
    if isinstance(op, Top):
        child = children[0]
        return GroupProperties(
            child.output_ids,
            min(float(op.count), child.cardinality),
            child.row_width,
            child.servers,
            child.column_stats,
        )
    if isinstance(op, UnionAll):
        return _union_properties(op, children)
    if isinstance(op, Values):
        width = 8.0 * max(1, len(op.column_defs))
        return GroupProperties(
            op.output_ids(), float(len(op.rows)), width, frozenset({LOCAL}), {}
        )
    if isinstance(op, EmptyTable):
        return GroupProperties(
            op.output_ids(), 0.0, 1.0, frozenset({LOCAL}), {}
        )
    if isinstance(op, ProviderRowset):
        width = sum(d.type.byte_width() for d in op.column_defs) or 16.0
        return GroupProperties(
            op.output_ids(),
            op.cardinality_hint,
            width,
            frozenset({f"<provider:{op.label}>"}),
            {},
        )
    raise TypeError(f"no property derivation for {type(op).__name__}")


# ----------------------------------------------------------------------


def _get_properties(op: Get) -> GroupProperties:
    table = op.table
    column_stats: Dict[ColumnId, Optional[ColumnStatsRef]] = {}
    if table.local_table is not None:
        local = table.local_table
        cardinality = float(local.row_count)
        row_width = local.statistics.avg_row_width
        for definition in table.columns:
            column_stats[definition.cid] = ColumnStatsRef(
                partial(_local_column_statistics, local, definition.name)
            )
    elif table.remote_info is not None:
        info = table.remote_info
        cardinality = info.cardinality
        row_width = info.avg_row_width
        server = table.provider
        for definition in table.columns:
            if server is not None and server.capabilities.supports_statistics:
                column_stats[definition.cid] = ColumnStatsRef(
                    partial(
                        server.column_statistics,
                        info.table_name,
                        definition.name,
                        table.database,
                    )
                )
            else:
                column_stats[definition.cid] = None
    else:
        cardinality = 1000.0
        row_width = 64.0
    servers = frozenset({table.server if table.server else LOCAL})
    return GroupProperties(
        op.output_ids(), cardinality, row_width, servers, column_stats
    )


def _local_column_statistics(table: Any, name: str) -> Optional[ColumnStatistics]:
    # through table.statistics at read time, so a write between bind
    # and estimate is seen
    return table.statistics.column(name)


def predicate_selectivity(
    predicate: Optional[ScalarExpr], props: GroupProperties
) -> float:
    """Selectivity of a predicate against a child's properties.

    Conjuncts multiply (independence assumption); each conjunct uses
    the histogram when the referenced column has one (Section 3.2.4's
    payoff), else the System-R defaults.
    """
    selectivity = 1.0
    for conjunct in conjuncts(predicate):
        selectivity *= _conjunct_selectivity(conjunct, props)
    return max(1e-7, min(1.0, selectivity))


def _conjunct_selectivity(conjunct: ScalarExpr, props: GroupProperties) -> float:
    if isinstance(conjunct, BinaryOp) and conjunct.op in COMPARISON_OPS:
        left, right = conjunct.left, conjunct.right
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            stats = props.column_statistics(left.cid)
            return estimate_comparison_selectivity(
                conjunct.op, right.value, stats, props.cardinality
            )
        if isinstance(right, ColumnRef) and isinstance(left, Literal):
            flipped = conjunct.flipped()
            stats = props.column_statistics(right.cid)
            return estimate_comparison_selectivity(
                flipped.op, flipped.right.value, stats, props.cardinality
            )
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            return estimate_join_selectivity(
                props.column_statistics(left.cid),
                props.column_statistics(right.cid),
            )
        if conjunct.op == "=":
            return DEFAULT_EQUALITY_SELECTIVITY
        return DEFAULT_RANGE_SELECTIVITY
    if isinstance(conjunct, BinaryOp) and conjunct.op == "OR":
        left = _conjunct_selectivity(conjunct.left, props)
        right = _conjunct_selectivity(conjunct.right, props)
        return min(1.0, left + right - left * right)
    if isinstance(conjunct, InListOp) and not conjunct.negated:
        if isinstance(conjunct.operand, ColumnRef):
            stats = props.column_statistics(conjunct.operand.cid)
            total = 0.0
            for item in conjunct.items:
                if isinstance(item, Literal):
                    total += estimate_comparison_selectivity(
                        "=", item.value, stats, props.cardinality
                    )
                else:
                    total += DEFAULT_EQUALITY_SELECTIVITY
            return min(1.0, total)
        return DEFAULT_RANGE_SELECTIVITY
    if isinstance(conjunct, ContainsPredicate):
        return DEFAULT_EQUALITY_SELECTIVITY
    return DEFAULT_RANGE_SELECTIVITY


def _select_properties(op: Select, child: GroupProperties) -> GroupProperties:
    selectivity = predicate_selectivity(op.predicate, child)
    return GroupProperties(
        child.output_ids,
        child.cardinality * selectivity,
        child.row_width,
        child.servers,
        child.column_stats,
    )


def _project_properties(op: Project, child: GroupProperties) -> GroupProperties:
    column_stats: Dict[ColumnId, Optional[ColumnStatsRef]] = {}
    width = 0.0
    for cid, expr in op.outputs:
        if isinstance(expr, ColumnRef):
            column_stats[cid] = child.column_stats.get(expr.cid)
        width += expr.type.byte_width() if hasattr(expr.type, "byte_width") else 8.0
    return GroupProperties(
        op.output_ids(),
        child.cardinality,
        max(8.0, width),
        child.servers,
        column_stats,
    )


def join_condition_selectivity(
    condition: Optional[ScalarExpr],
    left: GroupProperties,
    right: GroupProperties,
) -> float:
    """Selectivity of a join condition over the cross product."""
    if condition is None:
        return 1.0
    merged = GroupProperties(
        left.output_ids + right.output_ids,
        left.cardinality * right.cardinality,
        left.row_width + right.row_width,
        left.servers | right.servers,
        {**left.column_stats, **right.column_stats},
    )
    return predicate_selectivity(condition, merged)


def _join_properties(
    op: Join, left: GroupProperties, right: GroupProperties
) -> GroupProperties:
    selectivity = join_condition_selectivity(op.condition, left, right)
    cross = left.cardinality * right.cardinality
    if op.kind in (JoinKind.INNER, JoinKind.CROSS):
        output_ids = left.output_ids + right.output_ids
        cardinality = cross * selectivity
        column_stats = {**left.column_stats, **right.column_stats}
        width = left.row_width + right.row_width
    elif op.kind == JoinKind.LEFT_OUTER:
        output_ids = left.output_ids + right.output_ids
        cardinality = max(left.cardinality, cross * selectivity)
        column_stats = {**left.column_stats, **right.column_stats}
        width = left.row_width + right.row_width
    elif op.kind == JoinKind.SEMI:
        output_ids = left.output_ids
        match_fraction = min(1.0, right.cardinality * selectivity)
        cardinality = left.cardinality * max(
            DEFAULT_EQUALITY_SELECTIVITY, min(1.0, match_fraction)
        )
        column_stats = dict(left.column_stats)
        width = left.row_width
    else:  # ANTI_SEMI
        output_ids = left.output_ids
        match_fraction = min(1.0, right.cardinality * selectivity)
        cardinality = left.cardinality * max(
            0.1, 1.0 - min(0.9, match_fraction)
        )
        column_stats = dict(left.column_stats)
        width = left.row_width
    return GroupProperties(
        output_ids,
        cardinality,
        width,
        left.servers | right.servers,
        column_stats,
    )


def _aggregate_properties(op: Aggregate, child: GroupProperties) -> GroupProperties:
    if not op.group_by:
        cardinality = 1.0
    else:
        distinct_product = 1.0
        known = False
        for cid in op.group_by:
            stats = child.column_statistics(cid)
            if stats is not None:
                distinct_product *= max(1.0, stats.distinct_count)
                known = True
        if known:
            cardinality = min(child.cardinality, distinct_product)
        else:
            cardinality = max(1.0, child.cardinality * 0.1)
    column_stats = {
        cid: child.column_stats.get(cid) for cid in op.group_by
    }
    width = child.row_width + 8.0 * len(op.aggregates)
    return GroupProperties(
        op.output_ids(), cardinality, width, child.servers, column_stats
    )


def _union_properties(
    op: UnionAll, children: list[GroupProperties]
) -> GroupProperties:
    cardinality = sum(c.cardinality for c in children)
    width = max((c.row_width for c in children), default=8.0)
    servers = frozenset().union(*(c.servers for c in children)) if children else frozenset({LOCAL})
    # a union output column has no single base column to take
    # statistics from
    column_stats: Dict[ColumnId, Optional[ColumnStatsRef]] = dict.fromkeys(
        op.output_ids()
    )
    return GroupProperties(
        op.output_ids(), cardinality, width, servers, column_stats
    )
