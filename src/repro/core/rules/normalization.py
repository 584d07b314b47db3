"""Simplification rules: heuristic tree rewrites (Section 4.1.1).

"Simplification Rules perform heuristic tree rewrites, generally early
in the optimization process.  In this phase, logical trees are
rewritten into simpler logical trees."  We run them as a bottom-up
rewrite pass to fixpoint before memo insertion: predicate
merge/pushdown, cross-to-inner join conversion, pushdown into UNION ALL
branches (the gateway to partitioned-view pruning), constant folding,
**static pruning** via the constraint property framework, and
**startup-filter derivation** for parameterized predicates
(Section 4.1.5).
"""

from __future__ import annotations

import itertools
from typing import Optional, TYPE_CHECKING

from repro.algebra.expressions import (
    AggregateCall,
    BinaryOp,
    ColumnDef,
    ColumnRef,
    Literal,
    NotOp,
    ScalarExpr,
    conjoin,
    conjuncts,
)
from repro.algebra.logical import (
    Aggregate,
    EmptyTable,
    Get,
    Join,
    JoinKind,
    LogicalOp,
    Project,
    Select,
    Sort,
    Top,
    UnionAll,
)
from repro.core.constraints import (
    DomainTest,
    contradicts,
    derive_domains,
    parameter_comparisons,
)
from repro.types.datatypes import varchar

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.optimizer import OptimizerOptions

#: bound on rewrite passes per fixpoint loop
_MAX_PASSES = 10


def normalize(
    root: LogicalOp, options: Optional[OptimizerOptions] = None
) -> LogicalOp:
    """Rewrite to fixpoint (bounded), then prune unused columns.
    ``options`` is the optimizer's: its ``enable_static_pruning``,
    ``enable_startup_filters`` and ``enable_partial_aggregation``
    switches gate the rewrites they name (all on by default)."""
    if options is None:
        from repro.core.optimizer import OptimizerOptions

        options = OptimizerOptions()
    for __ in range(_MAX_PASSES):
        rewritten, changed = _rewrite(root, options)
        root = rewritten
        if not changed:
            break
    root = prune_columns(root)
    # pruning may expose further local rewrites (e.g. select/project swaps)
    for __ in range(_MAX_PASSES):
        rewritten, changed = _rewrite(root, options)
        root = rewritten
        if not changed:
            break
    return root


# ----------------------------------------------------------------------
# column pruning
# ----------------------------------------------------------------------

def prune_columns(root: LogicalOp) -> LogicalOp:
    """Top-down column pruning: remote Gets that feed only a subset of
    their columns upward get a projection, so the build-remote-query
    rule ships narrower rows (the remote cost model is byte-driven —
    Section 4.1.3)."""
    return _prune(root, frozenset(root.output_ids()))


def _prune(op: LogicalOp, required: frozenset) -> LogicalOp:
    if isinstance(op, Get):
        keep = [d for d in op.table.columns if d.cid in required]
        if op.table.is_remote and 0 < len(keep) < len(op.table.columns):
            outputs = [
                (d.cid, ColumnRef(d.cid, d.name, d.type, d.nullable))
                for d in keep
            ]
            return Project(op, outputs, keep)
        return op
    if isinstance(op, Select):
        child_required = required | op.predicate.references()
        return Select(_prune(op.child, child_required), op.predicate)
    if isinstance(op, Project):
        child_required = frozenset()
        for __, expr in op.outputs:
            child_required |= expr.references()
        return Project(
            _prune(op.child, child_required), op.outputs, op.column_defs
        )
    if isinstance(op, Join):
        condition_refs = (
            op.condition.references() if op.condition is not None else frozenset()
        )
        left_ids = frozenset(op.left.output_ids())
        right_ids = frozenset(op.right.output_ids())
        wanted = required | condition_refs
        left = _prune(op.left, wanted & left_ids)
        right = _prune(op.right, wanted & right_ids)
        return Join(left, right, op.kind, op.condition)
    if isinstance(op, Aggregate):
        child_required = frozenset(op.group_by)
        for aggregate in op.aggregates:
            child_required |= aggregate.references()
        return Aggregate(
            _prune(op.child, child_required), op.group_by, op.aggregates
        )
    if isinstance(op, Sort):
        child_required = required | frozenset(k.cid for k in op.keys)
        return Sort(_prune(op.child, child_required), op.keys)
    if isinstance(op, Top):
        return Top(_prune(op.child, required), op.count)
    if isinstance(op, UnionAll):
        kept_defs = [d for d in op.output_defs if d.cid in required]
        if not kept_defs:
            kept_defs = list(op.output_defs)
        kept_maps = [
            {d.cid: branch_map[d.cid] for d in kept_defs}
            for branch_map in op.branch_maps
        ]
        branches = []
        for branch, branch_map in zip(op.inputs, kept_maps):
            branch_required = frozenset(branch_map.values())
            branches.append(_prune(branch, branch_required))
        return UnionAll(branches, kept_defs, kept_maps)
    return op


def _rewrite(op: LogicalOp, options: OptimizerOptions) -> tuple[LogicalOp, bool]:
    changed = False
    new_inputs = []
    for child in op.inputs:
        new_child, child_changed = _rewrite(child, options)
        new_inputs.append(new_child)
        changed |= child_changed
    if changed:
        op = op.with_inputs(new_inputs)
    rewritten = _rewrite_node(op, options)
    if rewritten is not None:
        return rewritten, True
    return op, changed


def _rewrite_node(op: LogicalOp, options: OptimizerOptions) -> Optional[LogicalOp]:
    """One local rewrite, or None when nothing applies."""
    if isinstance(op, Select):
        return _rewrite_select(op, options)
    if isinstance(op, Join):
        return _rewrite_join(op)
    if isinstance(op, UnionAll):
        return _rewrite_union(op)
    if isinstance(op, Project):
        return _rewrite_project(op)
    if isinstance(op, (Sort, Top)) and isinstance(op.inputs[0], EmptyTable):
        return EmptyTable(defs_for(op))
    if isinstance(op, Aggregate) and isinstance(op.inputs[0], EmptyTable):
        if op.group_by:
            return EmptyTable(defs_for(op))
        return None  # scalar aggregate over empty input still yields a row
    if (
        isinstance(op, Aggregate)
        and options.enable_partial_aggregation
        and isinstance(op.inputs[0], UnionAll)
    ):
        return _push_partial_aggregates(op, op.inputs[0])
    return None


# module-level cid counter for rewrite-minted columns; starts far above
# any binder-assigned id so compilations never collide
_REWRITE_CIDS = itertools.count(2_000_000)

#: partial/combine function per decomposable aggregate
_DECOMPOSABLE = {
    "count": "sum",
    "sum": "sum",
    "min": "min",
    "max": "max",
}


def _push_partial_aggregates(op: Aggregate, union: UnionAll) -> Optional[LogicalOp]:
    """Local-global aggregation over a partitioned view: each member
    aggregates its own rows; the union ships one row per group per
    member; a global aggregate recombines.  COUNT recombines via SUM;
    SUM/MIN/MAX via themselves; AVG and DISTINCT are not decomposable
    and leave the aggregate where it is.
    """
    if any(
        agg.func not in _DECOMPOSABLE or agg.distinct
        for agg in op.aggregates
    ):
        return None
    # guard against re-application: branches already aggregated
    if any(isinstance(branch, Aggregate) for branch in union.inputs):
        return None
    group_defs = [d for d in union.output_defs if d.cid in op.group_by]
    if len(group_defs) != len(op.group_by):
        return None  # a group key is not a plain union output column
    new_branches = []
    new_maps = []
    partial_out_defs: Optional[list] = None
    for branch, branch_map in zip(union.inputs, union.branch_maps):
        partial_group = [branch_map[cid] for cid in op.group_by]
        partial_aggs = []
        for aggregate in op.aggregates:
            argument = (
                aggregate.argument.remap(branch_map)
                if aggregate.argument is not None
                else None
            )
            partial_aggs.append(
                AggregateCall(
                    aggregate.func,
                    argument,
                    next(_REWRITE_CIDS),
                    f"partial_{aggregate.output_name}",
                )
            )
        new_branches.append(Aggregate(branch, partial_group, partial_aggs))
        if partial_out_defs is None:
            partial_out_defs = [
                ColumnDef(next(_REWRITE_CIDS), call.output_name, call.type)
                for call in partial_aggs
            ]
        branch_out_map = {
            d.cid: branch_map[d.cid] for d in group_defs
        }
        for out_def, call in zip(partial_out_defs, partial_aggs):
            branch_out_map[out_def.cid] = call.output_cid
        new_maps.append(branch_out_map)
    assert partial_out_defs is not None
    new_union = UnionAll(
        new_branches, list(group_defs) + partial_out_defs, new_maps
    )
    global_aggs = []
    for aggregate, partial_def in zip(op.aggregates, partial_out_defs):
        global_aggs.append(
            AggregateCall(
                _DECOMPOSABLE[aggregate.func],
                ColumnRef(partial_def.cid, partial_def.name, partial_def.type),
                aggregate.output_cid,
                aggregate.output_name,
            )
        )
    return Aggregate(new_union, op.group_by, global_aggs)


# ----------------------------------------------------------------------
# Select rewrites
# ----------------------------------------------------------------------

def _rewrite_select(op: Select, options: OptimizerOptions) -> Optional[LogicalOp]:
    child = op.child
    # constant-fold the predicate
    folded = _fold(op.predicate)
    if folded is not op.predicate:
        if isinstance(folded, Literal):
            if folded.value is True:
                return child
            return EmptyTable(defs_for(op))
        return Select(child, folded)
    # merge stacked selects
    if isinstance(child, Select):
        return Select(
            child.child, BinaryOp("AND", child.predicate, op.predicate)
        )
    # static pruning: predicate domains vs child base domains
    if options.enable_static_pruning:
        predicate_domains = derive_domains(op.predicate)
        base_domains = _base_domains(child)
        if contradicts(predicate_domains, base_domains):
            return EmptyTable(defs_for(op))
    # empty child
    if isinstance(child, EmptyTable):
        return child
    # push through project
    if isinstance(child, Project):
        mapping = {cid: expr for cid, expr in child.outputs}
        refs = op.predicate.references()
        if all(cid in mapping for cid in refs):
            pushed = op.predicate.substitute(mapping)
            return Project(
                Select(child.child, pushed), child.outputs, child.column_defs
            )
    # push into join
    if isinstance(child, Join):
        return _push_select_into_join(op, child)
    # push into union branches (partitioned views)
    if isinstance(child, UnionAll):
        branches = []
        for branch, branch_map in zip(child.inputs, child.branch_maps):
            remapped = op.predicate.remap(branch_map)
            branches.append(Select(branch, remapped))
        return UnionAll(branches, child.output_defs, child.branch_maps)
    # startup-filter derivation over a Get with CHECK domains
    if options.enable_startup_filters and isinstance(child, Get):
        derived = _derive_startup_tests(op, child)
        if derived is not None:
            return derived
    return None


def _push_select_into_join(op: Select, join: Join) -> Optional[LogicalOp]:
    left_ids = frozenset(join.left.output_ids())
    right_ids = frozenset(join.right.output_ids())
    push_left: list[ScalarExpr] = []
    push_right: list[ScalarExpr] = []
    to_condition: list[ScalarExpr] = []
    keep: list[ScalarExpr] = []
    for conjunct in conjuncts(op.predicate):
        refs = conjunct.references()
        if not refs:
            # column-free (startup) conjuncts stay above the join so the
            # whole subtree can be skipped at run time
            keep.append(conjunct)
        elif refs <= left_ids:
            push_left.append(conjunct)
        elif refs and refs <= right_ids:
            if join.kind in (JoinKind.INNER, JoinKind.CROSS, JoinKind.SEMI,
                             JoinKind.ANTI_SEMI):
                push_right.append(conjunct)
            else:
                keep.append(conjunct)  # right side of LEFT OUTER: stay above
        elif join.kind in (JoinKind.INNER, JoinKind.CROSS):
            to_condition.append(conjunct)
        else:
            keep.append(conjunct)
    if not (push_left or push_right or to_condition):
        return None
    left = join.left
    right = join.right
    if push_left:
        left = Select(left, conjoin(push_left))
    if push_right:
        right = Select(right, conjoin(push_right))
    kind = join.kind
    condition = join.condition
    if to_condition:
        merged = conjoin(
            ([condition] if condition is not None else []) + to_condition
        )
        condition = merged
        if kind == JoinKind.CROSS:
            kind = JoinKind.INNER
    new_join = Join(left, right, kind, condition)
    if keep:
        return Select(new_join, conjoin(keep))
    return new_join


def _derive_startup_tests(op: Select, get: Get) -> Optional[LogicalOp]:
    """Add DomainTest conjuncts for ``col <op> @param`` over constrained
    columns — the runtime-pruning setup of Section 4.1.5."""
    domains = _base_domains(get)
    if not domains:
        return None
    existing = {
        conjunct.sql_key() for conjunct in conjuncts(op.predicate)
    }
    additions: list[ScalarExpr] = []
    for cid, comparison_op, probe in parameter_comparisons(op.predicate):
        domain = domains.get(cid)
        if domain is None:
            continue
        test = DomainTest(probe, comparison_op, domain)
        if test.sql_key() not in existing:
            additions.append(test)
    if not additions:
        return None
    return Select(op.child, conjoin([op.predicate] + additions))


# ----------------------------------------------------------------------
# other rewrites
# ----------------------------------------------------------------------

def _rewrite_join(op: Join) -> Optional[LogicalOp]:
    left_empty = isinstance(op.left, EmptyTable)
    right_empty = isinstance(op.right, EmptyTable)
    if op.kind in (JoinKind.INNER, JoinKind.CROSS) and (left_empty or right_empty):
        return EmptyTable(defs_for(op))
    if op.kind in (JoinKind.SEMI,) and (left_empty or right_empty):
        return EmptyTable(defs_for(op))
    if op.kind == JoinKind.ANTI_SEMI and left_empty:
        return EmptyTable(defs_for(op))
    if op.kind == JoinKind.ANTI_SEMI and right_empty:
        return op.left  # NOT EXISTS over empty inner keeps every row
    if op.kind == JoinKind.LEFT_OUTER and left_empty:
        return EmptyTable(defs_for(op))
    return None


def _rewrite_union(op: UnionAll) -> Optional[LogicalOp]:
    """Drop empty branches — contradicted by static pruning, or emptied
    by partial-results planning for an unreachable member."""
    live = [
        (branch, branch_map)
        for branch, branch_map in zip(op.inputs, op.branch_maps)
        if not isinstance(branch, EmptyTable)
    ]
    if len(live) == len(op.inputs):
        return None
    if not live:
        return EmptyTable(op.output_defs)
    if len(live) == 1:
        # single surviving branch: project its columns onto the union ids
        branch, branch_map = live[0]
        outputs = []
        for definition in op.output_defs:
            branch_cid = branch_map[definition.cid]
            outputs.append(
                (definition.cid, ColumnRef(branch_cid, definition.name, definition.type))
            )
        return Project(branch, outputs, op.output_defs)
    return UnionAll(
        [b for b, __ in live], op.output_defs, [m for __, m in live]
    )


def _rewrite_project(op: Project) -> Optional[LogicalOp]:
    child = op.child
    if isinstance(child, EmptyTable):
        return EmptyTable(op.column_defs)
    # identity projection
    if tuple(op.output_ids()) == tuple(child.output_ids()) and all(
        isinstance(expr, ColumnRef) and expr.cid == cid
        for cid, expr in op.outputs
    ):
        return child
    # collapse stacked projects
    if isinstance(child, Project):
        mapping = {cid: expr for cid, expr in child.outputs}
        if all(
            cid in mapping or not expr.references()
            for __, expr in op.outputs
            for cid in expr.references()
        ):
            merged = [
                (cid, expr.substitute(mapping)) for cid, expr in op.outputs
            ]
            return Project(child.child, merged, op.column_defs)
    return None


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def defs_for(op: LogicalOp) -> list[ColumnDef]:
    """ColumnDefs describing ``op``'s output (for an EmptyTable that
    replaces it)."""
    return [ColumnDef(cid, f"c{cid}", varchar()) for cid in op.output_ids()]


def _base_domains(op: LogicalOp) -> dict:
    """CHECK-constraint domains visible at ``op`` (Gets and unions)."""
    if isinstance(op, Get):
        out = {}
        for definition in op.table.columns:
            domain = op.table.check_domains.get(definition.name.lower())
            if domain is not None:
                out[definition.cid] = domain
        return out
    if isinstance(op, Select):
        # constraint domains narrow through selects
        inner = _base_domains(op.child)
        for cid, domain in derive_domains(op.predicate).items():
            existing = inner.get(cid)
            inner[cid] = domain if existing is None else existing.intersect(domain)
        return inner
    if isinstance(op, Project):
        inner = _base_domains(op.child)
        out = {}
        for cid, expr in op.outputs:
            if isinstance(expr, ColumnRef) and expr.cid in inner:
                out[cid] = inner[expr.cid]
        return out
    if isinstance(op, Join):
        out = dict(_base_domains(op.left))
        if op.kind not in (JoinKind.SEMI, JoinKind.ANTI_SEMI):
            out.update(_base_domains(op.right))
        return out
    return {}


def _fold(expr: ScalarExpr) -> ScalarExpr:
    """Shallow constant folding over literals."""
    if isinstance(expr, BinaryOp):
        left = _fold(expr.left)
        right = _fold(expr.right)
        if isinstance(left, Literal) and isinstance(right, Literal):
            compiled = BinaryOp(expr.op, left, right).compile({})
            try:
                return Literal(compiled((), {}), expr.type)
            except Exception:
                return expr
        if expr.op == "AND":
            if isinstance(left, Literal) and left.value is True:
                return right
            if isinstance(right, Literal) and right.value is True:
                return left
            if (isinstance(left, Literal) and left.value is False) or (
                isinstance(right, Literal) and right.value is False
            ):
                return Literal(False)
        if expr.op == "OR":
            if isinstance(left, Literal) and left.value is False:
                return right
            if isinstance(right, Literal) and right.value is False:
                return left
            if (isinstance(left, Literal) and left.value is True) or (
                isinstance(right, Literal) and right.value is True
            ):
                return Literal(True)
        if left is not expr.left or right is not expr.right:
            return BinaryOp(expr.op, left, right)
        return expr
    if isinstance(expr, NotOp):
        inner = _fold(expr.operand)
        if isinstance(inner, Literal) and isinstance(inner.value, bool):
            return Literal(not inner.value)
        if inner is not expr.operand:
            return NotOp(inner)
        return expr
    return expr
