"""Exploration rules: equivalent logical alternatives (Section 4.1.1).

Local rules (join commutation/association) "are also directly
applicable to distributed queries"; the remote-specific exploration
rules of Section 4.1.2 — grouping joins based on locality and
splitting/merging predicates based on remotability — ride on the same
framework.
"""

from __future__ import annotations

from repro.algebra.expressions import ScalarExpr, conjoin, conjuncts
from repro.algebra.logical import Join, JoinKind, Select
from repro.core.memo import Group, GroupExpression
from repro.core.rules.base import ExplorationRule, RuleContext
from repro.errors import DecoderError

_REORDERABLE = (JoinKind.INNER, JoinKind.CROSS)


class JoinCommute(ExplorationRule):
    """A JOIN B ≡ B JOIN A (inner/cross only)."""

    name = "join_commute"
    op_types = ("Join",)
    promise = 2.0
    min_phase = 1

    def matches(self, expr: GroupExpression) -> bool:
        return isinstance(expr.op, Join) and expr.op.kind in _REORDERABLE

    def apply(self, expr: GroupExpression, context: RuleContext) -> int:
        join: Join = expr.op
        flipped = Join(None, None, join.kind, join.condition)
        new_expr, __ = context.memo.insert_expression(
            flipped, (expr.children[1], expr.children[0]), target=expr.group
        )
        # prevent commuting straight back
        new_expr.applied_rules.add(self.name)
        return 1 if new_expr.op is flipped else 0


class JoinAssociate(ExplorationRule):
    """(A ⋈ B) ⋈ C → A ⋈ (B ⋈ C), redistributing condition conjuncts."""

    name = "join_associate"
    op_types = ("Join",)
    promise = 1.5
    min_phase = 2

    def matches(self, expr: GroupExpression) -> bool:
        if not (isinstance(expr.op, Join) and expr.op.kind in _REORDERABLE):
            return False
        left_group = expr.children[0]
        return any(
            isinstance(e.op, Join) and e.op.kind in _REORDERABLE
            for e in left_group.expressions
        )

    def apply(self, expr: GroupExpression, context: RuleContext) -> int:
        top: Join = expr.op
        left_group, c_group = expr.children
        inserted = 0
        for left_expr in list(left_group.expressions):
            if not (
                isinstance(left_expr.op, Join)
                and left_expr.op.kind in _REORDERABLE
            ):
                continue
            a_group, b_group = left_expr.children
            inserted += _associate(
                context,
                expr.group,
                a_group,
                b_group,
                c_group,
                left_expr.op.condition,
                top.condition,
            )
        return inserted


def _associate(
    context: RuleContext,
    target: Group,
    a_group: Group,
    b_group: Group,
    c_group: Group,
    inner_condition,
    top_condition,
) -> int:
    """Build A ⋈ (B ⋈ C) in ``target`` from the given pieces."""
    b_ids = frozenset(b_group.properties.output_ids)
    c_ids = frozenset(c_group.properties.output_ids)
    bc_ids = b_ids | c_ids
    all_conjuncts: list[ScalarExpr] = []
    if inner_condition is not None:
        all_conjuncts.extend(conjuncts(inner_condition))
    if top_condition is not None:
        all_conjuncts.extend(conjuncts(top_condition))
    bc_parts = [c for c in all_conjuncts if c.references() and c.references() <= bc_ids]
    top_parts = [c for c in all_conjuncts if c not in bc_parts]
    bc_kind = JoinKind.INNER if bc_parts else JoinKind.CROSS
    bc_join = Join(None, None, bc_kind, conjoin(bc_parts))
    __, bc_group = context.memo.insert_expression(bc_join, (b_group, c_group))
    top_kind = JoinKind.INNER if top_parts else JoinKind.CROSS
    new_top = Join(None, None, top_kind, conjoin(top_parts))
    new_expr, group = context.memo.insert_expression(
        new_top, (a_group, bc_group), target=target
    )
    return 1 if group is target and new_expr.op is new_top else 0


class LocalityGrouping(ExplorationRule):
    """Reorder joins so same-server operands join first (Section 4.1.2:
    "grouping joins based on locality ... to find solutions of pushing
    the largest possible sub-tree to the remote source").

    Matches (A ⋈ B) ⋈ C where A and C live on the same single remote
    server but B does not, producing (A ⋈ C) ⋈ B.
    """

    name = "locality_grouping"
    op_types = ("Join",)
    promise = 3.0  # high promise: cheap test, large payoff
    min_phase = 1

    def matches(self, expr: GroupExpression) -> bool:
        if not (isinstance(expr.op, Join) and expr.op.kind in _REORDERABLE):
            return False
        left_group = expr.children[0]
        return any(
            isinstance(e.op, Join) and e.op.kind in _REORDERABLE
            for e in left_group.expressions
        )

    def apply(self, expr: GroupExpression, context: RuleContext) -> int:
        if not context.options.enable_locality_grouping:
            return 0
        top: Join = expr.op
        left_group, c_group = expr.children
        c_server = c_group.properties.single_server
        if c_server is None:
            return 0
        inserted = 0
        for left_expr in list(left_group.expressions):
            if not (
                isinstance(left_expr.op, Join)
                and left_expr.op.kind in _REORDERABLE
            ):
                continue
            a_group, b_group = left_expr.children
            a_server = a_group.properties.single_server
            b_server = b_group.properties.single_server
            if a_server == c_server and b_server != c_server:
                inserted += self._regroup(
                    context, expr.group, a_group, b_group, c_group,
                    left_expr.op.condition, top.condition,
                )
            elif b_server == c_server and a_server != c_server:
                inserted += self._regroup(
                    context, expr.group, b_group, a_group, c_group,
                    left_expr.op.condition, top.condition,
                )
        return inserted

    @staticmethod
    def _regroup(
        context: RuleContext,
        target: Group,
        same_group: Group,
        other_group: Group,
        c_group: Group,
        inner_condition,
        top_condition,
    ) -> int:
        """Build (same ⋈ C) ⋈ other in ``target``."""
        same_ids = frozenset(same_group.properties.output_ids)
        c_ids = frozenset(c_group.properties.output_ids)
        sc_ids = same_ids | c_ids
        all_conjuncts: list[ScalarExpr] = []
        if inner_condition is not None:
            all_conjuncts.extend(conjuncts(inner_condition))
        if top_condition is not None:
            all_conjuncts.extend(conjuncts(top_condition))
        sc_parts = [
            c for c in all_conjuncts if c.references() and c.references() <= sc_ids
        ]
        rest = [c for c in all_conjuncts if c not in sc_parts]
        sc_kind = JoinKind.INNER if sc_parts else JoinKind.CROSS
        sc_join = Join(None, None, sc_kind, conjoin(sc_parts))
        __, sc_group = context.memo.insert_expression(
            sc_join, (same_group, c_group)
        )
        top_kind = JoinKind.INNER if rest else JoinKind.CROSS
        new_top = Join(None, None, top_kind, conjoin(rest))
        new_expr, group = context.memo.insert_expression(
            new_top, (sc_group, other_group), target=target
        )
        return 1 if new_expr.op is new_top else 0


class PredicateSplitByRemotability(ExplorationRule):
    """Split a Select's conjuncts into a remotable part (pushable to the
    child's single server) and a non-remotable residue (Section 4.1.2:
    "splitting and merging selection predicates based on predicate
    remotability").

    Produces Select(nonremote, Select(remote, child)) so the inner
    Select can fuse into a remote query.
    """

    name = "predicate_split"
    op_types = ("Select",)
    promise = 2.5
    min_phase = 1

    def matches(self, expr: GroupExpression) -> bool:
        return isinstance(expr.op, Select)

    def apply(self, expr: GroupExpression, context: RuleContext) -> int:
        if not context.options.enable_predicate_split:
            return 0
        select: Select = expr.op
        child_group = expr.children[0]
        server_name = child_group.properties.single_server
        if server_name is None:
            return 0
        server = context.optimizer.linked_server(server_name)
        if server is None or not server.capabilities.is_sql_provider:
            return 0
        from repro.core.decoder import Decoder

        decoder = Decoder(server.capabilities, server_name)
        remotable: list[ScalarExpr] = []
        residual: list[ScalarExpr] = []
        probe_columns = {
            cid: f"x{cid}" for cid in child_group.properties.output_ids
        }
        for conjunct in conjuncts(select.predicate):
            try:
                decoder._expr(conjunct, probe_columns)
                remotable.append(conjunct)
            except DecoderError:
                residual.append(conjunct)
        if not remotable or not residual:
            return 0
        inner = Select(None, conjoin(remotable))
        __, inner_group = context.memo.insert_expression(
            inner, (child_group,)
        )
        outer = Select(None, conjoin(residual))
        new_expr, __g = context.memo.insert_expression(
            outer, (inner_group,), target=expr.group
        )
        return 1 if new_expr.op is outer else 0


def default_exploration_rules() -> list[ExplorationRule]:
    return [
        LocalityGrouping(),
        PredicateSplitByRemotability(),
        JoinCommute(),
        JoinAssociate(),
    ]
