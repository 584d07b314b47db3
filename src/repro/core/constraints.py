"""The constraint property framework (Section 4.1.5).

"Constraint properties leverage ... [the] optimization property
framework to support tracking the domain of all scalar expressions.
Domain restrictions track possible values for scalar expressions at
each point in the query tree."

This module derives :class:`~repro.types.intervals.IntervalSet` domains
from predicates, implements the compile-time contradiction test behind
*static pruning* ("Since there is no overlap between [20,20] and
(50,+inf], the predicate can be reduced to a constant false value"),
and builds the *startup filter* predicates used for runtime pruning
when the domain involves parameters.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.algebra.expressions import (
    BinaryOp,
    ColumnId,
    ColumnRef,
    Compiled,
    InListOp,
    IsNullOp,
    Layout,
    Literal,
    NotOp,
    Parameter,
    ScalarExpr,
    conjuncts,
    COMPARISON_OPS,
)
from repro.types.intervals import IntervalSet


class DomainTest(ScalarExpr):
    """A startup-filter predicate: can ``probe <op> column`` be true for
    any column value in ``domain``?

    ``probe`` must reference no columns (parameters and literals only),
    so the test is evaluable before the input subtree runs — the
    defining property of a startup filter.
    """

    from repro.types.datatypes import BOOL as _BOOL

    type = _BOOL

    def __init__(self, probe: ScalarExpr, op: str, domain: IntervalSet):
        if probe.references():
            raise ValueError("DomainTest probe must not reference columns")
        self.probe = probe
        self.op = op  # the original comparison: column <op> probe
        self.domain = domain

    def children(self) -> tuple[ScalarExpr, ...]:
        return (self.probe,)

    def with_children(self, children: Sequence[ScalarExpr]) -> ScalarExpr:
        return DomainTest(*children, self.op, self.domain)

    def references(self) -> frozenset[ColumnId]:
        return frozenset()

    def compile(self, layout: Layout) -> Compiled:
        probe = self.probe.compile(layout)
        op = self.op
        domain = self.domain

        def evaluate(row: Sequence[Any], params: Dict[str, Any]) -> Any:
            value = probe(row, params)
            if value is None:
                return None
            requested = IntervalSet.from_comparison(op, value)
            return not requested.disjoint_from(domain)

        return evaluate

    def substitute(self, mapping: Dict[ColumnId, ScalarExpr]) -> ScalarExpr:
        return self

    def sql_key(self) -> tuple:
        return ("domain_test", self.op, self.probe.sql_key(), self.domain)

    def __repr__(self) -> str:
        return f"STARTUP({self.probe!r} {self.op} domain {self.domain!r})"


def comparison_domain(conjunct: ScalarExpr) -> Optional[tuple[ColumnId, IntervalSet]]:
    """The (column, domain) a *constant* comparison conjunct implies.

    Handles ``col <op> literal`` (either orientation), ``col IN
    (literals)``, ``col BETWEEN`` (already desugared to AND), and
    ``col IS NULL``/``IS NOT NULL`` (mapped to empty/full since domains
    track non-NULL values).  Returns None for conjuncts that imply no
    constant domain (parameters, column-to-column comparisons, ORs).
    """
    if isinstance(conjunct, BinaryOp) and conjunct.op in COMPARISON_OPS:
        left, right = conjunct.left, conjunct.right
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            return left.cid, IntervalSet.from_comparison(conjunct.op, right.value)
        if isinstance(right, ColumnRef) and isinstance(left, Literal):
            flipped = conjunct.flipped()
            return right.cid, IntervalSet.from_comparison(
                flipped.op, left.value
            )
        return None
    if isinstance(conjunct, InListOp) and not conjunct.negated:
        if isinstance(conjunct.operand, ColumnRef) and all(
            isinstance(item, Literal) for item in conjunct.items
        ):
            values = [item.value for item in conjunct.items if item.value is not None]
            return conjunct.operand.cid, IntervalSet.points(values)
        return None
    if isinstance(conjunct, IsNullOp):
        # domains track non-NULL values only; IS [NOT] NULL constrains
        # nothing expressible here (IS NULL rows are invisible to the
        # domain, so returning empty would wrongly prune them)
        return None
    if isinstance(conjunct, BinaryOp) and conjunct.op == "OR":
        # OR of domains over the same column unions (the paper's
        # "CustomerId IN (1, 5) OR CustomerId BETWEEN 50 AND 100")
        left = _domain_of_boolean(conjunct.left)
        right = _domain_of_boolean(conjunct.right)
        if left is not None and right is not None and left[0] == right[0]:
            return left[0], left[1].union(right[1])
        return None
    return None


def _domain_of_boolean(expr: ScalarExpr) -> Optional[tuple[ColumnId, IntervalSet]]:
    """Domain of an arbitrary boolean expr over one column (AND
    intersects, OR unions); None when mixed columns or opaque."""
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        left = _domain_of_boolean(expr.left)
        right = _domain_of_boolean(expr.right)
        if left is None or right is None or left[0] != right[0]:
            return None
        return left[0], left[1].intersect(right[1])
    if isinstance(expr, BinaryOp) and expr.op == "OR":
        left = _domain_of_boolean(expr.left)
        right = _domain_of_boolean(expr.right)
        if left is None or right is None or left[0] != right[0]:
            return None
        return left[0], left[1].union(right[1])
    return comparison_domain(expr)


def derive_domains(predicate: Optional[ScalarExpr]) -> Dict[ColumnId, IntervalSet]:
    """Column domains implied by a predicate's constant conjuncts.

    Multiple conjuncts on the same column intersect ("Each relational
    operation can modify the valid domain for a scalar expression").
    """
    domains: Dict[ColumnId, IntervalSet] = {}
    for conjunct in conjuncts(predicate):
        implied = comparison_domain(conjunct)
        if implied is None:
            continue
        cid, domain = implied
        existing = domains.get(cid)
        domains[cid] = domain if existing is None else existing.intersect(domain)
    return domains


def contradicts(
    predicate_domains: Dict[ColumnId, IntervalSet],
    base_domains: Dict[ColumnId, IntervalSet],
) -> bool:
    """Static pruning test: is some column's requested domain disjoint
    from its base (CHECK-constraint) domain?"""
    for cid, requested in predicate_domains.items():
        if requested.is_empty():
            return True
        base = base_domains.get(cid)
        if base is not None and requested.disjoint_from(base):
            return True
    return False


def parameter_comparisons(
    predicate: Optional[ScalarExpr],
) -> list[tuple[ColumnId, str, ScalarExpr]]:
    """Conjuncts of shape ``col <op> param-expr`` (no column refs on the
    probe side) — the raw material for startup filters."""
    out: list[tuple[ColumnId, str, ScalarExpr]] = []
    for conjunct in conjuncts(predicate):
        if not (
            isinstance(conjunct, BinaryOp) and conjunct.op in COMPARISON_OPS
        ):
            continue
        left, right = conjunct.left, conjunct.right
        if isinstance(left, ColumnRef) and not right.references() and right.parameters():
            out.append((left.cid, conjunct.op, right))
        elif (
            isinstance(right, ColumnRef)
            and not left.references()
            and left.parameters()
        ):
            flipped = conjunct.flipped()
            out.append((right.cid, flipped.op, flipped.right))
    return out


def startup_conjuncts(predicate: Optional[ScalarExpr]) -> tuple[
    list[ScalarExpr], list[ScalarExpr]
]:
    """Split a predicate into (startup, residual) conjunct lists.

    Startup conjuncts reference no columns ("A startup filter predicate
    can not contain any references to columns or values in its input
    tree") — DomainTests and pure parameter/constant comparisons.
    """
    startup: list[ScalarExpr] = []
    residual: list[ScalarExpr] = []
    for conjunct in conjuncts(predicate):
        if not conjunct.references():
            startup.append(conjunct)
        else:
            residual.append(conjunct)
    return startup, residual
