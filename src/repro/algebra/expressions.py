"""Scalar expressions over column identities.

A *column identity* (:class:`ColumnId`, an integer) names one logical
column for the lifetime of a compilation: base-table columns get ids at
bind time; projections and aggregates mint new ids for computed values.
Operators carry ordered lists of the ids they output, so an expression
never depends on physical row layout — exploration rules can commute
joins and push predicates without rewriting expressions.

Evaluation compiles against a *layout* (id → row ordinal) produced by
the physical plan, yielding a plain Python closure per expression.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Sequence

from repro.errors import ExecutionError, OptimizerError
from repro.types import values as V
from repro.types.datatypes import (
    BOOL,
    DATE,
    DATETIME,
    FLOAT,
    INT,
    SqlType,
    common_super_type,
    infer_type,
    varchar,
)

#: a column identity
ColumnId = int


class ColumnDef:
    """Metadata for one column identity."""

    __slots__ = ("cid", "name", "type", "nullable", "source_alias")

    def __init__(
        self,
        cid: ColumnId,
        name: str,
        type: SqlType,
        nullable: bool = True,
        source_alias: Optional[str] = None,
    ):
        self.cid = cid
        self.name = name
        self.type = type
        self.nullable = nullable
        #: the table alias this column came from (display / decoding)
        self.source_alias = source_alias

    def __repr__(self) -> str:
        alias = f"{self.source_alias}." if self.source_alias else ""
        return f"ColumnDef(#{self.cid} {alias}{self.name}: {self.type!r})"


#: maps ColumnId -> row ordinal for a given physical layout
Layout = Dict[ColumnId, int]
#: a compiled expression: (row, params) -> value
Compiled = Callable[[Sequence[Any], Dict[str, Any]], Any]


class ScalarExpr:
    """Base scalar expression."""

    #: result type; set by constructors
    type: SqlType = varchar()

    def references(self) -> frozenset[ColumnId]:
        """All column ids this expression reads."""
        raise NotImplementedError

    def parameters(self) -> frozenset[str]:
        """All parameter names this expression reads."""
        return frozenset().union(
            *(child.parameters() for child in self.children())
        ) if self.children() else frozenset()

    def children(self) -> tuple["ScalarExpr", ...]:
        return ()

    def with_children(self, children: Sequence["ScalarExpr"]) -> "ScalarExpr":
        """This expression over ``children`` in place of
        :meth:`children`, in the same order; composites override it."""
        raise NotImplementedError

    def compile(self, layout: Layout) -> Compiled:
        """Compile to a closure over (row, params)."""
        raise NotImplementedError

    def substitute(
        self, mapping: Dict[ColumnId, "ScalarExpr"]
    ) -> "ScalarExpr":
        """Replace column refs per ``mapping`` (predicate pull/push)."""
        return self

    def remap(self, id_map: Dict[ColumnId, ColumnId]) -> "ScalarExpr":
        """Rewrite column ids (e.g. across a union branch)."""
        return self.substitute(
            {old: ColumnRef(new, f"#{new}") for old, new in id_map.items()}
        )

    def is_constant(self) -> bool:
        """True when the expression reads no columns (params allowed)."""
        return not self.references()

    def sql_key(self) -> tuple:
        """Structural identity for memo deduplication."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ScalarExpr) and self.sql_key() == other.sql_key()
        )

    def __hash__(self) -> int:
        return hash(self.sql_key())


class Literal(ScalarExpr):
    """A constant value."""

    def __init__(self, value: Any, type: Optional[SqlType] = None):
        self.value = value
        self.type = type if type is not None else infer_type(value)

    def references(self) -> frozenset[ColumnId]:
        return frozenset()

    def compile(self, layout: Layout) -> Compiled:
        value = self.value
        return lambda row, params: value

    def sql_key(self) -> tuple:
        return ("lit", repr(self.value))

    def __repr__(self) -> str:
        return f"Lit({self.value!r})"


class ColumnRef(ScalarExpr):
    """A reference to a column identity."""

    def __init__(
        self,
        cid: ColumnId,
        display: str = "",
        type: Optional[SqlType] = None,
        nullable: bool = True,
    ):
        self.cid = cid
        self.display = display or f"#{cid}"
        self.type = type if type is not None else varchar()
        self.nullable = nullable

    def references(self) -> frozenset[ColumnId]:
        return frozenset({self.cid})

    def compile(self, layout: Layout) -> Compiled:
        if self.cid not in layout:
            raise ExecutionError(
                f"column {self.display} (#{self.cid}) missing from layout"
            )
        ordinal = layout[self.cid]
        return lambda row, params: row[ordinal]

    def substitute(self, mapping: Dict[ColumnId, ScalarExpr]) -> ScalarExpr:
        return mapping.get(self.cid, self)

    def sql_key(self) -> tuple:
        return ("col", self.cid)

    def __repr__(self) -> str:
        return f"Col({self.display}#{self.cid})"


class Parameter(ScalarExpr):
    """A query parameter: named (``@name``) or a positional ``?``
    marker, whose name is ``?`` and its ordinal.

    Parameters are the fuel of startup filters (Section 4.1.5: "most
    modern SQL applications make use of variables in their queries")
    and of the remote parameterization rule (Section 4.1.2).
    """

    def __init__(self, name: str, type: Optional[SqlType] = None):
        self.name = name.lstrip("@")
        self.type = type if type is not None else varchar()

    @property
    def display(self) -> str:
        return self.name if self.name.startswith("?") else f"@{self.name}"

    def references(self) -> frozenset[ColumnId]:
        return frozenset()

    def parameters(self) -> frozenset[str]:
        return frozenset({self.name})

    def compile(self, layout: Layout) -> Compiled:
        name, display = self.name, self.display
        def evaluate(row: Sequence[Any], params: Dict[str, Any]) -> Any:
            if name not in params:
                raise ExecutionError(f"parameter {display} not supplied")
            return params[name]
        return evaluate

    def sql_key(self) -> tuple:
        return ("param", self.name)

    def __repr__(self) -> str:
        return self.display


_BINARY_FUNCS: Dict[str, Callable[[Any, Any], Any]] = {
    "=": V.sql_eq,
    "<>": V.sql_ne,
    "!=": V.sql_ne,
    "<": V.sql_lt,
    "<=": V.sql_le,
    ">": V.sql_gt,
    ">=": V.sql_ge,
    "+": V.sql_add,
    "-": V.sql_sub,
    "*": V.sql_mul,
    "/": V.sql_div,
    "AND": V.sql_and,
    "OR": V.sql_or,
}

COMPARISON_OPS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})
_FLIPPED = {"=": "=", "<>": "<>", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class BinaryOp(ScalarExpr):
    """Comparison, arithmetic, or boolean connective."""

    def __init__(self, op: str, left: ScalarExpr, right: ScalarExpr):
        if op not in _BINARY_FUNCS:
            raise OptimizerError(f"unknown binary operator {op!r}")
        self.op = op
        self.left = left
        self.right = right
        if op in COMPARISON_OPS or op in ("AND", "OR"):
            self.type = BOOL
        else:
            self.type = _arith_type(left.type, right.type)

    def children(self) -> tuple[ScalarExpr, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[ScalarExpr]) -> ScalarExpr:
        return BinaryOp(self.op, *children)

    def references(self) -> frozenset[ColumnId]:
        return self.left.references() | self.right.references()

    def compile(self, layout: Layout) -> Compiled:
        fn = _BINARY_FUNCS[self.op]
        left = self.left.compile(layout)
        right = self.right.compile(layout)
        return lambda row, params: fn(left(row, params), right(row, params))

    def substitute(self, mapping: Dict[ColumnId, ScalarExpr]) -> ScalarExpr:
        return BinaryOp(
            self.op, self.left.substitute(mapping), self.right.substitute(mapping)
        )

    def flipped(self) -> "BinaryOp":
        """``a < b`` as ``b > a`` (normalizing join predicates)."""
        return BinaryOp(_FLIPPED.get(self.op, self.op), self.right, self.left)

    def sql_key(self) -> tuple:
        return ("bin", self.op, self.left.sql_key(), self.right.sql_key())

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


def _arith_type(a: SqlType, b: SqlType) -> SqlType:
    try:
        return common_super_type(a, b)
    except Exception:
        return FLOAT


class NotOp(ScalarExpr):
    type = BOOL

    def __init__(self, operand: ScalarExpr):
        self.operand = operand

    def children(self) -> tuple[ScalarExpr, ...]:
        return (self.operand,)

    def with_children(self, children: Sequence[ScalarExpr]) -> ScalarExpr:
        return NotOp(*children)

    def references(self) -> frozenset[ColumnId]:
        return self.operand.references()

    def compile(self, layout: Layout) -> Compiled:
        inner = self.operand.compile(layout)
        return lambda row, params: V.sql_not(inner(row, params))

    def substitute(self, mapping: Dict[ColumnId, ScalarExpr]) -> ScalarExpr:
        return NotOp(self.operand.substitute(mapping))

    def sql_key(self) -> tuple:
        return ("not", self.operand.sql_key())

    def __repr__(self) -> str:
        return f"NOT {self.operand!r}"


class IsNullOp(ScalarExpr):
    type = BOOL

    def __init__(self, operand: ScalarExpr, negated: bool = False):
        self.operand = operand
        self.negated = negated

    def children(self) -> tuple[ScalarExpr, ...]:
        return (self.operand,)

    def with_children(self, children: Sequence[ScalarExpr]) -> ScalarExpr:
        return IsNullOp(*children, self.negated)

    def references(self) -> frozenset[ColumnId]:
        return self.operand.references()

    def compile(self, layout: Layout) -> Compiled:
        inner = self.operand.compile(layout)
        if self.negated:
            return lambda row, params: inner(row, params) is not None
        return lambda row, params: inner(row, params) is None

    def substitute(self, mapping: Dict[ColumnId, ScalarExpr]) -> ScalarExpr:
        return IsNullOp(self.operand.substitute(mapping), self.negated)

    def sql_key(self) -> tuple:
        return ("isnull", self.negated, self.operand.sql_key())

    def __repr__(self) -> str:
        middle = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.operand!r} {middle}"


class InListOp(ScalarExpr):
    """``expr IN (v1, v2, ...)`` over literal/parameter values."""

    type = BOOL

    def __init__(
        self, operand: ScalarExpr, items: Sequence[ScalarExpr], negated: bool = False
    ):
        self.operand = operand
        self.items = tuple(items)
        self.negated = negated

    def children(self) -> tuple[ScalarExpr, ...]:
        return (self.operand,) + self.items

    def with_children(self, children: Sequence[ScalarExpr]) -> ScalarExpr:
        return InListOp(children[0], children[1:], self.negated)

    def references(self) -> frozenset[ColumnId]:
        refs = self.operand.references()
        for item in self.items:
            refs |= item.references()
        return refs

    def compile(self, layout: Layout) -> Compiled:
        operand = self.operand.compile(layout)
        items = [item.compile(layout) for item in self.items]
        negated = self.negated

        def final(row: Sequence[Any], params: Dict[str, Any]) -> Any:
            value = operand(row, params)
            if value is None:
                return None
            saw_null = False
            matched = False
            for item in items:
                verdict = V.sql_eq(value, item(row, params))
                if verdict is True:
                    matched = True
                    break
                if verdict is None:
                    saw_null = True
            if matched:
                return False if negated else True
            if saw_null:
                return None
            return True if negated else False

        return final

    def substitute(self, mapping: Dict[ColumnId, ScalarExpr]) -> ScalarExpr:
        return InListOp(
            self.operand.substitute(mapping),
            [item.substitute(mapping) for item in self.items],
            self.negated,
        )

    def sql_key(self) -> tuple:
        return (
            "in",
            self.negated,
            self.operand.sql_key(),
            tuple(item.sql_key() for item in self.items),
        )

    def __repr__(self) -> str:
        middle = "NOT IN" if self.negated else "IN"
        return f"{self.operand!r} {middle} ({', '.join(map(repr, self.items))})"


class LikeOp(ScalarExpr):
    type = BOOL

    def __init__(self, operand: ScalarExpr, pattern: ScalarExpr, negated: bool = False):
        self.operand = operand
        self.pattern = pattern
        self.negated = negated

    def children(self) -> tuple[ScalarExpr, ...]:
        return (self.operand, self.pattern)

    def with_children(self, children: Sequence[ScalarExpr]) -> ScalarExpr:
        return LikeOp(*children, self.negated)

    def references(self) -> frozenset[ColumnId]:
        return self.operand.references() | self.pattern.references()

    def compile(self, layout: Layout) -> Compiled:
        operand = self.operand.compile(layout)
        pattern = self.pattern.compile(layout)
        negated = self.negated

        def evaluate(row: Sequence[Any], params: Dict[str, Any]) -> Any:
            verdict = V.sql_like(operand(row, params), pattern(row, params))
            if verdict is None:
                return None
            return (not verdict) if negated else verdict

        return evaluate

    def substitute(self, mapping: Dict[ColumnId, ScalarExpr]) -> ScalarExpr:
        return LikeOp(
            self.operand.substitute(mapping),
            self.pattern.substitute(mapping),
            self.negated,
        )

    def sql_key(self) -> tuple:
        return ("like", self.negated, self.operand.sql_key(), self.pattern.sql_key())

    def __repr__(self) -> str:
        middle = "NOT LIKE" if self.negated else "LIKE"
        return f"{self.operand!r} {middle} {self.pattern!r}"


def _fn_date(base: Any, days: Any) -> Any:
    return V.date_add_days(base, days)


def _fn_today() -> Any:
    import datetime as _dt

    return _dt.date(2004, 6, 15)  # deterministic "today" for reproducibility


def _fn_year(value: Any) -> Any:
    return None if value is None else value.year


def _fn_upper(value: Any) -> Any:
    return None if value is None else str(value).upper()


def _fn_lower(value: Any) -> Any:
    return None if value is None else str(value).lower()


def _fn_len(value: Any) -> Any:
    return None if value is None else len(str(value))


def _fn_abs(value: Any) -> Any:
    return None if value is None else abs(value)


_SCALAR_FUNCS: Dict[str, tuple[Callable[..., Any], Optional[SqlType]]] = {
    "date": (_fn_date, DATE),
    "today": (_fn_today, DATE),
    "year": (_fn_year, INT),
    "upper": (_fn_upper, None),
    "lower": (_fn_lower, None),
    "len": (_fn_len, INT),
    "abs": (_fn_abs, None),
}


def scalar_function_names() -> frozenset[str]:
    return frozenset(_SCALAR_FUNCS)


def register_scalar_function(
    name: str, fn: Callable[..., Any], result_type: Optional[SqlType] = None
) -> None:
    """Extension point: add a scalar function usable from SQL."""
    _SCALAR_FUNCS[name.lower()] = (fn, result_type)


class FuncCall(ScalarExpr):
    """A scalar function call (``date()``, ``today()``, ``upper()``...)."""

    def __init__(self, name: str, args: Sequence[ScalarExpr]):
        key = name.lower()
        if key not in _SCALAR_FUNCS:
            raise OptimizerError(f"unknown function {name!r}")
        self.name = key
        self.args = tuple(args)
        fn, result_type = _SCALAR_FUNCS[key]
        self.fn = fn
        if result_type is not None:
            self.type = result_type
        elif self.args:
            self.type = self.args[0].type
        else:
            self.type = varchar()

    def children(self) -> tuple[ScalarExpr, ...]:
        return self.args

    def with_children(self, children: Sequence[ScalarExpr]) -> ScalarExpr:
        return FuncCall(self.name, children)

    def references(self) -> frozenset[ColumnId]:
        refs: frozenset[ColumnId] = frozenset()
        for arg in self.args:
            refs |= arg.references()
        return refs

    def compile(self, layout: Layout) -> Compiled:
        fn = self.fn
        compiled_args = [arg.compile(layout) for arg in self.args]
        return lambda row, params: fn(*(a(row, params) for a in compiled_args))

    def substitute(self, mapping: Dict[ColumnId, ScalarExpr]) -> ScalarExpr:
        return FuncCall(self.name, [arg.substitute(mapping) for arg in self.args])

    def sql_key(self) -> tuple:
        return ("fn", self.name, tuple(arg.sql_key() for arg in self.args))

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(map(repr, self.args))})"


AGGREGATE_NAMES = frozenset({"count", "sum", "avg", "min", "max"})


class AggregateCall:
    """One aggregate computation inside a logical Aggregate operator.

    Not a ScalarExpr: aggregates only appear in Aggregate definitions,
    and downstream expressions reference their *output column id*.
    """

    __slots__ = ("func", "argument", "distinct", "output_cid", "output_name")

    def __init__(
        self,
        func: str,
        argument: Optional[ScalarExpr],
        output_cid: ColumnId,
        output_name: str = "",
        distinct: bool = False,
    ):
        key = func.lower()
        if key not in AGGREGATE_NAMES:
            raise OptimizerError(f"unknown aggregate {func!r}")
        self.func = key
        self.argument = argument
        self.distinct = distinct
        self.output_cid = output_cid
        self.output_name = output_name or f"{key}_{output_cid}"

    @property
    def type(self) -> SqlType:
        if self.func == "count":
            return INT
        if self.func == "avg":
            return FLOAT
        if self.argument is not None:
            return self.argument.type
        return FLOAT

    def references(self) -> frozenset[ColumnId]:
        if self.argument is None:
            return frozenset()
        return self.argument.references()

    def sql_key(self) -> tuple:
        return (
            "agg",
            self.func,
            self.distinct,
            self.argument.sql_key() if self.argument is not None else None,
            self.output_cid,
        )

    def __repr__(self) -> str:
        inner = "*" if self.argument is None else repr(self.argument)
        distinct = "DISTINCT " if self.distinct else ""
        return f"{self.func}({distinct}{inner})→#{self.output_cid}"


class ContainsPredicate(ScalarExpr):
    """A CONTAINS full-text predicate over one text column.

    Unlike ordinary predicates it cannot be evaluated row-at-a-time
    against the column value with fidelity (ranking, stemming, phrase
    positions live in the external index).  The optimizer's full-text
    implementation rule rewrites Select(Contains) over a Get into a
    join with the search service's (KEY, RANK) rowset (Figure 2); as a
    fallback the compiled form re-tokenizes the column text, so plans
    that keep the predicate still return correct (unranked) answers.
    """

    type = BOOL

    def __init__(self, column: ColumnRef, query_text: str):
        self.column = column
        self.query_text = query_text

    def children(self) -> tuple[ScalarExpr, ...]:
        return (self.column,)

    def with_children(self, children: Sequence[ScalarExpr]) -> ScalarExpr:
        return ContainsPredicate(*children, self.query_text)

    def references(self) -> frozenset[ColumnId]:
        return self.column.references()

    def compile(self, layout: Layout) -> Compiled:
        from repro.fulltext.index import InvertedIndex
        from repro.fulltext.querylang import parse_contains

        column = self.column.compile(layout)
        query = parse_contains(self.query_text)

        def evaluate(row: Sequence[Any], params: Dict[str, Any]) -> Any:
            text = column(row, params)
            if text is None:
                return None
            probe = InvertedIndex()
            probe.add_document(0, str(text))
            return 0 in query.evaluate(probe)

        return evaluate

    def substitute(self, mapping: Dict[ColumnId, ScalarExpr]) -> ScalarExpr:
        replaced = self.column.substitute(mapping)
        if isinstance(replaced, ColumnRef):
            return ContainsPredicate(replaced, self.query_text)
        return self

    def sql_key(self) -> tuple:
        return ("contains", self.column.sql_key(), self.query_text)

    def __repr__(self) -> str:
        return f"CONTAINS({self.column!r}, {self.query_text!r})"


class ScalarSubquery(ScalarExpr):
    """An uncorrelated scalar subquery, evaluated once per execution."""

    def __init__(self, plan: Any, type: Optional[SqlType] = None):
        #: a logical plan (optimized and executed lazily by the executor)
        self.plan = plan
        self.type = type if type is not None else varchar()
        self._cache: Dict[int, Any] = {}

    def references(self) -> frozenset[ColumnId]:
        return frozenset()

    def compile(self, layout: Layout) -> Compiled:
        raise ExecutionError(
            "scalar subqueries must be evaluated by the executor "
            "(bind-time rewrite missing)"
        )

    def sql_key(self) -> tuple:
        return ("scalar_subquery", id(self.plan))

    def __repr__(self) -> str:
        return "ScalarSubquery(...)"


# -- predicate utilities -----------------------------------------------------

def conjuncts(expr: Optional[ScalarExpr]) -> list[ScalarExpr]:
    """Split a predicate into AND-ed conjuncts (the paper's
    splitting-predicates rule operates on these)."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def conjoin(parts: Iterable[ScalarExpr]) -> Optional[ScalarExpr]:
    """AND conjuncts back together (the merging-predicates rule)."""
    result: Optional[ScalarExpr] = None
    for part in parts:
        result = part if result is None else BinaryOp("AND", result, part)
    return result
