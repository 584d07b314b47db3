"""Table constraints.

CHECK constraints are load-bearing in this paper: partitioned views
(Section 4.1.5) rely on a CHECK constraint over the partitioning column
of each member table, and the optimizer turns those constraints into
domain (constraint) properties for static and runtime pruning.  A
:class:`CheckConstraint` therefore carries *both* an executable
predicate and, when the predicate is a simple range over one column, an
:class:`~repro.types.intervals.IntervalSet` the optimizer can reason
about symbolically.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

from repro.errors import ConstraintError
from repro.types.intervals import IntervalSet
from repro.types.schema import Schema


def intersect_domains(
    domains: Iterable[tuple[str, IntervalSet]],
) -> dict[str, IntervalSet]:
    """Column name (lower) -> the intersection of every domain given for
    that column: a column under two CHECKs admits what both admit."""
    out: dict[str, IntervalSet] = {}
    for column_name, domain in domains:
        key = column_name.lower()
        existing = out.get(key)
        out[key] = domain if existing is None else existing.intersect(domain)
    return out


class Constraint:
    """Base class: validates candidate rows on insert/update."""

    name: str

    def validate(self, row: Sequence[Any], schema: Schema) -> None:
        raise NotImplementedError


class NotNullConstraint(Constraint):
    """Rejects NULL in a column (also encoded on Column.nullable)."""

    def __init__(self, column_name: str, name: Optional[str] = None):
        self.column_name = column_name
        self.name = name or f"nn_{column_name}"

    def validate(self, row: Sequence[Any], schema: Schema) -> None:
        ordinal = schema.ordinal_of(self.column_name)
        if row[ordinal] is None:
            raise ConstraintError(
                f"{self.name}: column {self.column_name!r} must not be NULL"
            )


class CheckConstraint(Constraint):
    """A CHECK constraint with an optional symbolic domain.

    ``domain`` maps the constrained column to the interval set of values
    the constraint admits, e.g. ``L_COMMITDATE >= '1992-01-01' AND
    L_COMMITDATE < '1993-01-01'`` yields the domain
    ``['1992-01-01', '1993-01-01')`` on ``L_COMMITDATE``.  Partition
    routing and pruning read this domain; row validation uses the
    executable predicate.
    """

    def __init__(
        self,
        name: str,
        predicate: Callable[[Sequence[Any], Schema], Optional[bool]],
        column_name: Optional[str] = None,
        domain: Optional[IntervalSet] = None,
        sql_text: str = "",
    ):
        self.name = name
        self.predicate = predicate
        self.column_name = column_name
        self.domain = domain
        self.sql_text = sql_text

    @staticmethod
    def from_domain(
        name: str, column_name: str, domain: IntervalSet, sql_text: str = ""
    ) -> "CheckConstraint":
        """A CHECK constraint defined entirely by a column domain."""

        def predicate(row: Sequence[Any], schema: Schema) -> Optional[bool]:
            value = row[schema.ordinal_of(column_name)]
            if value is None:
                return None  # CHECK passes on UNKNOWN, per SQL
            return domain.contains(value)

        return CheckConstraint(name, predicate, column_name, domain, sql_text)

    def validate(self, row: Sequence[Any], schema: Schema) -> None:
        verdict = self.predicate(row, schema)
        if verdict is False:  # UNKNOWN (None) passes, per SQL semantics
            raise ConstraintError(f"CHECK constraint {self.name} violated")

    def __repr__(self) -> str:
        if self.domain is not None and self.column_name:
            return f"CHECK {self.name}({self.column_name} IN {self.domain!r})"
        return f"CHECK {self.name}"


class UniqueConstraint(Constraint):
    """Declarative uniqueness; enforcement lives in the backing index.

    Tables create a unique B-tree index for each UniqueConstraint, so
    ``validate`` here only re-checks arity — the index raises on
    duplicates during insert.
    """

    def __init__(
        self,
        column_names: Sequence[str],
        name: Optional[str] = None,
        primary_key: bool = False,
    ):
        self.column_names = tuple(column_names)
        self.primary_key = primary_key
        default = "pk" if primary_key else "uq"
        self.name = name or f"{default}_{'_'.join(column_names)}"

    def validate(self, row: Sequence[Any], schema: Schema) -> None:
        for column_name in self.column_names:
            schema.ordinal_of(column_name)  # raises if the column vanished

    def __repr__(self) -> str:
        kind = "PRIMARY KEY" if self.primary_key else "UNIQUE"
        return f"{kind} {self.name}({', '.join(self.column_names)})"
