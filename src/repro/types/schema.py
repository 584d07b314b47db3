"""Columns and schemas.

A :class:`Schema` is an ordered list of :class:`Column` objects and is
shared by rowsets, tables, and every operator in the optimizer and
executor.  Columns are addressed positionally at run time; the binder
resolves (qualifier, name) pairs to ordinals at compile time.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.errors import BindError, CatalogError
from repro.types.datatypes import SqlType, VarcharType


class Column:
    """A named, typed column, optionally qualified by a table alias."""

    __slots__ = ("name", "type", "nullable", "table_alias")

    def __init__(
        self,
        name: str,
        type: SqlType,
        nullable: bool = True,
        table_alias: Optional[str] = None,
    ):
        self.name = name
        self.type = type
        self.nullable = nullable
        self.table_alias = table_alias

    def with_alias(self, alias: Optional[str]) -> "Column":
        """A copy of this column qualified by ``alias``."""
        return Column(self.name, self.type, self.nullable, alias)

    def renamed(self, name: str) -> "Column":
        """A copy of this column with a new name."""
        return Column(name, self.type, self.nullable, self.table_alias)

    @property
    def qualified_name(self) -> str:
        if self.table_alias:
            return f"{self.table_alias}.{self.name}"
        return self.name

    def matches(self, name: str, qualifier: Optional[str] = None) -> bool:
        """Does this column answer to ``qualifier.name``?"""
        if self.name.lower() != name.lower():
            return False
        if qualifier is None:
            return True
        return (
            self.table_alias is not None
            and self.table_alias.lower() == qualifier.lower()
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Column)
            and self.name == other.name
            and self.type == other.type
            and self.nullable == other.nullable
            and self.table_alias == other.table_alias
        )

    def __hash__(self) -> int:
        return hash((self.name, self.type, self.nullable, self.table_alias))

    def __repr__(self) -> str:
        null = "" if self.nullable else " NOT NULL"
        return f"Column({self.qualified_name}: {self.type!r}{null})"


class Schema:
    """An ordered collection of columns with name-resolution helpers."""

    __slots__ = ("columns", "_width_fn")

    def __init__(self, columns: Iterable[Column]):
        self.columns = tuple(columns)
        self._width_fn: Optional[Callable[[Sequence[Any]], int]] = None

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __getitem__(self, index: int) -> Column:
        return self.columns[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)

    def __repr__(self) -> str:
        return f"Schema({', '.join(c.qualified_name for c in self.columns)})"

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def ordinal_of(self, name: str, qualifier: Optional[str] = None) -> int:
        """Resolve ``qualifier.name`` to a column ordinal.

        Raises :class:`BindError` if the name is missing or ambiguous.
        """
        matches = [
            i for i, c in enumerate(self.columns) if c.matches(name, qualifier)
        ]
        if not matches:
            target = f"{qualifier}.{name}" if qualifier else name
            raise BindError(f"column {target!r} not found")
        if len(matches) > 1:
            target = f"{qualifier}.{name}" if qualifier else name
            raise BindError(f"column {target!r} is ambiguous")
        return matches[0]

    def maybe_ordinal_of(
        self, name: str, qualifier: Optional[str] = None
    ) -> Optional[int]:
        """Like :meth:`ordinal_of` but returns None when not found
        (still raises on ambiguity)."""
        try:
            return self.ordinal_of(name, qualifier)
        except BindError as exc:
            if "ambiguous" in str(exc):
                raise
            return None

    def concat(self, other: "Schema") -> "Schema":
        """Schema of a join: this schema's columns followed by other's."""
        return Schema(self.columns + other.columns)

    def project(self, ordinals: Sequence[int]) -> "Schema":
        """Schema restricted to the given ordinals, in order."""
        return Schema(self.columns[i] for i in ordinals)

    def with_alias(self, alias: Optional[str]) -> "Schema":
        """All columns re-qualified with ``alias``."""
        return Schema(c.with_alias(alias) for c in self.columns)

    def validate_row(self, row: Sequence[Any]) -> tuple[Any, ...]:
        """Coerce a raw row to this schema, enforcing arity and types."""
        if len(row) != len(self.columns):
            raise CatalogError(
                f"row arity {len(row)} does not match schema arity "
                f"{len(self.columns)}"
            )
        out = []
        for value, column in zip(row, self.columns):
            coerced = column.type.validate(value)
            if coerced is None and not column.nullable:
                raise CatalogError(f"column {column.name!r} is NOT NULL")
            out.append(coerced)
        return tuple(out)

    def row_width(self, row: Optional[Sequence[Any]] = None) -> int:
        """Estimated serialized row width in bytes (value-specific if a
        row is given)."""
        if row is None:
            return sum(c.type.byte_width() for c in self.columns)
        return self.row_width_function()(row)

    def row_width_function(self) -> Callable[[Sequence[Any]], int]:
        """``row -> row_width(row)``, made once per schema.  Only
        VARCHAR's width depends on the value, so the other columns'
        widths are summed here and a row adds ``len(str(v)) + 2`` per
        VARCHAR value (the declared default for a NULL)."""
        width = self._width_fn
        if width is None:
            width = self._width_fn = _width_function(self.columns)
        return width


def _width_function(columns: tuple[Column, ...]) -> Callable[[Sequence[Any]], int]:
    fixed = 0
    varchars = []
    for ordinal, column in enumerate(columns):
        if isinstance(column.type, VarcharType):
            varchars.append((ordinal, column.type.byte_width()))
        else:
            fixed += column.type.byte_width()
    arity = len(columns)

    def width(row: Sequence[Any]) -> int:
        if len(row) != arity:  # a ragged row: sum what pairs up
            return sum(c.type.byte_width(v) for c, v in zip(columns, row))
        total = fixed
        for ordinal, null_width in varchars:
            value = row[ordinal]
            total += null_width if value is None else len(str(value)) + 2
        return total

    return width
