"""Logical operators.

"Unlike some other optimizers, each operator is represented as a unique
node in a query tree.  For example, 'A JOIN B JOIN C' would be
represented as two 'joins' and three 'get' operations" (Section 4.1.1).

Every operator knows its output column ids; inputs are other logical
operators before memo insertion and group numbers afterwards (the memo
replaces children with group references so "rules ... match patterns
without comparing whole trees").
"""

from __future__ import annotations

import enum
from typing import Any, Optional, Sequence

from repro.algebra.expressions import (
    AggregateCall,
    ColumnDef,
    ColumnId,
    ScalarExpr,
)


class TableRef:
    """A resolved table reference: which server, which table, how remote.

    ``server`` is None for local tables; otherwise the linked server
    name, and ``provider`` carries the linked server's capabilities —
    the "flag indicating their level of remotability" of Section 4.1.3.
    """

    __slots__ = (
        "server",
        "database",
        "schema_name",
        "table_name",
        "alias",
        "columns",
        "provider",
        "local_table",
        "remote_info",
        "check_domains",
        "fulltext",
    )

    def __init__(
        self,
        table_name: str,
        alias: str,
        columns: Sequence[ColumnDef],
        server: Optional[str] = None,
        database: Optional[str] = None,
        schema_name: Optional[str] = None,
        provider: Optional[Any] = None,
        local_table: Optional[Any] = None,
        remote_info: Optional[Any] = None,
        check_domains: Optional[dict[str, Any]] = None,
        fulltext: Optional[Any] = None,
    ):
        self.table_name = table_name
        self.alias = alias
        self.columns = tuple(columns)
        self.server = server
        self.database = database
        self.schema_name = schema_name
        #: the LinkedServer (or None for local tables)
        self.provider = provider
        #: the storage Table when local
        self.local_table = local_table
        #: RemoteTableInfo when remote
        self.remote_info = remote_info
        #: column name (lower) -> IntervalSet from CHECK constraints
        self.check_domains = dict(check_domains or {})
        #: FullTextBinding when a full-text index covers this table
        self.fulltext = fulltext

    @property
    def is_remote(self) -> bool:
        return self.server is not None

    @property
    def qualified_name(self) -> str:
        parts = [self.server, self.database, self.schema_name, self.table_name]
        return ".".join(p for p in parts if p)

    def column_ids(self) -> tuple[ColumnId, ...]:
        return tuple(c.cid for c in self.columns)

    def __repr__(self) -> str:
        return f"TableRef({self.qualified_name} AS {self.alias})"


class LogicalOp:
    """Base logical operator."""

    #: child operators (or Group objects once inside the memo)
    inputs: tuple[Any, ...] = ()

    def output_ids(self) -> tuple[ColumnId, ...]:
        """Ordered ids of the columns this operator produces."""
        raise NotImplementedError

    def with_inputs(self, inputs: Sequence[Any]) -> "LogicalOp":
        """A copy with different children (memo insertion)."""
        raise NotImplementedError

    def op_key(self) -> tuple:
        """Structural identity excluding children (memo dedup combines
        this with child group numbers)."""
        raise NotImplementedError

    @property
    def name(self) -> str:
        return type(self).__name__


class Get(LogicalOp):
    """Scan of a base table (local or remote)."""

    def __init__(self, table: TableRef):
        self.table = table
        self.inputs = ()

    def output_ids(self) -> tuple[ColumnId, ...]:
        return self.table.column_ids()

    def with_inputs(self, inputs: Sequence[Any]) -> "Get":
        assert not inputs
        return self

    def op_key(self) -> tuple:
        return ("Get", self.table.qualified_name, self.table.alias,
                self.table.column_ids())

    def __repr__(self) -> str:
        return f"Get({self.table.qualified_name})"


class Select(LogicalOp):
    """Filter rows by a predicate (a *restriction*)."""

    def __init__(self, child: Any, predicate: ScalarExpr):
        self.inputs = (child,)
        self.predicate = predicate

    @property
    def child(self) -> Any:
        return self.inputs[0]

    def output_ids(self) -> tuple[ColumnId, ...]:
        return self.child.output_ids()

    def with_inputs(self, inputs: Sequence[Any]) -> "Select":
        return Select(inputs[0], self.predicate)

    def op_key(self) -> tuple:
        return ("Select", self.predicate.sql_key())

    def __repr__(self) -> str:
        return f"Select({self.predicate!r})"


class Project(LogicalOp):
    """Projection: keeps/renames columns and computes new ones.

    ``outputs`` is an ordered list of (cid, expr) pairs; pass-through
    columns use a ColumnRef expr with the same cid.
    """

    def __init__(
        self,
        child: Any,
        outputs: Sequence[tuple[ColumnId, ScalarExpr]],
        column_defs: Sequence[ColumnDef],
    ):
        self.inputs = (child,)
        self.outputs = tuple(outputs)
        self.column_defs = tuple(column_defs)

    @property
    def child(self) -> Any:
        return self.inputs[0]

    def output_ids(self) -> tuple[ColumnId, ...]:
        return tuple(cid for cid, __ in self.outputs)

    def with_inputs(self, inputs: Sequence[Any]) -> "Project":
        return Project(inputs[0], self.outputs, self.column_defs)

    def op_key(self) -> tuple:
        return (
            "Project",
            tuple((cid, expr.sql_key()) for cid, expr in self.outputs),
        )

    def __repr__(self) -> str:
        cols = ", ".join(f"#{cid}" for cid, __ in self.outputs)
        return f"Project({cols})"


class JoinKind(enum.Enum):
    INNER = "inner"
    LEFT_OUTER = "left_outer"
    CROSS = "cross"
    SEMI = "semi"
    ANTI_SEMI = "anti_semi"


class Join(LogicalOp):
    """Binary join.  Semi/anti-semi joins come from subquery unrolling
    (Section 4.1.4) and have no direct SQL corollary — the decoder must
    pick a different alternative from the group when remoting."""

    def __init__(
        self,
        left: Any,
        right: Any,
        kind: JoinKind,
        condition: Optional[ScalarExpr] = None,
    ):
        self.inputs = (left, right)
        self.kind = kind
        self.condition = condition

    @property
    def left(self) -> Any:
        return self.inputs[0]

    @property
    def right(self) -> Any:
        return self.inputs[1]

    def output_ids(self) -> tuple[ColumnId, ...]:
        left_ids = self.left.output_ids()
        if self.kind in (JoinKind.SEMI, JoinKind.ANTI_SEMI):
            return tuple(left_ids)
        return tuple(left_ids) + tuple(self.right.output_ids())

    def with_inputs(self, inputs: Sequence[Any]) -> "Join":
        return Join(inputs[0], inputs[1], self.kind, self.condition)

    def op_key(self) -> tuple:
        return (
            "Join",
            self.kind.value,
            self.condition.sql_key() if self.condition is not None else None,
        )

    def __repr__(self) -> str:
        return f"Join[{self.kind.value}]({self.condition!r})"


class Aggregate(LogicalOp):
    """GROUP BY + aggregate computation."""

    def __init__(
        self,
        child: Any,
        group_by: Sequence[ColumnId],
        aggregates: Sequence[AggregateCall],
    ):
        self.inputs = (child,)
        self.group_by = tuple(group_by)
        self.aggregates = tuple(aggregates)

    @property
    def child(self) -> Any:
        return self.inputs[0]

    def output_ids(self) -> tuple[ColumnId, ...]:
        return self.group_by + tuple(a.output_cid for a in self.aggregates)

    def with_inputs(self, inputs: Sequence[Any]) -> "Aggregate":
        return Aggregate(inputs[0], self.group_by, self.aggregates)

    def op_key(self) -> tuple:
        return (
            "Aggregate",
            self.group_by,
            tuple(a.sql_key() for a in self.aggregates),
        )

    def __repr__(self) -> str:
        return f"Aggregate(by={self.group_by}, {list(self.aggregates)!r})"


class SortKeySpec:
    """One ORDER BY key."""

    __slots__ = ("cid", "ascending")

    def __init__(self, cid: ColumnId, ascending: bool = True):
        self.cid = cid
        self.ascending = ascending

    def key(self) -> tuple:
        return (self.cid, self.ascending)

    def __repr__(self) -> str:
        return f"#{self.cid}{'' if self.ascending else ' DESC'}"


class Sort(LogicalOp):
    """ORDER BY (also used as the logical form the sort enforcer
    implements)."""

    def __init__(self, child: Any, keys: Sequence[SortKeySpec]):
        self.inputs = (child,)
        self.keys = tuple(keys)

    @property
    def child(self) -> Any:
        return self.inputs[0]

    def output_ids(self) -> tuple[ColumnId, ...]:
        return self.child.output_ids()

    def with_inputs(self, inputs: Sequence[Any]) -> "Sort":
        return Sort(inputs[0], self.keys)

    def op_key(self) -> tuple:
        return ("Sort", tuple(k.key() for k in self.keys))

    def __repr__(self) -> str:
        return f"Sort({list(self.keys)!r})"


class UnionAll(LogicalOp):
    """N-ary UNION ALL — the shape of partitioned views (Section 4.1.5).

    Each branch has its own column ids; ``output_defs`` defines the
    union's output ids and ``branch_maps`` maps each branch's ids to
    them.
    """

    def __init__(
        self,
        children: Sequence[Any],
        output_defs: Sequence[ColumnDef],
        branch_maps: Sequence[dict[ColumnId, ColumnId]],
    ):
        self.inputs = tuple(children)
        self.output_defs = tuple(output_defs)
        #: per-branch: output cid -> branch cid
        self.branch_maps = tuple(dict(m) for m in branch_maps)

    def output_ids(self) -> tuple[ColumnId, ...]:
        return tuple(d.cid for d in self.output_defs)

    def with_inputs(self, inputs: Sequence[Any]) -> "UnionAll":
        return UnionAll(inputs, self.output_defs, self.branch_maps)

    def op_key(self) -> tuple:
        return (
            "UnionAll",
            tuple(d.cid for d in self.output_defs),
            tuple(tuple(sorted(m.items())) for m in self.branch_maps),
        )

    def __repr__(self) -> str:
        return f"UnionAll({len(self.inputs)} branches)"


class Top(LogicalOp):
    """TOP n."""

    def __init__(self, child: Any, count: int):
        self.inputs = (child,)
        self.count = count

    @property
    def child(self) -> Any:
        return self.inputs[0]

    def output_ids(self) -> tuple[ColumnId, ...]:
        return self.child.output_ids()

    def with_inputs(self, inputs: Sequence[Any]) -> "Top":
        return Top(inputs[0], self.count)

    def op_key(self) -> tuple:
        return ("Top", self.count)

    def __repr__(self) -> str:
        return f"Top({self.count})"


class Values(LogicalOp):
    """A constant table (VALUES lists, single-row SELECT w/o FROM)."""

    def __init__(
        self,
        rows: Sequence[Sequence[ScalarExpr]],
        column_defs: Sequence[ColumnDef],
    ):
        self.inputs = ()
        self.rows = tuple(tuple(r) for r in rows)
        self.column_defs = tuple(column_defs)

    def output_ids(self) -> tuple[ColumnId, ...]:
        return tuple(d.cid for d in self.column_defs)

    def with_inputs(self, inputs: Sequence[Any]) -> "Values":
        return self

    def op_key(self) -> tuple:
        return (
            "Values",
            tuple(
                tuple(expr.sql_key() for expr in row) for row in self.rows
            ),
            tuple(d.cid for d in self.column_defs),
        )

    def __repr__(self) -> str:
        return f"Values({len(self.rows)} rows)"


class EmptyTable(LogicalOp):
    """The logical empty table static pruning reduces to (Section 4.1.5:
    "we can reduce the operator to a logical empty table operator")."""

    def __init__(self, column_defs: Sequence[ColumnDef]):
        self.inputs = ()
        self.column_defs = tuple(column_defs)

    def output_ids(self) -> tuple[ColumnId, ...]:
        return tuple(d.cid for d in self.column_defs)

    def with_inputs(self, inputs: Sequence[Any]) -> "EmptyTable":
        return self

    def op_key(self) -> tuple:
        return ("EmptyTable", tuple(d.cid for d in self.column_defs))

    def __repr__(self) -> str:
        return "EmptyTable"


class ProviderRowset(LogicalOp):
    """An opaque provider-served rowset: OPENROWSET over a command or
    named rowset, OPENQUERY pass-through, or the paper's MakeTable TVF.

    The DHQP cannot decompose these — it executes the command (or opens
    the named rowset) verbatim and consumes the result, providing any
    further query processing itself (Section 3.3's pass-through rule).
    """

    def __init__(
        self,
        label: str,
        datasource: Any,
        column_defs: Sequence[ColumnDef],
        command_text: Optional[str] = None,
        rowset_name: Optional[str] = None,
        cardinality_hint: float = 1000.0,
    ):
        self.inputs = ()
        self.label = label
        self.datasource = datasource
        self.column_defs = tuple(column_defs)
        self.command_text = command_text
        self.rowset_name = rowset_name
        self.cardinality_hint = cardinality_hint

    def output_ids(self) -> tuple[ColumnId, ...]:
        return tuple(d.cid for d in self.column_defs)

    def with_inputs(self, inputs: Sequence[Any]) -> "ProviderRowset":
        return self

    def op_key(self) -> tuple:
        return (
            "ProviderRowset",
            self.label,
            id(self.datasource),
            self.command_text,
            self.rowset_name,
            tuple(d.cid for d in self.column_defs),
        )

    def __repr__(self) -> str:
        what = self.command_text or self.rowset_name or ""
        return f"ProviderRowset({self.label}, {what[:40]!r})"
