"""Provider capability descriptors.

:class:`ProviderCapabilities` is the one description of what a provider
can do — the facts OLE DB spreads over ``IDBInfo`` and the DBPROP
property sets (the ``DBPROP_SQLSUPPORT`` dialect level, nested-select
support, parallel scans, date literal syntax, identifier quoting:
Section 4.1.3's "additional properties").  The optimizer consumes it: the provider
category (simple / query / SQL / index, Section 3.3), which relational
operations can be remoted, and the decoder's dialect hints.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Iterable


class SqlSupportLevel(enum.IntEnum):
    """``DBPROP_SQLSUPPORT`` levels from Section 3.3, ordered by power.

    NONE means the provider exposes no textual command at all (a
    *simple provider*); PROPRIETARY means it accepts commands but in a
    non-SQL language, so the DHQP can only pass queries through via
    OpenQuery.
    """

    NONE = 0
    PROPRIETARY = 1
    SQL_MINIMUM = 2
    ODBC_CORE = 3
    SQL92_ENTRY = 4
    SQL92_INTERMEDIATE = 5
    SQL92_FULL = 6

    @property
    def is_sql(self) -> bool:
        return self >= SqlSupportLevel.SQL_MINIMUM


class Operation(enum.Enum):
    """Relational operations the DHQP may try to remote (Section 2.1:
    "joins, restrictions, projections, sorts, and group-by")."""

    RESTRICT = "restrict"
    PROJECT = "project"
    JOIN = "join"
    SORT = "sort"
    GROUP_BY = "group_by"
    AGGREGATE = "aggregate"
    UNION = "union"
    TOP = "top"
    PARAMETER = "parameter"


#: remotable operations at each SQL support level
_LEVEL_OPERATIONS: dict[SqlSupportLevel, frozenset[Operation]] = {
    SqlSupportLevel.NONE: frozenset(),
    SqlSupportLevel.PROPRIETARY: frozenset(),
    SqlSupportLevel.SQL_MINIMUM: frozenset(
        {Operation.RESTRICT, Operation.PROJECT}
    ),
    SqlSupportLevel.ODBC_CORE: frozenset(
        {
            Operation.RESTRICT,
            Operation.PROJECT,
            Operation.JOIN,
            Operation.SORT,
            Operation.PARAMETER,
        }
    ),
    SqlSupportLevel.SQL92_ENTRY: frozenset(
        {
            Operation.RESTRICT,
            Operation.PROJECT,
            Operation.JOIN,
            Operation.SORT,
            Operation.GROUP_BY,
            Operation.AGGREGATE,
            Operation.PARAMETER,
        }
    ),
    SqlSupportLevel.SQL92_INTERMEDIATE: frozenset(
        {
            Operation.RESTRICT,
            Operation.PROJECT,
            Operation.JOIN,
            Operation.SORT,
            Operation.GROUP_BY,
            Operation.AGGREGATE,
            Operation.UNION,
            Operation.PARAMETER,
        }
    ),
    SqlSupportLevel.SQL92_FULL: frozenset(
        {
            Operation.RESTRICT,
            Operation.PROJECT,
            Operation.JOIN,
            Operation.SORT,
            Operation.GROUP_BY,
            Operation.AGGREGATE,
            Operation.UNION,
            Operation.TOP,
            Operation.PARAMETER,
        }
    ),
}


class ProviderCapabilities:
    """What the optimizer knows about a provider.

    Built by the provider itself; read by the DHQP when deciding how
    much computation to push ("decide how much computation can be
    pushed to the remote data sources vs. executed locally", Section 1).
    """

    def __init__(
        self,
        sql_support: SqlSupportLevel,
        query_language: str = "none",
        supports_indexes: bool = False,
        supports_statistics: bool = False,
        supports_nested_select: bool = True,
        supports_parallel_scan: bool = False,
        supports_transactions: bool = False,
        date_literal_format: str = "iso",
        identifier_quotes: str = "[]",
        extra_operations: Iterable[Operation] = (),
        removed_operations: Iterable[Operation] = (),
        dialect_name: str = "generic",
    ):
        self.sql_support = sql_support
        self.query_language = query_language
        self.supports_indexes = supports_indexes
        self.supports_statistics = supports_statistics
        self.supports_nested_select = supports_nested_select
        self.supports_parallel_scan = supports_parallel_scan
        self.supports_transactions = supports_transactions
        self.date_literal_format = date_literal_format
        #: the opening and closing identifier quote: ``[]`` for
        #: T-SQL, ``""`` for ANSI SQL
        self.identifier_quotes = identifier_quotes
        self.dialect_name = dialect_name
        ops = set(_LEVEL_OPERATIONS[sql_support])
        ops.update(extra_operations)
        ops.difference_update(removed_operations)
        self.operations: frozenset[Operation] = frozenset(ops)

    # -- category tests (Section 3.3) -----------------------------------
    @property
    def is_simple_provider(self) -> bool:
        """Only connect + named rowsets: DHQP does all query work."""
        return self.sql_support == SqlSupportLevel.NONE

    @property
    def is_query_provider(self) -> bool:
        """Accepts textual commands (any language)."""
        return self.sql_support >= SqlSupportLevel.PROPRIETARY

    @property
    def is_sql_provider(self) -> bool:
        """Accepts SQL; DHQP may build remote queries for it."""
        return self.sql_support.is_sql

    @property
    def is_index_provider(self) -> bool:
        return self.supports_indexes

    def can_remote(self, operation: Operation) -> bool:
        """May the DHQP push ``operation`` to this provider?"""
        return operation in self.operations

    def quote_identifier(self, identifier: str) -> str:
        """Quote an identifier per this provider's convention."""
        open_quote, close_quote = self.identifier_quotes
        inner = identifier.replace(close_quote, close_quote * 2)
        return f"{open_quote}{inner}{close_quote}"

    def describe(self) -> Dict[str, Any]:
        """Capability matrix row (experiments E2/E3)."""
        return {
            "sql_support": self.sql_support.name,
            "query_language": self.query_language,
            "indexes": self.supports_indexes,
            "statistics": self.supports_statistics,
            "nested_select": self.supports_nested_select,
            "parallel_scan": self.supports_parallel_scan,
            "transactions": self.supports_transactions,
            "operations": sorted(op.value for op in self.operations),
            "dialect": self.dialect_name,
        }

    def __repr__(self) -> str:
        return (
            f"ProviderCapabilities({self.sql_support.name}, "
            f"lang={self.query_language})"
        )
