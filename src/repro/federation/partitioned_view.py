"""Partitioned view definition and member discovery.

"A partitioned view unions horizontally partitioned data from a set of
member tables across one or more servers ... The range of values in
each member table is enforced by a CHECK constraint on a column
designated as the partitioning column.  Each table must store a
disjoint range of partitioned values."
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.errors import CatalogError, SqlError
from repro.sql import ast
from repro.storage.catalog import Database, ViewDefinition
from repro.types.intervals import IntervalSet


class PartitionMember:
    """One member table of a partitioned view."""

    __slots__ = ("server_name", "database_name", "schema_name", "table_name",
                 "domain", "partition_column")

    def __init__(
        self,
        table_name: str,
        domain: Optional[IntervalSet],
        partition_column: Optional[str],
        server_name: Optional[str] = None,
        database_name: Optional[str] = None,
        schema_name: str = "dbo",
    ):
        self.table_name = table_name
        self.domain = domain
        self.partition_column = partition_column
        self.server_name = server_name
        self.database_name = database_name
        self.schema_name = schema_name

    @property
    def is_remote(self) -> bool:
        return self.server_name is not None

    def qualified_name(self) -> str:
        parts = [
            p
            for p in (
                self.server_name,
                self.database_name,
                self.schema_name,
                self.table_name,
            )
            if p
        ]
        return ".".join(parts)

    def accepts(self, value: Any) -> bool:
        """Does this member's partition domain admit ``value``?"""
        if self.domain is None:
            return True
        return self.domain.contains(value)

    def __repr__(self) -> str:
        return f"PartitionMember({self.qualified_name()}, {self.domain!r})"


def create_partitioned_view(
    engine: Any,  # ServerInstance
    view_name: str,
    member_names: Sequence[str],
    database: Optional[str] = None,
) -> ViewDefinition:
    """CREATE VIEW <name> AS SELECT * FROM m1 UNION ALL SELECT * FROM m2
    ... over the given member names (which may be four-part remote
    names)."""
    if not member_names:
        raise SqlError("a partitioned view needs at least one member")
    body = " UNION ALL ".join(
        f"SELECT * FROM {member}" for member in member_names
    )
    engine.execute(f"CREATE VIEW {view_name} AS {body}")
    db = engine.catalog.database(database)
    return db.view(view_name)


def partition_members(
    engine: Any,
    database: Database,
    schema_name: str,
    view: ViewDefinition,
) -> list[PartitionMember]:
    """Resolve a partitioned view's members and their partition domains.

    Local members read CHECK constraints from the catalog; remote
    members read them through the CHECK_CONSTRAINTS schema rowset
    cached on the linked server (Section 4.1.5 + Section 3's metadata
    contract).
    """
    stmt = view.select
    if not isinstance(stmt, ast.SelectStmt):
        raise CatalogError(f"view {view.name} is not a SELECT")
    branches = [stmt] + list(stmt.union_all)
    members: list[PartitionMember] = []
    for branch in branches:
        if len(branch.sources) != 1 or not isinstance(
            branch.sources[0], ast.NamedTable
        ):
            raise CatalogError(
                f"partitioned view {view.name}: branches must be single "
                "table SELECTs"
            )
        named = branch.sources[0]
        parts = list(named.parts)
        if len(parts) == 4:
            server_name, database_name, member_schema, table_name = parts
            server = engine.linked_server(server_name)
            if server is None:
                raise CatalogError(f"unknown linked server {server_name!r}")
            info = server.table_info(table_name, database_name)
            column, domain = _single_domain(info.check_domains)
            members.append(
                PartitionMember(
                    table_name,
                    domain,
                    column,
                    server_name,
                    database_name,
                    member_schema or "dbo",
                )
            )
        else:
            table_name = parts[-1]
            member_schema = parts[-2] if len(parts) >= 2 else schema_name
            table = database.table(table_name, member_schema or schema_name)
            column, domain = _single_domain(table.check_domains())
            members.append(
                PartitionMember(
                    table_name,
                    domain,
                    column,
                    None,
                    database.name,
                    member_schema or schema_name,
                )
            )
    return members


def validate_disjoint(members: Sequence[PartitionMember]) -> None:
    """Check members hold disjoint ranges ("Each table must store a
    disjoint range of partitioned values")."""
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if a.domain is None or b.domain is None:
                raise CatalogError(
                    "partitioned view members must all carry CHECK "
                    "constraints on the partitioning column"
                )
            if not a.domain.disjoint_from(b.domain):
                raise CatalogError(
                    f"partition domains of {a.table_name} and "
                    f"{b.table_name} overlap"
                )


def _single_domain(domains: dict) -> tuple[Optional[str], Optional[IntervalSet]]:
    if len(domains) == 1:
        ((column, domain),) = domains.items()
        return column, domain
    return None, None
