"""Catalogs: databases, schemas, tables, views.

Names follow SQL Server's convention: ``catalog.schema.object`` within
a server, and ``server.catalog.schema.object`` (four-part names,
Section 2.1) across linked servers.  Lookup is case-insensitive per the
default collation.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.errors import CatalogError
from repro.storage.table import Table
from repro.types.schema import Schema

DEFAULT_SCHEMA = "dbo"


class ViewDefinition:
    """A named view: its SQL text and the body parsed from it at CREATE
    VIEW (``select``, an AST no one mutates), expanded at bind time.

    Partitioned views (Section 4.1.5) are ordinary views whose body is
    a UNION ALL of member tables; the federation package recognizes the
    shape and attaches partition metadata.
    """

    __slots__ = ("name", "sql_text", "is_partitioned", "select")

    def __init__(
        self,
        name: str,
        sql_text: str,
        is_partitioned: bool = False,
        select: Any = None,
    ):
        self.name = name
        self.sql_text = sql_text
        self.is_partitioned = is_partitioned
        self.select = select

    def __repr__(self) -> str:
        kind = "PARTITIONED VIEW" if self.is_partitioned else "VIEW"
        return f"{kind} {self.name}"


class Database:
    """One catalog: named schemas each holding tables and views."""

    def __init__(self, name: str):
        self.name = name
        self._schemas: dict[str, dict[str, Table]] = {DEFAULT_SCHEMA: {}}
        self._views: dict[str, dict[str, ViewDefinition]] = {DEFAULT_SCHEMA: {}}
        #: bumped by every DDL so compiled plans can detect staleness
        self.schema_version = 0
        #: (schema, table) -> the version a dropped table died at: a
        #: table re-created under the name continues from it, so a
        #: linked server that remembers the old table sees the version
        #: move (delayed schema validation, Section 4.1.5)
        self._dropped_versions: dict[tuple[str, str], int] = {}

    def bump_schema_version(self) -> None:
        """Note a schema change not routed through this object (e.g.
        CREATE INDEX mutates the Table directly)."""
        self.schema_version += 1

    @staticmethod
    def _key(name: str) -> str:
        return name.lower()

    def create_schema(self, schema_name: str) -> None:
        key = self._key(schema_name)
        if key in self._schemas:
            raise CatalogError(f"schema {schema_name!r} already exists")
        self._schemas[key] = {}
        self._views[key] = {}
        self.schema_version += 1

    def create_table(
        self, name: str, schema: Schema, schema_name: str = DEFAULT_SCHEMA
    ) -> Table:
        tables = self._tables_in(schema_name)
        key = self._key(name)
        if key in tables:
            raise CatalogError(f"table {name!r} already exists")
        views = self._views[self._key(schema_name)]
        if key in views:
            raise CatalogError(f"{name!r} already exists as a view")
        table = Table(name, schema)
        table.schema_version += self._dropped_versions.pop(
            (self._key(schema_name), key), 0
        )
        tables[key] = table
        self.schema_version += 1
        return table

    def create_view(
        self,
        name: str,
        sql_text: str,
        schema_name: str = DEFAULT_SCHEMA,
        is_partitioned: bool = False,
        select: Any = None,
    ) -> ViewDefinition:
        views = self._views_in(schema_name)
        key = self._key(name)
        if key in views or key in self._tables_in(schema_name):
            raise CatalogError(f"object {name!r} already exists")
        view = ViewDefinition(name, sql_text, is_partitioned, select)
        views[key] = view
        self.schema_version += 1
        return view

    def drop_table(self, name: str, schema_name: str = DEFAULT_SCHEMA) -> None:
        tables = self._tables_in(schema_name)
        key = self._key(name)
        if key not in tables:
            raise CatalogError(f"table {name!r} does not exist")
        self._dropped_versions[self._key(schema_name), key] = (
            tables.pop(key).schema_version
        )
        self.schema_version += 1

    def _tables_in(self, schema_name: str) -> dict[str, Table]:
        key = self._key(schema_name)
        if key not in self._schemas:
            raise CatalogError(f"schema {schema_name!r} does not exist")
        return self._schemas[key]

    def _views_in(self, schema_name: str) -> dict[str, ViewDefinition]:
        key = self._key(schema_name)
        if key not in self._views:
            raise CatalogError(f"schema {schema_name!r} does not exist")
        return self._views[key]

    def table(self, name: str, schema_name: str = DEFAULT_SCHEMA) -> Table:
        tables = self._tables_in(schema_name)
        key = self._key(name)
        if key not in tables:
            raise CatalogError(
                f"table {schema_name}.{name} not found in database {self.name}"
            )
        return tables[key]

    def maybe_table(
        self, name: str, schema_name: str = DEFAULT_SCHEMA
    ) -> Optional[Table]:
        try:
            return self.table(name, schema_name)
        except CatalogError:
            return None

    def view(self, name: str, schema_name: str = DEFAULT_SCHEMA) -> ViewDefinition:
        views = self._views_in(schema_name)
        key = self._key(name)
        if key not in views:
            raise CatalogError(f"view {schema_name}.{name} not found")
        return views[key]

    def maybe_view(
        self, name: str, schema_name: str = DEFAULT_SCHEMA
    ) -> Optional[ViewDefinition]:
        try:
            return self.view(name, schema_name)
        except CatalogError:
            return None

    def tables(self) -> Iterator[tuple[str, Table]]:
        """Yield (schema_name, table) for every table."""
        for schema_name, tables in self._schemas.items():
            for table in tables.values():
                yield schema_name, table

    def views(self) -> Iterator[tuple[str, ViewDefinition]]:
        for schema_name, views in self._views.items():
            for view in views.values():
                yield schema_name, view

    def __repr__(self) -> str:
        n = sum(len(t) for t in self._schemas.values())
        return f"Database({self.name}, {n} tables)"


class Catalog:
    """All databases of one server instance."""

    def __init__(self, default_database: str = "master"):
        self._databases: dict[str, Database] = {}
        self.default_database = default_database
        self._version = 0
        self.create_database(default_database)

    @property
    def schema_version(self) -> int:
        """Monotonic counter over every DDL on this server: database
        creations plus each database's own schema version."""
        return self._version + sum(
            db.schema_version for db in self._databases.values()
        )

    @staticmethod
    def _key(name: str) -> str:
        return name.lower()

    def create_database(self, name: str) -> Database:
        key = self._key(name)
        if key in self._databases:
            raise CatalogError(f"database {name!r} already exists")
        database = Database(name)
        self._databases[key] = database
        self._version += 1
        return database

    def database(self, name: Optional[str] = None) -> Database:
        key = self._key(name or self.default_database)
        if key not in self._databases:
            raise CatalogError(f"database {name!r} does not exist")
        return self._databases[key]

    def databases(self) -> Iterator[Database]:
        return iter(self._databases.values())

    def resolve_table(
        self,
        table_name: str,
        schema_name: Optional[str] = None,
        database_name: Optional[str] = None,
    ) -> Table:
        """Resolve a (possibly partially qualified) table name."""
        database = self.database(database_name)
        return database.table(table_name, schema_name or DEFAULT_SCHEMA)

    def __repr__(self) -> str:
        return f"Catalog({sorted(self._databases)})"
