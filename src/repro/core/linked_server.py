"""Linked servers (Section 2.1).

"Linked server names associate a server name with an OLE DB data
source."  A :class:`LinkedServer` owns an initialized
:class:`~repro.oledb.datasource.DataSource` and performs all metadata
discovery *through the OLE DB interfaces* — schema rowsets for columns,
indexes, cardinality and check constraints, histogram rowsets for
statistics — exactly the contract the paper describes.  Discovered
metadata is cached per schema version; delayed schema validation
(Section 4.1.5) re-checks the version at execution time.
"""

from __future__ import annotations

import re
import threading
from typing import Dict, Optional

from repro.errors import (
    CatalogError,
    CircuitOpenError,
    NetworkError,
    NotSupportedError,
    ProviderError,
    SchemaValidationError,
    ServerUnavailableError,
)
from repro.network.ledger import RemoteCommandSpan, current_ledger
from repro.oledb.datasource import DataSource
from repro.oledb.interfaces import IDB_SCHEMA_ROWSET
from repro.oledb.properties import ProviderCapabilities
from repro.oledb.schema_rowsets import histogram_from_rowset
from repro.oledb.session import Session
from repro.resilience.retry import RetryPolicy, call_with_retry
from repro.stats.table_stats import ColumnStatistics
from repro.storage.btree import IndexMetadata
from repro.storage.constraints import intersect_domains
from repro.types.datatypes import (
    BIGINT,
    BOOL,
    DATE,
    DATETIME,
    FLOAT,
    INT,
    SqlType,
    varchar,
)
from repro.types.intervals import IntervalSet
from repro.types.schema import Column, Schema

_TYPE_PATTERN = re.compile(r"([A-Za-z]+)(?:\((\d+)\))?")

_TYPE_BY_NAME: Dict[str, SqlType] = {
    "INT": INT,
    "INTEGER": INT,
    "BIGINT": BIGINT,
    "FLOAT": FLOAT,
    "REAL": FLOAT,
    "DOUBLE": FLOAT,
    "BIT": BOOL,
    "BOOL": BOOL,
    "DATE": DATE,
    "DATETIME": DATETIME,
    "TIMESTAMP": DATETIME,
}


def type_from_name(name: str) -> SqlType:
    """Parse a type name ('INT', 'VARCHAR(50)') back into a SqlType."""
    match = _TYPE_PATTERN.match(name.strip())
    if match is None:
        raise CatalogError(f"unparseable type name {name!r}")
    family = match.group(1).upper()
    argument = match.group(2)
    if family in ("VARCHAR", "NVARCHAR", "CHAR", "TEXT", "STRING"):
        return varchar(int(argument) if argument else None)
    if family in _TYPE_BY_NAME:
        return _TYPE_BY_NAME[family]
    raise CatalogError(f"unknown type name {name!r}")


class RemoteTableInfo:
    """Everything the optimizer knows about one remote table."""

    __slots__ = (
        "table_name",
        "schema",
        "cardinality",
        "avg_row_width",
        "schema_version",
        "indexes",
        "check_domains",
        "_column_stats",
    )

    def __init__(
        self,
        table_name: str,
        schema: Schema,
        cardinality: float,
        avg_row_width: float,
        schema_version: int,
        indexes: list[IndexMetadata],
        check_domains: Dict[str, IntervalSet],
    ):
        self.table_name = table_name
        self.schema = schema
        self.cardinality = cardinality
        self.avg_row_width = avg_row_width
        self.schema_version = schema_version
        self.indexes = indexes
        self.check_domains = check_domains
        self._column_stats: Dict[str, Optional[ColumnStatistics]] = {}

    def __repr__(self) -> str:
        return (
            f"RemoteTableInfo({self.table_name}, rows={self.cardinality:.0f}, "
            f"v{self.schema_version})"
        )


class LinkedServer:
    """A named OLE DB data source registered with the engine."""

    def __init__(
        self,
        name: str,
        datasource: DataSource,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.name = name
        self.datasource = datasource
        if not datasource.initialized:
            datasource.initialize()
        self._session: Optional[Session] = None
        self._table_cache: Dict[str, RemoteTableInfo] = {}
        #: guards the metadata cache and the lazily created shared
        #: session — parallel exchange workers may first-touch both
        self._cache_lock = threading.RLock()
        #: retry/backoff policy for every remote operation on this server
        self.retry_policy = retry_policy or RetryPolicy()
        #: the owning engine's HealthRegistry (set at registration);
        #: None means no breaker gating (standalone LinkedServer use)
        self.health = None

    # -- plumbing ---------------------------------------------------------
    @property
    def breaker(self):
        """This server's circuit breaker, or None when no registry is
        attached."""
        if self.health is None:
            return None
        return self.health.breaker(self.name)

    def run_with_retry(self, fn, description: str = ""):
        """Run one remote operation under this server's retry policy,
        gated by the server's circuit breaker when a HealthRegistry is
        attached.

        Transient faults back off (simulated ms charged to the channel)
        and retry; timeouts retry when the policy allows; server-down
        and exhausted retries propagate as typed errors.  The breaker
        sees only *final* outcomes: a retried-then-masked fault records
        a success, retries exhausted or server-down records a failure
        (down trips the breaker immediately), and an already-open
        breaker fails fast with :class:`CircuitOpenError` before any
        attempt — a flapping member stops eating retry budget.

        Breaker evidence is asymmetric: any failure counts, but a
        success only counts when the call paid a round trip, as every
        request does (an empty rowset open included).  Schema
        validation pays none — its metadata travels with the command's
        own message — so it can prove a member sick, not healthy —
        otherwise a hung member whose pings still answer would reset
        the failure streak every statement and the breaker could never
        trip.
        """
        description = description or self.name
        ledger = current_ledger()
        if ledger is None or ledger.trace is None or self.channel is None:
            return self._run_with_retry_inner(fn, description)
        # one child span per remote command, nested under whichever
        # operator span is current when the dispatch happens — retries,
        # backoff waits and breaker fast-fails all land inside it
        with RemoteCommandSpan(ledger, self.channel, self.name, description):
            return self._run_with_retry_inner(fn, description)

    def _run_with_retry_inner(self, fn, description: str):
        breaker = self.breaker
        if breaker is not None:
            breaker.before_attempt(self.channel, description)
        trips_before = self._round_trips_paid()
        try:
            result = call_with_retry(
                self.retry_policy, self.channel, fn, description=description
            )
        except NetworkError as error:
            if getattr(error, "server_name", None) is None:
                error.server_name = self.name
            if breaker is not None and not isinstance(error, CircuitOpenError):
                breaker.record_failure(
                    error,
                    self.channel,
                    definitive=isinstance(error, ServerUnavailableError),
                )
            raise
        if breaker is not None:
            trafficked = (
                trips_before is None
                or self._round_trips_paid() != trips_before
            )
            if trafficked:
                breaker.record_success(self.channel)
        return result

    def _round_trips_paid(self) -> Optional[int]:
        """Round trips *this caller* has paid on the channel so far: the
        bound statement ledger's row, so another session's traffic on
        the shared channel is never mistaken for ours; the channel's own
        counter only when no ledger is bound.  None without a channel."""
        channel = self.channel
        if channel is None:
            return None
        ledger = current_ledger()
        if ledger is not None:
            return ledger.on(channel).round_trips
        return channel.stats.round_trips

    def execute_command(self, sql_text: str, session: Optional[Session] = None):
        """Dispatch a SQL command to the remote server with retries.

        The result rowset is materialized *inside* the retry scope, so a
        fault mid-stream discards the partial transfer and re-runs the
        whole command — the retry unit is the statement, never a
        half-consumed rowset.  Returns the list of fetched rows.
        """

        def attempt():
            sess = session if session is not None else self.create_session()
            command = sess.create_command()
            command.set_text(sql_text)
            return command.execute().fetch_all()

        return self.run_with_retry(attempt, description=f"command:{self.name}")
    @property
    def capabilities(self) -> ProviderCapabilities:
        return self.datasource.capabilities

    @property
    def channel(self):
        return self.datasource.channel

    @property
    def session(self) -> Session:
        with self._cache_lock:
            if self._session is None:
                self._session = self.datasource.create_session()
            return self._session

    def create_session(self) -> Session:
        """A fresh session (DML wants its own transactional scope)."""
        return self.datasource.create_session()

    # -- metadata discovery through OLE DB ------------------------------------
    def table_info(
        self,
        table_name: str,
        database: Optional[str] = None,
        refresh: bool = False,
    ) -> RemoteTableInfo:
        """Discover (and cache) schema/statistics for a remote table.

        Delayed schema validation (Section 4.1.5) hinges on the stale
        fallback: when the server is unreachable but a cached
        :class:`RemoteTableInfo` exists, compilation proceeds against
        the cache and validation is deferred to execution time — so
        queries whose plans never *touch* the unreachable member still
        compile and run.  :meth:`validate_schema_version` is the
        on-the-wire check, and never falls back.
        """
        key = (database.lower() if database else None, table_name.lower())
        with self._cache_lock:
            if not refresh and key in self._table_cache:
                return self._table_cache[key]
        try:
            info = self.run_with_retry(
                lambda: self._discover(table_name, database),
                description=f"table_info:{table_name}",
            )
        except ServerUnavailableError:
            with self._cache_lock:
                cached = self._table_cache.get(key)
            if cached is not None:
                channel = self.channel
                if channel is not None:
                    channel._count("network.stale_metadata_served")
                    channel._trace_event(
                        "schema_validation_deferred",
                        server=self.name, table=table_name,
                    )
                return cached
            raise
        with self._cache_lock:
            self._table_cache[key] = info
        return info

    def _discover(
        self, table_name: str, database: Optional[str]
    ) -> RemoteTableInfo:
        """One metadata round trip (schema stays free of byte charges,
        but an unreachable server still refuses it)."""
        channel = self.channel
        if channel is not None:
            channel.check_available()
        if not self.datasource.supports_interface(IDB_SCHEMA_ROWSET):
            return self._probe_without_schema_rowsets(table_name)
        return self._read_schema_rowsets(table_name, database)

    def _read_schema_rowsets(
        self, table_name: str, database: Optional[str] = None
    ) -> RemoteTableInfo:
        session = self.session
        target = table_name.lower()
        columns = []
        for (tname, cname, __, type_name, nullable) in session.schema_rowset(
            "COLUMNS", database_name=database, table_name=table_name
        ):
            if tname.lower() == target:
                columns.append(Column(cname, type_from_name(type_name), nullable))
        if not columns:
            raise CatalogError(
                f"table {table_name!r} not found on linked server {self.name}"
            )
        cardinality, avg_width, version = self._tables_info(
            session, table_name, database
        ) or (0.0, 64.0, 1)
        indexes: Dict[str, list[tuple[int, str, bool]]] = {}
        for (tname, index_name, unique, ordinal, column_name) in (
            session.schema_rowset(
                "INDEXES", database_name=database, table_name=table_name
            )
        ):
            if tname.lower() == target:
                indexes.setdefault(index_name, []).append(
                    (ordinal, column_name, unique)
                )
        index_list = []
        for index_name, entries in indexes.items():
            entries.sort()
            index_list.append(
                IndexMetadata(
                    index_name,
                    table_name,
                    [column_name for __, column_name, __u in entries],
                    unique=entries[0][2],
                )
            )
        check_domains = intersect_domains(
            (column_name, domain)
            for (tname, __, column_name, domain, __text) in session.schema_rowset(
                "CHECK_CONSTRAINTS", database_name=database, table_name=table_name
            )
            if tname.lower() == target and column_name and domain is not None
        )
        return RemoteTableInfo(
            table_name,
            Schema(columns),
            cardinality,
            avg_width,
            version,
            index_list,
            check_domains,
        )

    def _tables_info(
        self, session: Session, table_name: str, database: Optional[str]
    ) -> Optional[tuple[float, float, int]]:
        """``table_name``'s TABLES_INFO row as (cardinality, average row
        width, schema version); None when the provider lists none."""
        target = table_name.lower()
        for (tname, rows, width, schema_version) in session.schema_rowset(
            "TABLES_INFO", database_name=database, table_name=table_name
        ):
            if tname.lower() == target:
                return float(rows), float(width), int(schema_version)
        return None

    def _probe_without_schema_rowsets(self, table_name: str) -> RemoteTableInfo:
        """Simple providers: open the rowset and take its schema; no
        statistics, no indexes (the DHQP must do everything itself)."""
        rowset = self.session.open_rowset(table_name)
        rows = rowset.fetch_all()
        return RemoteTableInfo(
            table_name,
            rowset.schema,
            float(len(rows)),
            rowset.schema.row_width(),
            1,
            [],
            {},
        )

    def column_statistics(
        self,
        table_name: str,
        column_name: str,
        database: Optional[str] = None,
    ) -> Optional[ColumnStatistics]:
        """Histogram-backed statistics via the Section 3.2.4 extension;
        None when the provider does not expose them."""
        info = self.table_info(table_name, database)
        key = column_name.lower()
        if key in info._column_stats:
            return info._column_stats[key]
        stats: Optional[ColumnStatistics] = None
        if self.capabilities.supports_statistics:
            try:
                rowset = self.session.open_histogram_rowset(
                    table_name, column_name, database_name=database
                )
                histogram = histogram_from_rowset(rowset)
                stats = ColumnStatistics(
                    column_name,
                    histogram,
                    histogram.distinct_count,
                    histogram.null_rows,
                )
            except (ProviderError, NotSupportedError):
                stats = None
        info._column_stats[key] = stats
        return stats

    # -- delayed schema validation (Section 4.1.5) ----------------------------
    def validate_schema_version(
        self, table_name: str, database: Optional[str] = None
    ) -> None:
        """Re-read the remote schema version; raises when the cached
        plan was compiled against a stale schema.

        One TABLES_INFO row is all it asks the server for.  Everything
        else discovery reads is a function of the version, so on a match
        the cached metadata stands, with the row's cardinality and width
        and no column statistics — what a re-discovery would have
        cached.  On a mismatch the metadata is dropped, so the next
        compile discovers the new schema, and the error names the table
        for whoever holds plans compiled against the old one.
        """
        key = (database.lower() if database else None, table_name.lower())
        with self._cache_lock:
            cached = self._table_cache.get(key)
        if cached is None:
            return
        try:
            fresh = self.run_with_retry(
                lambda: self._revalidate(cached, database),
                description=f"table_info:{table_name}",
            )
        except ServerUnavailableError as error:
            raise ServerUnavailableError(
                f"cannot validate schema of {self.name}.{table_name}: "
                f"{error}"
            ) from error
        if fresh.schema_version != cached.schema_version:
            self.invalidate_metadata(table_name, database)
            raise SchemaValidationError(
                f"schema of {self.name}.{table_name} changed "
                f"(v{cached.schema_version} -> v{fresh.schema_version}); "
                "recompile the statement",
                table_name=table_name,
            )
        with self._cache_lock:
            self._table_cache[key] = fresh

    def _revalidate(
        self, cached: RemoteTableInfo, database: Optional[str]
    ) -> RemoteTableInfo:
        """What :meth:`_discover` would return if ``cached``'s version
        still holds, for the price of the table's TABLES_INFO row."""
        channel = self.channel
        if channel is not None:
            channel.check_available()
        table_name = cached.table_name
        if not self.datasource.supports_interface(IDB_SCHEMA_ROWSET):
            return self._probe_without_schema_rowsets(table_name)
        row = self._tables_info(self.session, table_name, database)
        if row is None:
            raise CatalogError(
                f"table {table_name!r} not found on linked server {self.name}"
            )
        cardinality, avg_width, version = row
        return RemoteTableInfo(
            table_name,
            cached.schema,
            cardinality,
            avg_width,
            version,
            cached.indexes,
            cached.check_domains,
        )

    def invalidate_metadata(
        self, table_name: Optional[str] = None, database: Optional[str] = None
    ) -> None:
        with self._cache_lock:
            if table_name is None:
                self._table_cache.clear()
            else:
                key = (
                    database.lower() if database else None,
                    table_name.lower(),
                )
                self._table_cache.pop(key, None)

    def __repr__(self) -> str:
        return f"LinkedServer({self.name} -> {self.datasource.provider_name})"
