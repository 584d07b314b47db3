"""Text -> statement -> plan, each step taken once per engine.

Two caches, both per :class:`~repro.engine.ServerInstance` and shared
by its sessions.  The :class:`StatementCache` is probed first, before
the lexer: raw statement text -> the parsed statement and its
normalized text.  Parsing is a pure function of the text, so its
entries are never invalidated, only evicted by the bound; a hit does no
lexing, parsing or normalizing.  The :class:`PlanCache` is probed next,
for SELECTs, and its entries *do* go stale.

One optimized physical plan is expensive to produce (binding, Cascades
exploration, costing) and cheap to re-execute, so the engine keeps the
result of every cacheable ``SELECT`` compilation in its
:class:`PlanCache`.  The cache is keyed by *normalized query text* ×
*the plan-affecting settings fingerprint* — and only those.  DOP is
deliberately **not** part of the key: plan fingerprints are DOP-free
(PR 6) and exchange insertion happens during optimization, so a plan
compiled at one DOP is re-optimized only when the settings that can
change the plan *shape* change.

Staleness is validated at lookup time rather than baked into the key:

* ``schema_version`` — the catalog bump counter; any DDL makes every
  plan compiled before it unusable (``invalidations_ddl``).  DDL on a
  *member* is found by delayed schema validation at execution time;
  the driver then evicts the plans that reference the table under the
  same reason.
* ``stats_generation`` — bumped by statistics refreshes and remote
  writes; plans costed on stale statistics recompile
  (``invalidations_stats``).
* ``unhealthy_servers`` — the set of linked servers whose circuit
  breaker was *not closed* at compile time.  A plan compiled while a
  member was dark routes around it; once the breaker recovers (or a
  healthy-compile plan later sees an open breaker) the cached plan no
  longer matches reality and must recompile rather than fast-fail
  (``invalidations_breaker``).
* Query Store pinning — ``force_plan``/``unforce_plan`` evict the
  pinned query so the pin (or its removal) always wins over a stale
  cached plan (``invalidations_pin``).

A member of a distributed query is sent marker text plus values
(:mod:`repro.oledb.command`), so both of its caches hit across
parameter values: one parse and one search per shipped text.

Thread-safety: every public :class:`PlanCache` method takes the
internal ``RLock``; the :class:`StatementCache` needs none (each of its
steps is one atomic dictionary operation).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple, Optional

from repro.core.physical import plan_fingerprint
from repro.observability.querystore import normalize_query_text, query_hash
from repro.resilience.health import CLOSED

__all__ = [
    "CachedStatement",
    "CompiledSelect",
    "MAX_CACHED_TEXT",
    "PlanCacheEntry",
    "PlanCache",
    "StatementCache",
    "plan_references",
    "statement_key",
    "lookup_compiled",
    "store_compiled",
]


class CachedStatement:
    """What one statement text parses to, kept so that the text is
    parsed once: the AST (shared by every execution of the text, so
    nothing may mutate it) and the normalized text the plan-cache key
    and the query hash are made of (derived on first use: DML never
    asks)."""

    __slots__ = ("text", "statement", "_normalized")

    def __init__(self, text: str, statement: Any):
        self.text = text
        self.statement = statement
        self._normalized: Optional[str] = None

    @property
    def normalized_text(self) -> str:
        if self._normalized is None:
            # racing sessions compute the same pure value
            self._normalized = normalize_query_text(self.text)
        return self._normalized


#: texts longer than this (characters) are parsed but never kept, so a
#: loader's large multi-row INSERTs cannot pin the cache's memory
MAX_CACHED_TEXT = 16 * 1024


class StatementCache:
    """Raw statement text -> :class:`CachedStatement`, one per engine.

    Parsing is a pure function of the text, so an entry is never
    invalidated; the cache is bounded in entries, evicts the least
    recently executed text, and keeps no text longer than
    :data:`MAX_CACHED_TEXT`.  A hit is two dictionary operations — no
    lexing, no parsing, no normalizing, no lock.  Sessions racing on one
    new text may each parse it; an entry is published only once it is
    complete.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        # every operation on it below is one C call, atomic under the GIL
        self._entries: "OrderedDict[str, CachedStatement]" = OrderedDict()

    def get(self, text: str, parse: Callable[[str], Any]) -> CachedStatement:
        """The entry for ``text``, made by ``parse`` on a miss."""
        entries = self._entries
        entry = entries.get(text)
        if entry is not None:
            try:
                entries.move_to_end(text)
            except KeyError:  # evicted by a racing session; still good
                pass
            return entry
        entry = CachedStatement(text, parse(text))
        if len(text) > MAX_CACHED_TEXT:
            return entry
        entries[text] = entry
        while len(entries) > self.capacity:
            try:
                entries.popitem(last=False)
            except KeyError:  # a racing session emptied it
                break
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


def plan_references(plan: Any) -> tuple[frozenset, frozenset]:
    """Walk a physical plan and collect ``(servers, tables)`` it touches.

    ``servers`` holds linked-server names (local reads contribute
    nothing); ``tables`` holds lower-cased unqualified table names so
    DML-driven invalidation can match ``INSERT INTO orders`` against a
    plan scanning ``dbo.orders`` on any member.
    """
    servers: set[str] = set()
    tables: set[str] = set()

    def note_table(qualified: Any) -> None:
        # referenced tables appear as "db.schema.name" strings or as
        # (database, name) tuples depending on the node
        if isinstance(qualified, tuple):
            qualified = qualified[-1]
        tables.add(str(qualified).split(".")[-1].lower())

    for node in plan.walk():
        table = getattr(node, "table", None)
        if table is not None and hasattr(table, "qualified_name"):
            note_table(table.qualified_name)
            server = getattr(table, "server", None)
            if server:
                servers.add(server)
        server_obj = getattr(node, "server", None)
        if server_obj is not None and hasattr(server_obj, "name"):
            servers.add(server_obj.name)
        for referenced in getattr(node, "tables_referenced", ()) or ():
            note_table(referenced)
    return frozenset(servers), frozenset(tables)


@dataclass
class PlanCacheEntry:
    """One compiled plan plus everything needed to validate freshness."""

    key: tuple
    query_hash: str
    sql_text: str
    normalized_text: str
    optimization: Any
    output_names: list
    output_cids: list
    fingerprint: str
    schema_version: int
    stats_generation: int
    unhealthy_servers: frozenset = frozenset()
    servers: frozenset = frozenset()
    tables: frozenset = frozenset()
    hits: int = 0

    @property
    def plan(self) -> Any:
        return self.optimization.plan


class PlanCache:
    """Bounded LRU of :class:`PlanCacheEntry`, shared across sessions."""

    def __init__(self, capacity: int = 128, metrics: Any = None):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self.metrics = metrics
        self._lock = threading.RLock()
        self._entries: "OrderedDict[tuple, PlanCacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.invalidations_by_reason: dict[str, int] = {}

    # -- metrics ------------------------------------------------------------
    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.increment(name, amount)

    def _gauge_size(self) -> None:
        if self.metrics is not None:
            self.metrics.set_gauge("plan_cache.size", float(len(self._entries)))

    def _note_invalidation(self, reason: str, count: int = 1) -> None:
        if count <= 0:
            return
        self.invalidations += count
        self.invalidations_by_reason[reason] = (
            self.invalidations_by_reason.get(reason, 0) + count
        )
        self._count("plan_cache.invalidations", count)
        self._count(f"plan_cache.invalidations_{reason}", count)

    # -- core ---------------------------------------------------------------
    def lookup(
        self,
        key: tuple,
        *,
        schema_version: int,
        stats_generation: int,
        unhealthy_servers: frozenset,
    ) -> Optional[PlanCacheEntry]:
        """Return a fresh entry for ``key`` or ``None`` (counting a miss).

        A stale entry is evicted on sight and counted under the reason
        that made it stale, so an invalidation is always attributable.
        """
        with self._lock:
            entry = self._entries.get(key)
            reason = None if entry is None else self._staleness(
                entry,
                schema_version=schema_version,
                stats_generation=stats_generation,
                unhealthy_servers=unhealthy_servers,
            )
            if reason is not None:
                del self._entries[key]
                self._note_invalidation(reason)
                self._gauge_size()
            if entry is None or reason is not None:
                self.misses += 1
                self._count("plan_cache.misses")
                return None
            self._entries.move_to_end(key)
            entry.hits += 1
            self.hits += 1
            self._count("plan_cache.hits")
            return entry

    @staticmethod
    def _staleness(
        entry: PlanCacheEntry,
        *,
        schema_version: int,
        stats_generation: int,
        unhealthy_servers: frozenset,
    ) -> Optional[str]:
        if entry.schema_version != schema_version:
            return "ddl"
        if entry.stats_generation != stats_generation:
            return "stats"
        if entry.unhealthy_servers != (unhealthy_servers & entry.servers):
            # the health picture the plan was costed under has changed
            # for a member it actually touches — recompile, never
            # fast-fail a plan that routes through a dark member.
            return "breaker"
        return None

    def store(self, entry: PlanCacheEntry) -> None:
        with self._lock:
            if entry.key in self._entries:
                del self._entries[entry.key]
            self._entries[entry.key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                self._count("plan_cache.evictions")
            self._gauge_size()

    # -- invalidation hooks -------------------------------------------------
    def _drop(self, stale: Callable[[PlanCacheEntry], Optional[str]]) -> int:
        """Evict every entry ``stale`` gives a reason for; returns how
        many went."""
        with self._lock:
            dropped = 0
            for key, entry in list(self._entries.items()):
                reason = stale(entry)
                if reason is not None:
                    del self._entries[key]
                    self._note_invalidation(reason)
                    dropped += 1
            self._gauge_size()
            return dropped

    def invalidate_stale(
        self, *, schema_version: int, stats_generation: int
    ) -> int:
        """Purge entries compiled under an older schema/stats epoch
        (each entry is judged against its own health picture, so only
        the epochs can make it stale here)."""
        return self._drop(
            lambda entry: self._staleness(
                entry,
                schema_version=schema_version,
                stats_generation=stats_generation,
                unhealthy_servers=entry.unhealthy_servers,
            )
        )

    def invalidate_tables(self, tables: Iterable[str], reason: str) -> int:
        wanted = {t.lower() for t in tables}
        return self._drop(lambda e: reason if e.tables & wanted else None)

    def invalidate_key(self, key: tuple, reason: str) -> bool:
        return bool(self._drop(lambda e: reason if e.key == key else None))

    def invalidate_query(self, query_hash: str, reason: str) -> int:
        return self._drop(
            lambda e: reason if e.query_hash == query_hash else None
        )

    # -- introspection ------------------------------------------------------
    def entries(self) -> list[PlanCacheEntry]:
        with self._lock:
            return list(self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._gauge_size()


# ----------------------------------------------------------------------
# the engine's plan-or-hit stage
# ----------------------------------------------------------------------

class CompiledSelect(NamedTuple):
    """A SELECT ready to run, from the cache or fresh from the optimizer."""

    optimization: Any
    output_names: list
    output_cids: list
    #: PV members pruned as unavailable (partial-results mode only)
    skipped: list


def _settings_fingerprint(engine: Any, session: Any) -> tuple:
    """The plan-affecting settings, and only those, for the cache key.
    The PARALLEL_DOP *value* is deliberately excluded: plan fingerprints
    are DOP-free and exchanges read the session's degree at execution
    time, so one compiled parallel plan serves DOP 2 and DOP 8 alike.
    Only parallel *eligibility* (DOP > 1) is keyed, because a serial
    compile contains no exchange at all.  Optimizer feature switches
    (remote rules on/off, etc.) are included because flipping one
    legitimately changes the plan."""
    return (
        bool(session.partial_results),
        session.parallel_dop > 1,
        tuple(
            sorted(
                (key, repr(value))
                for key, value in vars(engine.optimizer.options).items()
            )
        ),
    )


def _unhealthy_servers(engine: Any) -> frozenset:
    """Linked servers whose breaker is not closed right now (open or
    half-open both carry cost penalties and routing changes)."""
    return frozenset(
        breaker.name
        for breaker in engine.health.breakers()
        if breaker.state != CLOSED
    )


def statement_key(engine: Any, ctx: Any) -> Optional[tuple]:
    """The statement's plan-cache key, or None when it is uncacheable:
    statements without text (a SELECT nested in DML), partial-results
    mode (plans depend on this instant's breaker probe schedule), DMV
    reads (rows are materialized at bind time, so a cached plan would
    freeze the snapshot), and queries with a Query Store pin (a pin
    always wins over the cache: pinned queries compile through the
    pin-replay path every time)."""
    sql_text = ctx.sql_text
    if (
        not engine.plan_cache_enabled
        or sql_text is None
        or ctx.session.partial_results
        or "sys." in sql_text.lower()
        or (
            engine.query_store_enabled
            and engine.query_store.forced_plan_for(sql_text) is not None
        )
    ):
        return None
    return (
        ctx.cached.normalized_text,
        _settings_fingerprint(engine, ctx.session),
    )


def lookup_compiled(
    engine: Any, key: tuple, trace: Any
) -> Optional[CompiledSelect]:
    entry = engine.plan_cache.lookup(
        key,
        schema_version=engine.catalog.schema_version,
        stats_generation=engine._stats_generation,
        unhealthy_servers=_unhealthy_servers(engine),
    )
    if entry is None:
        return None
    engine.metrics.increment("optimizer.explorations_skipped")
    if trace is not None:
        trace.event(
            "plan_cache_hit",
            query_hash=entry.query_hash,
            fingerprint=entry.fingerprint,
            hits=entry.hits,
        )
    return CompiledSelect(
        entry.optimization, entry.output_names, entry.output_cids, []
    )


def store_compiled(
    engine: Any, key: tuple, sql_text: str, compiled: CompiledSelect
) -> None:
    plan = compiled.optimization.plan
    servers, tables = plan_references(plan)
    engine.plan_cache.store(
        PlanCacheEntry(
            key=key,
            query_hash=query_hash(sql_text),
            sql_text=sql_text,
            normalized_text=key[0],
            optimization=compiled.optimization,
            output_names=list(compiled.output_names),
            output_cids=list(compiled.output_cids),
            fingerprint=plan_fingerprint(plan),
            schema_version=engine.catalog.schema_version,
            stats_generation=engine._stats_generation,
            unhealthy_servers=_unhealthy_servers(engine) & servers,
            servers=servers,
            tables=tables,
        )
    )
