"""The Query Store: per-plan runtime history and plan forcing.

SQL Server's Query Store answers the question our flat
``sys.dm_exec_query_stats`` cannot: *which plan* ran, and how each plan
of the same query performed over time.  This module reproduces the
shape of that feature for the federated engine:

* queries are keyed by the hash of their **normalized text**
  (whitespace collapsed, case folded outside string literals — literal
  values are preserved, exactly because a forced plan embeds them);
* each execution is attributed to a **plan fingerprint** — a stable
  hash of the normalized physical plan shape
  (:func:`repro.core.physical.plan_fingerprint`) that ignores costs,
  row estimates and column ids, so pushdown vs fetch-and-filter, hash
  vs merge, or a different member all count as *different plans* while
  recompiling the same strategy counts as the same one;
* per (query, plan) the store aggregates execution intervals — elapsed
  wall ms, simulated network ms, rows, bytes, round trips, retries,
  replans and the partial-results flag — plus a bounded window of
  recent latencies for regression detection.

**Latency** here is ``elapsed_ms + simulated_ms``: the engine's network
is simulated (charged, never slept), so the modeled end-to-end time of
a statement is its wall-clock CPU time plus the simulated network time
it was charged.  That makes plan regressions deterministic: a plan flip
that moves megabytes instead of a filtered rowset regresses the
simulated component even when the wall-clock noise floor hides it.

:meth:`QueryStore.regressed_queries` flags queries whose *active* plan
fingerprint differs from the previously active one and whose recent
mean latency worsened beyond a threshold — the signal behind
``sys.query_store_regressions``.  :meth:`QueryStore.force_plan` pins a
previously captured plan; the optimizer consults the pin before
exploration and returns the pinned plan without searching (SQL Server's
``sp_query_store_force_plan``).
"""

from __future__ import annotations

import threading
import zlib
from collections import deque
from typing import Any, Dict, Optional

from repro.core.physical import PhysicalOp, plan_fingerprint, plan_shape

__all__ = [
    "QueryStore",
    "PlanEntry",
    "QueryEntry",
    "RuntimeStats",
    "Regression",
    "normalize_query_text",
    "query_hash",
]


def normalize_query_text(sql: str) -> str:
    """Whitespace-collapsed, case-folded query text.

    String literals are preserved verbatim (case and all): two queries
    that differ only inside a literal are *different* queries — forcing
    one's plan for the other would change results.
    """
    out: list[str] = []
    i, n = 0, len(sql)
    pending_space = False
    while i < n:
        ch = sql[i]
        if ch == "'":
            # copy the literal verbatim, honoring '' escapes
            j = i + 1
            while j < n:
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":
                        j += 2
                        continue
                    break
                j += 1
            if pending_space and out:
                out.append(" ")
            pending_space = False
            out.append(sql[i:j + 1])
            i = j + 1
            continue
        if ch.isspace():
            pending_space = True
            i += 1
            continue
        if pending_space and out:
            out.append(" ")
        pending_space = False
        out.append(ch.lower())
        i += 1
    return "".join(out)


def query_hash(sql: str) -> str:
    """8-hex-digit hash of the normalized query text (the Query Store
    query identity)."""
    normalized = normalize_query_text(sql)
    return format(zlib.crc32(normalized.encode("utf-8")) & 0xFFFFFFFF, "08x")


class RuntimeStats:
    """Aggregated execution intervals for one (query, plan) pair."""

    __slots__ = (
        "execution_count",
        "total_latency_ms",
        "last_latency_ms",
        "min_latency_ms",
        "max_latency_ms",
        "total_elapsed_ms",
        "total_simulated_ms",
        "total_rows",
        "total_bytes",
        "total_round_trips",
        "total_retries",
        "total_replans",
        "partial_count",
        "recent_latencies",
    )

    #: executions kept for the "recent mean" regression signal
    RECENT_WINDOW = 16

    def __init__(self) -> None:
        self.execution_count = 0
        self.total_latency_ms = 0.0
        self.last_latency_ms = 0.0
        self.min_latency_ms = float("inf")
        self.max_latency_ms = 0.0
        self.total_elapsed_ms = 0.0
        self.total_simulated_ms = 0.0
        self.total_rows = 0
        self.total_bytes = 0
        self.total_round_trips = 0
        self.total_retries = 0
        self.total_replans = 0
        self.partial_count = 0
        self.recent_latencies: deque[float] = deque(maxlen=self.RECENT_WINDOW)

    def record(
        self,
        elapsed_ms: float,
        simulated_ms: float,
        rows: int,
        nbytes: int,
        round_trips: int,
        retries: int,
        replans: int,
        partial: bool,
    ) -> None:
        latency = elapsed_ms + simulated_ms
        self.execution_count += 1
        self.total_latency_ms += latency
        self.last_latency_ms = latency
        if latency < self.min_latency_ms:
            self.min_latency_ms = latency
        if latency > self.max_latency_ms:
            self.max_latency_ms = latency
        self.total_elapsed_ms += elapsed_ms
        self.total_simulated_ms += simulated_ms
        self.total_rows += rows
        self.total_bytes += nbytes
        self.total_round_trips += round_trips
        self.total_retries += retries
        self.total_replans += replans
        if partial:
            self.partial_count += 1
        self.recent_latencies.append(latency)

    @property
    def mean_latency_ms(self) -> float:
        if not self.execution_count:
            return 0.0
        return self.total_latency_ms / self.execution_count

    @property
    def recent_mean_latency_ms(self) -> float:
        if not self.recent_latencies:
            return 0.0
        return sum(self.recent_latencies) / len(self.recent_latencies)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "execution_count": self.execution_count,
            "mean_latency_ms": round(self.mean_latency_ms, 3),
            "recent_mean_latency_ms": round(self.recent_mean_latency_ms, 3),
            "last_latency_ms": round(self.last_latency_ms, 3),
            "min_latency_ms": round(self.min_latency_ms, 3),
            "max_latency_ms": round(self.max_latency_ms, 3),
            "total_elapsed_ms": round(self.total_elapsed_ms, 3),
            "total_simulated_ms": round(self.total_simulated_ms, 3),
            "total_rows": self.total_rows,
            "total_bytes": self.total_bytes,
            "total_round_trips": self.total_round_trips,
            "total_retries": self.total_retries,
            "total_replans": self.total_replans,
            "partial_count": self.partial_count,
        }

    def __repr__(self) -> str:
        return (
            f"RuntimeStats(n={self.execution_count}, "
            f"mean={self.mean_latency_ms:.3f}ms)"
        )


class PlanEntry:
    """One captured plan of one query."""

    __slots__ = (
        "plan_id",
        "fingerprint",
        "shape",
        "plan",
        "first_execution",
        "last_execution",
    )

    def __init__(self, plan_id: int, fingerprint: str, plan: PhysicalOp):
        self.plan_id = plan_id
        self.fingerprint = fingerprint
        self.shape = plan_shape(plan)
        #: the most recent physical plan instance with this fingerprint;
        #: kept so force_plan can replay it without re-exploration
        self.plan = plan
        self.first_execution = 0
        self.last_execution = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "plan_id": self.plan_id,
            "fingerprint": self.fingerprint,
            "shape": self.shape,
            "first_execution": self.first_execution,
            "last_execution": self.last_execution,
        }

    def __repr__(self) -> str:
        return f"PlanEntry({self.fingerprint}, id={self.plan_id})"


class QueryEntry:
    """One query's history: its plans and per-plan runtime stats."""

    __slots__ = (
        "query_id",
        "query_hash",
        "query_text",
        "normalized_text",
        "execution_count",
        "plans",
        "stats",
        "active_fingerprint",
        "previous_fingerprint",
        "forced_fingerprint",
    )

    def __init__(self, query_id: int, qhash: str, query_text: str):
        self.query_id = query_id
        self.query_hash = qhash
        self.query_text = query_text
        self.normalized_text = normalize_query_text(query_text)
        self.execution_count = 0
        self.plans: Dict[str, PlanEntry] = {}
        self.stats: Dict[str, RuntimeStats] = {}
        #: fingerprint of the most recently executed plan
        self.active_fingerprint: Optional[str] = None
        #: fingerprint that was active before the last plan change
        self.previous_fingerprint: Optional[str] = None
        #: pinned fingerprint (None = not forced)
        self.forced_fingerprint: Optional[str] = None

    def __repr__(self) -> str:
        return (
            f"QueryEntry({self.query_hash}, n={self.execution_count}, "
            f"plans={len(self.plans)})"
        )


class Regression:
    """One detected plan regression (a ``sys.query_store_regressions``
    row)."""

    __slots__ = (
        "query_id",
        "query_hash",
        "query_text",
        "prior_fingerprint",
        "active_fingerprint",
        "prior_mean_latency_ms",
        "active_mean_latency_ms",
    )

    def __init__(
        self,
        entry: QueryEntry,
        prior_fingerprint: str,
        active_fingerprint: str,
        prior_mean: float,
        active_mean: float,
    ):
        self.query_id = entry.query_id
        self.query_hash = entry.query_hash
        self.query_text = entry.query_text
        self.prior_fingerprint = prior_fingerprint
        self.active_fingerprint = active_fingerprint
        self.prior_mean_latency_ms = prior_mean
        self.active_mean_latency_ms = active_mean

    @property
    def ratio(self) -> float:
        if self.prior_mean_latency_ms <= 0:
            return float("inf")
        return self.active_mean_latency_ms / self.prior_mean_latency_ms

    def as_dict(self) -> Dict[str, Any]:
        return {
            "query_hash": self.query_hash,
            "query_text": self.query_text,
            "prior_fingerprint": self.prior_fingerprint,
            "active_fingerprint": self.active_fingerprint,
            "prior_mean_latency_ms": round(self.prior_mean_latency_ms, 3),
            "active_mean_latency_ms": round(self.active_mean_latency_ms, 3),
            "ratio": round(self.ratio, 3),
        }

    def __repr__(self) -> str:
        return (
            f"Regression({self.query_hash}: {self.prior_fingerprint} -> "
            f"{self.active_fingerprint}, x{self.ratio:.2f})"
        )


class QueryStore:
    """Per-engine plan-level runtime history with plan pinning."""

    #: bound on distinct queries kept (oldest evicted first)
    MAX_QUERIES = 256
    #: a plan change only counts as a regression when the recent mean
    #: latency worsened by at least this factor
    REGRESSION_THRESHOLD = 1.5

    def __init__(self) -> None:
        self._queries: Dict[str, QueryEntry] = {}
        self._next_query_id = 1
        self._next_plan_id = 1
        #: concurrent sessions record and consult pins through one
        #: shared store; entry/plan minting must be atomic
        self._lock = threading.RLock()

    # -- recording -------------------------------------------------------------
    def record(
        self,
        sql_text: str,
        plan: PhysicalOp,
        rows: int,
        elapsed_ms: float,
        network: Dict[str, Dict[str, float]],
        replans: int = 0,
        partial: bool = False,
    ) -> QueryEntry:
        """Attribute one execution to (query hash, plan fingerprint)."""
        with self._lock:
            return self._record_locked(
                sql_text, plan, rows, elapsed_ms, network, replans, partial
            )

    def _record_locked(
        self,
        sql_text: str,
        plan: PhysicalOp,
        rows: int,
        elapsed_ms: float,
        network: Dict[str, Dict[str, float]],
        replans: int,
        partial: bool,
    ) -> QueryEntry:
        entry = self._entry_for(sql_text)
        fingerprint = plan_fingerprint(plan)
        plan_entry = entry.plans.get(fingerprint)
        if plan_entry is None:
            plan_entry = PlanEntry(self._next_plan_id, fingerprint, plan)
            self._next_plan_id += 1
            entry.plans[fingerprint] = plan_entry
            entry.stats[fingerprint] = RuntimeStats()
            plan_entry.first_execution = entry.execution_count + 1
        else:
            # keep the freshest instance around for plan forcing
            plan_entry.plan = plan
        entry.execution_count += 1
        plan_entry.last_execution = entry.execution_count
        if entry.active_fingerprint != fingerprint:
            if entry.active_fingerprint is not None:
                entry.previous_fingerprint = entry.active_fingerprint
            entry.active_fingerprint = fingerprint
        nbytes = sum(
            int(d.get("bytes_sent", 0) + d.get("bytes_received", 0))
            for d in network.values()
        )
        trips = sum(int(d.get("round_trips", 0)) for d in network.values())
        retries = sum(int(d.get("retries", 0)) for d in network.values())
        simulated = sum(
            float(d.get("simulated_ms", 0.0)) for d in network.values()
        )
        entry.stats[fingerprint].record(
            elapsed_ms, simulated, rows, nbytes, trips, retries,
            replans, partial,
        )
        return entry

    def _entry_for(self, sql_text: str) -> QueryEntry:
        qhash = query_hash(sql_text)
        entry = self._queries.get(qhash)
        if entry is None:
            if len(self._queries) >= self.MAX_QUERIES:
                self._queries.pop(next(iter(self._queries)))
            entry = QueryEntry(self._next_query_id, qhash, sql_text)
            self._next_query_id += 1
            self._queries[qhash] = entry
        return entry

    # -- lookup ----------------------------------------------------------------
    def queries(self) -> list[QueryEntry]:
        """A snapshot of the entries, taken under the lock: another
        session's :meth:`record` may insert or evict while the caller
        iterates."""
        with self._lock:
            return list(self._queries.values())

    def get(self, qhash: str) -> Optional[QueryEntry]:
        return self._queries.get(qhash)

    def lookup(self, sql_text: str) -> Optional[QueryEntry]:
        return self._queries.get(query_hash(sql_text))

    def __len__(self) -> int:
        return len(self._queries)

    # -- regression detection --------------------------------------------------
    def regressed_queries(
        self,
        threshold: Optional[float] = None,
        min_executions: int = 2,
    ) -> list[Regression]:
        """Queries whose active plan changed *and* got slower.

        A query regresses when its active plan fingerprint differs from
        the previously active one, both plans have at least
        ``min_executions`` recorded executions, and the active plan's
        recent mean latency exceeds the prior plan's recent mean by the
        threshold factor.  Sorted worst-first.
        """
        factor = self.REGRESSION_THRESHOLD if threshold is None else threshold
        out: list[Regression] = []
        for entry in self.queries():
            active = entry.active_fingerprint
            prior = entry.previous_fingerprint
            if active is None or prior is None or active == prior:
                continue
            active_stats = entry.stats.get(active)
            prior_stats = entry.stats.get(prior)
            if active_stats is None or prior_stats is None:
                continue
            if (
                active_stats.execution_count < min_executions
                or prior_stats.execution_count < min_executions
            ):
                continue
            prior_mean = prior_stats.recent_mean_latency_ms
            active_mean = active_stats.recent_mean_latency_ms
            if active_mean > prior_mean * factor:
                out.append(
                    Regression(entry, prior, active, prior_mean, active_mean)
                )
        out.sort(key=lambda r: r.ratio, reverse=True)
        return out

    # -- plan forcing ----------------------------------------------------------
    def force_plan(self, qhash: str, fingerprint: str) -> PlanEntry:
        """Pin ``fingerprint`` as the plan for query ``qhash``.

        The fingerprint must identify a plan this store has captured
        for that query — there is nothing to replay otherwise.
        """
        with self._lock:
            entry = self._queries.get(qhash)
            if entry is None:
                raise KeyError(
                    f"query store has no query with hash {qhash!r}"
                )
            plan_entry = entry.plans.get(fingerprint)
            if plan_entry is None:
                raise KeyError(
                    f"query {qhash!r} has no captured plan with fingerprint "
                    f"{fingerprint!r} (known: {sorted(entry.plans)})"
                )
            entry.forced_fingerprint = fingerprint
            return plan_entry

    def unforce_plan(self, qhash: str) -> None:
        with self._lock:
            entry = self._queries.get(qhash)
            if entry is not None:
                entry.forced_fingerprint = None

    def forced_plan_for(self, sql_text: str) -> Optional[PhysicalOp]:
        """The pinned physical plan for a statement, or None.

        Keyed by the normalized-text hash; the stored normalized text
        must also match exactly, so a hash collision can never replay
        the wrong query's plan.
        """
        with self._lock:
            entry = self._queries.get(query_hash(sql_text))
            if entry is None or entry.forced_fingerprint is None:
                return None
            if entry.normalized_text != normalize_query_text(sql_text):
                return None
            plan_entry = entry.plans.get(entry.forced_fingerprint)
            return plan_entry.plan if plan_entry is not None else None

    # -- export ----------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly dump (``tools/tracereport.py`` input)."""
        queries = []
        for entry in self.queries():
            queries.append(
                {
                    "query_id": entry.query_id,
                    "query_hash": entry.query_hash,
                    "query_text": entry.query_text,
                    "execution_count": entry.execution_count,
                    "active_fingerprint": entry.active_fingerprint,
                    "previous_fingerprint": entry.previous_fingerprint,
                    "forced_fingerprint": entry.forced_fingerprint,
                    "plans": [p.as_dict() for p in entry.plans.values()],
                    "stats": {
                        fp: stats.as_dict()
                        for fp, stats in entry.stats.items()
                    },
                }
            )
        return {
            "query_store": {
                "queries": queries,
                "regressions": [
                    r.as_dict() for r in self.regressed_queries()
                ],
            }
        }

    def reset(self) -> None:
        self._queries.clear()

    def __repr__(self) -> str:
        return f"QueryStore({len(self._queries)} queries)"
