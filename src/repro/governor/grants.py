"""Memory grants: per-plan estimation and the grant lifecycle.

Before a SELECT plan executes, the governor estimates its
``required_memory_kb`` by walking the physical tree and charging the
cost model's per-operator memory estimates for the operators that
materialize state — hash-join build sides, hash aggregates, sorts and
spools.  Streaming operators (scans, filters, stream aggregates,
nested loops) need no grant; a plan composed only of those skips the
grant path entirely, so cheap statements stay grant-free exactly like
the real server.

The grant itself is a lease on the bound pool's memory: acquired FIFO
before execution (waiting on the simulated clock, shedding with
:class:`~repro.errors.GrantTimeoutError` at the group's deadline) and
released unconditionally when execution finishes — success, error or
replan.  ``sys.dm_exec_query_memory_grants`` lists the outstanding
leases; an empty view at quiesce is the no-leak invariant the
concurrency tests assert.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Optional

from repro.core import physical as P

__all__ = ["MemoryGrant", "estimate_plan_memory_kb"]


def estimate_plan_memory_kb(plan: Any, cost_model: Any) -> float:
    """Walk a physical plan, annotate each memory-consuming operator
    with ``est_memory_kb``, and return the plan total (KB)."""
    total = 0.0
    for node in plan.walk():
        kb = _operator_memory_kb(node, cost_model)
        node.est_memory_kb = kb
        total += kb
    return total


def _operator_memory_kb(node: Any, cost_model: Any) -> float:
    if isinstance(node, P.HashJoin):
        build = node.right
        width = cost_model.row_width_bytes(len(build.output_ids()))
        return cost_model.hash_join_memory_kb(build.est_rows, width)
    if isinstance(node, P.HashAggregate):
        width = cost_model.row_width_bytes(len(node.output_ids()))
        return cost_model.hash_aggregate_memory_kb(node.est_rows, width)
    if isinstance(node, P.PhysicalSort):
        width = cost_model.row_width_bytes(len(node.output_ids()))
        return cost_model.sort_memory_kb(node.child.est_rows, width)
    if isinstance(node, P.Spool):
        width = cost_model.row_width_bytes(len(node.output_ids()))
        return cost_model.spool_memory_kb(node.child.est_rows, width)
    return 0.0


_grant_ids = itertools.count(1)
_grant_ids_lock = threading.Lock()


class MemoryGrant:
    """One outstanding memory lease on a resource pool."""

    __slots__ = (
        "grant_id", "group_name", "pool", "requested_kb", "granted_kb",
        "wait_ms", "session_id", "sql_text", "acquired_at_ms",
        "_released", "_on_release",
    )

    def __init__(
        self,
        group_name: str,
        pool: Any,
        requested_kb: float,
        granted_kb: float,
        wait_ms: float,
        session_id: Optional[int] = None,
        sql_text: Optional[str] = None,
        acquired_at_ms: float = 0.0,
        on_release: Optional[Any] = None,
    ):
        with _grant_ids_lock:
            self.grant_id = next(_grant_ids)
        self.group_name = group_name
        self.pool = pool
        #: the plan's raw estimate, before the group's pct cap
        self.requested_kb = requested_kb
        #: what the pool actually leased (the reduced grant when capped)
        self.granted_kb = granted_kb
        self.wait_ms = wait_ms
        self.session_id = session_id
        self.sql_text = sql_text
        self.acquired_at_ms = acquired_at_ms
        self._released = False
        self._on_release = on_release

    def release(self) -> None:
        """Return the lease to the pool.  Idempotent — the engine's
        ``finally`` may race a replan's explicit release."""
        if self._released:
            return
        self._released = True
        self.pool.release_memory(self.granted_kb)
        if self._on_release is not None:
            self._on_release(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MemoryGrant(#{self.grant_id}, {self.granted_kb:.1f}KB, "
            f"group={self.group_name!r}, wait={self.wait_ms:.1f}ms)"
        )
