"""The cost model.

Local operators use classic per-row CPU costs.  Remote operators follow
Section 4.1.3: "SQL Server DHQP defines a simple cost model based on
the output cardinality of a remote operator.  It aims at finding plans
with minimal network traffic."  A remote operator's cost is its
exchanges over the channel — (estimated output rows × row width) back,
any command text out — priced by the channel itself
(:meth:`~repro.network.channel.NetworkChannel.exchange_ms`), so the
optimizer and the wire agree; the remote server's own execution effort
is charged at a discount since it runs elsewhere (and, for autonomous
sources, we often "cannot reason about the detailed implementation of
the remote operator").
"""

from __future__ import annotations

import math
from typing import Optional

from repro.network.channel import NetworkChannel

#: cost units are (simulated) milliseconds


class CostModel:
    """The cost constants; one instance per optimizer.  What the wire
    costs is not among them: the channel prices its own exchanges."""

    cpu_row_ms = 0.001
    hash_build_row_ms = 0.002
    hash_probe_row_ms = 0.0012
    sort_row_ms = 0.002
    spool_row_ms = 0.0015
    spool_rescan_row_ms = 0.0003
    #: remote servers execute "for free" relative to shipping data;
    #: a mild discount keeps pathological remote plans from winning
    remote_cpu_discount = 0.5
    #: surcharge on any remote access to a member whose circuit
    #: breaker is open (expected fast-fail + replan) or half-open
    #: (a probe may still fail); closed members cost nothing extra
    health_open_penalty_ms = 500.0
    health_half_open_penalty_ms = 25.0
    #: per-branch startup/teardown cost of a parallel exchange
    #: (thread + queue plumbing); keeps DOP>1 from beating a serial
    #: Concat on all-local unions where there is nothing to hide
    exchange_branch_overhead_ms = 0.05
    #: estimated stored width of one column value, for memory grants
    bytes_per_column = 16.0
    #: hash tables cost more than their payload (buckets, headers)
    hash_memory_overhead = 1.3
    #: sort run bookkeeping on top of the rows themselves
    sort_memory_overhead = 1.1

    # -- workspace-memory estimates (KB), for the resource governor -----------
    def row_width_bytes(self, column_count: int) -> float:
        return max(1, column_count) * self.bytes_per_column

    def hash_join_memory_kb(self, build_rows: float, row_width_bytes: float) -> float:
        """Workspace for a hash join's build side (the probe streams)."""
        return (
            max(0.0, build_rows) * row_width_bytes * self.hash_memory_overhead
        ) / 1024.0

    def hash_aggregate_memory_kb(self, groups: float, row_width_bytes: float) -> float:
        """Workspace for a hash aggregate: one slot per output group."""
        return (
            max(0.0, groups) * row_width_bytes * self.hash_memory_overhead
        ) / 1024.0

    def sort_memory_kb(self, rows: float, row_width_bytes: float) -> float:
        """Workspace for an in-memory sort of the full input."""
        return (
            max(0.0, rows) * row_width_bytes * self.sort_memory_overhead
        ) / 1024.0

    def spool_memory_kb(self, rows: float, row_width_bytes: float) -> float:
        """Workspace for a spool's materialized snapshot."""
        return (max(0.0, rows) * row_width_bytes) / 1024.0

    # -- local operators ------------------------------------------------------
    def scan(self, rows: float) -> float:
        return rows * self.cpu_row_ms

    def index_range(self, table_rows: float, selected_rows: float) -> float:
        return math.log2(max(2.0, table_rows)) * 0.01 + selected_rows * (
            self.cpu_row_ms * 1.5
        )

    def filter(self, rows: float, conjunct_count: int = 1) -> float:
        return rows * self.cpu_row_ms * 0.5 * max(1, conjunct_count)

    def project(self, rows: float, expr_count: int) -> float:
        return rows * self.cpu_row_ms * 0.3 * max(1, expr_count)

    def hash_join(self, build_rows: float, probe_rows: float) -> float:
        return (
            build_rows * self.hash_build_row_ms
            + probe_rows * self.hash_probe_row_ms
        )

    def nl_join(
        self, outer_rows: float, inner_first_cost: float, inner_rescan_cost: float
    ) -> float:
        if outer_rows <= 0:
            return inner_first_cost
        return inner_first_cost + max(0.0, outer_rows - 1) * inner_rescan_cost

    def merge_join(self, left_rows: float, right_rows: float) -> float:
        return (left_rows + right_rows) * self.cpu_row_ms

    def sort(self, rows: float) -> float:
        n = max(2.0, rows)
        return n * math.log2(n) * self.sort_row_ms

    def aggregate(self, rows: float, group_count: float) -> float:
        return rows * self.hash_build_row_ms + group_count * self.cpu_row_ms

    def spool_build(self, rows: float) -> float:
        return rows * self.spool_row_ms

    def spool_rescan(self, rows: float) -> float:
        return rows * self.spool_rescan_row_ms

    def fulltext_lookup(self, match_estimate: float) -> float:
        return 0.5 + match_estimate * self.cpu_row_ms

    def parallel_union(self, branch_costs: list, dop: int) -> float:
        """Cost of running UNION ALL branches on a ``dop``-worker
        exchange: the critical path of a longest-processing-time
        assignment of branch costs onto the worker slots, plus a small
        per-branch exchange overhead.

        This is where the optimizer credits latency hiding on slow
        links — independent remote branches overlap, so the exchange
        pays for the busiest worker, not the sum (the heterogeneous-
        machines scheduling model from PAPERS.md)."""
        slots = [0.0] * max(1, min(int(dop), len(branch_costs)))
        for cost in sorted(branch_costs, reverse=True):
            index = min(range(len(slots)), key=slots.__getitem__)
            slots[index] += cost
        return max(slots) + self.exchange_branch_overhead_ms * len(
            branch_costs
        )

    def health_penalty(self, state: str) -> float:
        """Extra cost for touching a member in breaker state ``state``
        (one of the ``repro.resilience.health`` state constants)."""
        if state == "open":
            return self.health_open_penalty_ms
        if state == "half_open":
            return self.health_half_open_penalty_ms
        return 0.0

    # -- remote operators (Section 4.1.3) ---------------------------------------
    def remote_transfer(
        self,
        channel: Optional[NetworkChannel],
        rows: float,
        row_width: float,
        request_bytes: float = 0.0,
    ) -> float:
        """Cost of one exchange over ``channel`` — a request of
        ``request_bytes`` answered by an estimated result set, priced by
        the channel's own rule — the heart of the minimal-network-traffic
        model."""
        if channel is None:
            return rows * self.cpu_row_ms
        return channel.exchange_ms(request_bytes, rows, row_width)

    def remote_range(
        self,
        channel: Optional[NetworkChannel],
        intervals: int,
        rows: float,
        key_width: float,
        row_width: float,
    ) -> float:
        """An IRowsetIndex range and its IRowsetLocate fetch: per
        interval of the key domain, one index exchange (keys and
        bookmark) and one bookmark exchange (base rows), the selected
        rows split evenly across the intervals."""
        share = rows / max(1, intervals)
        return intervals * (
            self.remote_transfer(channel, share, key_width + 8)
            + self.remote_transfer(channel, share, row_width)
        )

    def remote_query(
        self,
        channel: Optional[NetworkChannel],
        sql_text: str,
        output_rows: float,
        row_width: float,
        remote_work_estimate: float = 0.0,
    ) -> float:
        """A pushed remote query (or one parameterized probe): its text
        out and its *output* back, plus the discounted remote execution
        effort."""
        return (
            self.remote_transfer(channel, output_rows, row_width, len(sql_text))
            + remote_work_estimate * self.remote_cpu_discount
        )
