"""The cost model.

Local operators use classic per-row CPU costs.  Remote operators follow
Section 4.1.3: "SQL Server DHQP defines a simple cost model based on
the output cardinality of a remote operator.  It aims at finding plans
with minimal network traffic."  A remote operator's cost is dominated
by (estimated output rows × row width) over the channel plus a fixed
round-trip latency; the remote server's own execution effort is charged
at a discount since it runs elsewhere (and, for autonomous sources, we
often "cannot reason about the detailed implementation of the remote
operator").
"""

from __future__ import annotations

import math
from typing import Optional

from repro.network.channel import NetworkChannel

#: cost units are (simulated) milliseconds


class CostModel:
    """Tunable cost constants; one instance per optimizer."""

    def __init__(
        self,
        cpu_row_ms: float = 0.001,
        hash_build_row_ms: float = 0.002,
        hash_probe_row_ms: float = 0.0012,
        sort_row_ms: float = 0.002,
        spool_row_ms: float = 0.0015,
        spool_rescan_row_ms: float = 0.0003,
        remote_cpu_discount: float = 0.5,
        remote_fixed_ms: float = 1.0,
        health_open_penalty_ms: float = 500.0,
        health_half_open_penalty_ms: float = 25.0,
        exchange_branch_overhead_ms: float = 0.05,
        bytes_per_column: float = 16.0,
        hash_memory_overhead: float = 1.3,
        sort_memory_overhead: float = 1.1,
    ):
        self.cpu_row_ms = cpu_row_ms
        self.hash_build_row_ms = hash_build_row_ms
        self.hash_probe_row_ms = hash_probe_row_ms
        self.sort_row_ms = sort_row_ms
        self.spool_row_ms = spool_row_ms
        self.spool_rescan_row_ms = spool_rescan_row_ms
        #: remote servers execute "for free" relative to shipping data;
        #: a mild discount keeps pathological remote plans from winning
        self.remote_cpu_discount = remote_cpu_discount
        self.remote_fixed_ms = remote_fixed_ms
        #: surcharge on any remote access to a member whose circuit
        #: breaker is open (expected fast-fail + replan) or half-open
        #: (a probe may still fail); closed members cost nothing extra
        self.health_open_penalty_ms = health_open_penalty_ms
        self.health_half_open_penalty_ms = health_half_open_penalty_ms
        #: per-branch startup/teardown cost of a parallel exchange
        #: (thread + queue plumbing); keeps DOP>1 from beating a serial
        #: Concat on all-local unions where there is nothing to hide
        self.exchange_branch_overhead_ms = exchange_branch_overhead_ms
        #: estimated stored width of one column value, for memory grants
        self.bytes_per_column = bytes_per_column
        #: hash tables cost more than their payload (buckets, headers)
        self.hash_memory_overhead = hash_memory_overhead
        #: sort run bookkeeping on top of the rows themselves
        self.sort_memory_overhead = sort_memory_overhead

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
    ) -> float:
        """Cost of moving an estimated result set over a channel — the
        heart of the minimal-network-traffic model."""
        if channel is None:
            return rows * self.cpu_row_ms
        nbytes = rows * row_width
        return (
            self.remote_fixed_ms
            + channel.latency_ms
            + channel.transfer_ms(int(nbytes))
        )

    def remote_query(
        self,
        channel: Optional[NetworkChannel],
        output_rows: float,
        row_width: float,
        remote_work_estimate: float,
    ) -> float:
        """A pushed remote query: transfer of its *output* plus the
        discounted remote execution effort."""
        return (
            self.remote_transfer(channel, output_rows, row_width)
            + remote_work_estimate * self.remote_cpu_discount
        )

    def parameterized_remote_probe(
        self, channel: Optional[NetworkChannel], rows_per_probe: float, row_width: float
    ) -> float:
        """One parameterized remote execution (per outer row)."""
        if channel is None:
            return rows_per_probe * self.cpu_row_ms
        return (
            channel.latency_ms
            + channel.transfer_ms(int(rows_per_probe * row_width))
            + 0.05  # remote statement dispatch overhead
        )
