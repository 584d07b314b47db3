"""The phased Cascades search driver (Section 4.1.1).

"Rules are split into different optimization phases consisting of a
round of exploration rules followed by implementation rules.  Early
phases have a restricted set of rules enabled to attempt to find a good
plan quickly.  If the cost of the best solution found after a phase is
acceptable, the solution is returned. ... Currently, SQL Server has
three possible phases — transaction processing, quick plan and full
optimization."

Phase 0 (transaction processing): no join reordering, no remote-query
construction — scans, index paths, hash/NL joins.
Phase 1 (quick plan): + join commutation, locality grouping, predicate
split, build-remote-query, parameterized remote joins, remote spools.
Phase 2 (full optimization): + join associativity, merge joins, stream
aggregates.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Dict, Optional

from repro.algebra.expressions import (
    BinaryOp,
    ColumnRef,
    ContainsPredicate,
    Parameter,
    ScalarExpr,
    conjoin,
    conjuncts,
)
from repro.algebra.logical import (
    Aggregate,
    EmptyTable,
    Get,
    Join,
    JoinKind,
    LogicalOp,
    Project,
    ProviderRowset,
    Select,
    Sort,
    SortKeySpec,
    Top,
    UnionAll,
    Values,
)
from repro.core import physical as P
from repro.core.constraints import (
    derive_domains,
    parameter_comparisons,
    startup_conjuncts,
)
from repro.core.cost import CostModel
from repro.core.decoder import Decoder
from repro.core.memo import Group, GroupExpression, Memo
from repro.core.properties import GroupProperties
from repro.core.rules.base import RuleContext, guidance_index
from repro.core.rules.exploration import default_exploration_rules
from repro.core.rules.normalization import normalize
from repro.errors import DecoderError, OptimizerError
from repro.oledb.interfaces import IDB_CREATE_COMMAND
from repro.oledb.properties import Operation
from repro.types.intervals import IntervalSet

#: a required physical property: ordered (cid, ascending) keys
RequiredSort = tuple[tuple[int, bool], ...]

#: after finishing phase p, stop if best cost <= PHASE_THRESHOLDS[p]
#: (phase 0 exits only for OLTP-cheap plans; phase 1 for plans already
#: dominated by fixed remote latency)
PHASE_THRESHOLDS: Dict[int, float] = {0: 0.1, 1: 5.0}


class OptimizerOptions:
    """Feature switches (ablation experiments and E9/E10 flip these)."""

    def __init__(
        self,
        enable_remote_query: bool = True,
        enable_locality_grouping: bool = True,
        enable_parameterization: bool = True,
        enable_predicate_split: bool = True,
        enable_spool: bool = True,
        enable_index_paths: bool = True,
        enable_fulltext_paths: bool = True,
        enable_static_pruning: bool = True,
        enable_startup_filters: bool = True,
        enable_partial_aggregation: bool = True,
        prefer_largest_remote_subtree: bool = False,
        max_phase: int = 2,
    ):
        self.enable_remote_query = enable_remote_query
        self.enable_locality_grouping = enable_locality_grouping
        self.enable_parameterization = enable_parameterization
        self.enable_predicate_split = enable_predicate_split
        self.enable_spool = enable_spool
        self.enable_index_paths = enable_index_paths
        self.enable_fulltext_paths = enable_fulltext_paths
        self.enable_static_pruning = enable_static_pruning
        self.enable_startup_filters = enable_startup_filters
        #: local-global aggregation over partitioned views
        self.enable_partial_aggregation = enable_partial_aggregation
        #: ablation: take any buildable remote query unconditionally —
        #: the push-the-largest-subtree heuristic the paper explicitly
        #: rejects in favor of cost ("Our optimizer does not simply rely
        #: on the heuristics of pushing the largest sub-tree")
        self.prefer_largest_remote_subtree = prefer_largest_remote_subtree
        self.max_phase = max_phase


class PhaseStats:
    """Search-effort counters for one phase (experiment E9)."""

    __slots__ = ("phase", "rules_fired", "expressions_added", "groups_optimized",
                 "best_cost", "rule_counts")

    def __init__(self, phase: int):
        self.phase = phase
        self.rules_fired = 0
        self.expressions_added = 0
        self.groups_optimized = 0
        self.best_cost = float("inf")
        #: per-rule-name firing counts for this phase
        self.rule_counts: Dict[str, int] = {}

    def as_dict(self) -> Dict[str, float]:
        return {
            "phase": self.phase,
            "rules_fired": self.rules_fired,
            "expressions_added": self.expressions_added,
            "groups_optimized": self.groups_optimized,
            "best_cost": self.best_cost,
            "rule_counts": dict(self.rule_counts),
        }


class OptimizationResult:
    """The chosen plan plus search telemetry."""

    def __init__(
        self,
        plan: P.PhysicalOp,
        cost: float,
        memo: Memo,
        phase_stats: list[PhaseStats],
        elapsed_seconds: float,
    ):
        self.plan = plan
        self.cost = cost
        self.memo = memo
        self.phase_stats = phase_stats
        self.elapsed_seconds = elapsed_seconds

    @property
    def final_phase(self) -> int:
        return self.phase_stats[-1].phase if self.phase_stats else -1

    def explain(self, verbose: bool = False) -> str:
        """The plan tree; with ``verbose``, followed by memo statistics
        (group/expression totals, per-phase search effort and per-rule
        firing counts) in stable text form."""
        if not verbose:
            return self.plan.tree_repr()
        lines = [self.plan.tree_repr(), "-- memo --"]
        lines.append(
            f"memo: groups={self.memo.group_count} "
            f"expressions={self.memo.expression_count}"
        )
        for stats in self.phase_stats:
            lines.append(
                f"phase {stats.phase}: rules_fired={stats.rules_fired} "
                f"expressions_added={stats.expressions_added} "
                f"groups_optimized={stats.groups_optimized} "
                f"best_cost={stats.best_cost:.3f}"
            )
            for rule_name in sorted(stats.rule_counts):
                lines.append(
                    f"  rule {rule_name}: fired={stats.rule_counts[rule_name]}"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"OptimizationResult(cost={self.cost:.3f}, "
            f"phases={len(self.phase_stats)})"
        )


class Optimizer:
    """One optimizer instance per engine; thread-unsafe by design."""

    def __init__(
        self,
        linked_servers: Optional[Dict[str, Any]] = None,
        options: Optional[OptimizerOptions] = None,
    ):
        self._linked_servers = dict(linked_servers or {})
        self.cost_model = CostModel()
        self.options = options or OptimizerOptions()
        self._rules = default_exploration_rules()
        self._guidance = guidance_index(self._rules)
        self._cid_counter = itertools.count(1_000_000)
        #: optional QueryTrace receiving rule_fired events; the engine
        #: sets this around optimize() when tracing is enabled
        self.trace: Optional[Any] = None
        #: optional HealthRegistry consulted during costing; an open
        #: breaker disqualifies deep pushdown and penalizes remote
        #: access so plans route around unhealthy members
        self.health: Optional[Any] = None
        #: optional plan-pin source (the engine's Query Store):
        #: ``plan_pins(query_key) -> Optional[PhysicalOp]``.  Consulted
        #: before exploration when optimize() is given a query key; a
        #: pinned plan short-circuits the whole search.
        self.plan_pins: Optional[Any] = None
        #: session degree of parallelism (``SET PARALLEL_DOP n``); at 1
        #: no exchange operators are ever considered, at >1 UNION ALL
        #: branches that touch remote servers may be implemented as a
        #: Gather/GatherMerge exchange whose cost credits latency hiding
        self.parallel_dop: int = 1

    def _health_state(self, server_name: Optional[str]) -> str:
        if self.health is None or server_name is None:
            return "closed"
        return self.health.state_of(server_name)

    def _health_penalty(self, server_name: Optional[str]) -> float:
        return self.cost_model.health_penalty(self._health_state(server_name))

    def linked_server(self, name: str) -> Optional[Any]:
        return self._linked_servers.get(name.lower())

    def register_linked_server(self, server: Any) -> None:
        self._linked_servers[server.name.lower()] = server

    # ==================================================================
    # entry point
    # ==================================================================
    def optimize(
        self, root: LogicalOp, query_key: Optional[str] = None
    ) -> OptimizationResult:
        started = time.perf_counter()
        forced = self._consult_plan_pin(root, query_key)
        if forced is not None:
            stats = PhaseStats(-1)
            stats.best_cost = forced.cost
            return OptimizationResult(
                forced, forced.cost, Memo(), [stats],
                time.perf_counter() - started,
            )
        root = normalize(root, self.options)
        memo = Memo()
        root_group = memo.insert_tree(root)
        context = RuleContext(memo, self)
        phase_stats: list[PhaseStats] = []
        best: Optional[P.PhysicalOp] = None
        for phase in range(self.options.max_phase + 1):
            self.phase = phase
            self._stats = PhaseStats(phase)
            self._explore_group(root_group, context)
            best = self._optimize_group(root_group, ())
            self._stats.best_cost = best.cost
            phase_stats.append(self._stats)
            threshold = PHASE_THRESHOLDS.get(phase)
            if (
                phase < self.options.max_phase
                and threshold is not None
                and best.cost <= threshold
            ):
                break
        if best is None:
            raise OptimizerError("optimization produced no plan")
        elapsed = time.perf_counter() - started
        return OptimizationResult(best, best.cost, memo, phase_stats, elapsed)

    def _consult_plan_pin(
        self, root: LogicalOp, query_key: Optional[str]
    ) -> Optional[P.PhysicalOp]:
        """A pinned plan for this statement, validated against the bound
        tree, or None.

        The Query Store keeps the captured plan *object*; because the
        binder mints column ids deterministically for identical text,
        the pin is only honored when the pinned plan still produces
        every column the fresh bind asks for — a stale pin (schema
        change, different parameter shape) silently falls back to a
        normal search rather than producing wrong columns.
        """
        if query_key is None or self.plan_pins is None:
            return None
        pinned = self.plan_pins(query_key)
        if pinned is None:
            return None
        if not set(root.output_ids()) <= set(pinned.output_ids()):
            if self.trace is not None:
                self.trace.event("plan_force_mismatch")
            return None
        if self.trace is not None:
            self.trace.event(
                "plan_forced", fingerprint=P.plan_fingerprint(pinned)
            )
        return pinned

    # ==================================================================
    # exploration
    # ==================================================================
    def _explore_group(self, group: Group, context: RuleContext) -> None:
        if group.explored_in_phase >= self.phase:
            return
        group.explored_in_phase = self.phase
        changed = True
        while changed:
            changed = False
            for expr in list(group.expressions):
                for child in expr.children:
                    self._explore_group(child, context)
                for rule in self._guidance.get(type(expr.op).__name__, ()):
                    if rule.min_phase > self.phase:
                        continue
                    if rule.name in expr.applied_rules:
                        continue
                    if not rule.matches(expr):
                        continue
                    expr.applied_rules.add(rule.name)
                    added = rule.apply(expr, context)
                    self._stats.rules_fired += 1
                    self._stats.expressions_added += added
                    self._stats.rule_counts[rule.name] = (
                        self._stats.rule_counts.get(rule.name, 0) + 1
                    )
                    if self.trace is not None:
                        self.trace.rule_fired(
                            rule.name, self.phase, group.gid, added
                        )
                    if added:
                        changed = True

    # ==================================================================
    # implementation
    # ==================================================================
    def _optimize_group(
        self, group: Group, required: RequiredSort
    ) -> P.PhysicalOp:
        key = (self.phase, required)
        cached = group.winners.get(key)
        if cached is not None:
            return cached
        self._stats.groups_optimized += 1
        alternatives: list[P.PhysicalOp] = []
        for expr in list(group.expressions):
            alternatives.extend(self._implement_expression(expr, group))
        remote = self._try_remote_query(group)
        if remote is not None:
            if self.options.prefer_largest_remote_subtree and not required:
                # heuristic mode: any remotable subtree goes remote,
                # cost notwithstanding (Figure 4(a)'s plan family)
                group.winners[key] = remote
                return remote
            alternatives.append(remote)
        if not alternatives:
            raise OptimizerError(
                f"no physical implementation for group g{group.gid} "
                f"({group.expressions[0].op!r})"
            )
        best = min(alternatives, key=lambda plan: plan.cost)
        winner = best
        if required:
            # order-preserving operators may satisfy the requirement by
            # requesting ordered children (required-property pushdown)
            for expr in list(group.expressions):
                alternatives.extend(
                    self._implement_expression(expr, group, required)
                )
            ordered = [
                plan
                for plan in alternatives
                if _sort_satisfies(plan.provided_sort(), required)
            ]
            best_ordered = min(ordered, key=lambda p: p.cost) if ordered else None
            enforced = self._enforce_sort(best, required, group)
            if best_ordered is None or enforced.cost < best_ordered.cost:
                winner = enforced
            else:
                winner = best_ordered
        group.winners[key] = winner
        return winner

    def _enforce_sort(
        self, plan: P.PhysicalOp, required: RequiredSort, group: Group
    ) -> P.PhysicalOp:
        """The sort enforcer rule: "for sort, an enforcer can insert a
        physical sort operation to introduce order when needed"."""
        keys = [SortKeySpec(cid, ascending) for cid, ascending in required]
        node = P.PhysicalSort(plan, keys)
        node.est_rows = plan.est_rows
        node.cost = plan.cost + self.cost_model.sort(plan.est_rows)
        return node

    # ------------------------------------------------------------------
    def _implement_expression(
        self,
        expr: GroupExpression,
        group: Group,
        required: RequiredSort = (),
    ) -> list[P.PhysicalOp]:
        """The physical alternatives of one logical expression whose
        output is ``required`` in order (``()``: in any order).

        Select, Top and UnionAll pass the order on to their children and
        Project maps it through its pass-through columns; every other
        operator offers nothing under an order and leaves it to the
        sort enforcer.
        """
        op = expr.op
        props = group.properties
        if isinstance(op, Select):
            return self._implement_select(op, expr, props, required)
        if isinstance(op, Project):
            return self._implement_project(op, expr, props, required)
        if isinstance(op, Top):
            child = self._optimize_group(expr.children[0], required)
            node = P.PhysicalTop(child, op.count)
            node.est_rows = min(float(op.count), child.est_rows)
            node.cost = child.cost + node.est_rows * self.cost_model.cpu_row_ms
            return [node]
        if isinstance(op, UnionAll):
            return self._implement_union(op, expr, props, required)
        if required:
            return []
        if isinstance(op, Get):
            return self._implement_get(op, props)
        if isinstance(op, Join):
            return self._implement_join(op, expr, props)
        if isinstance(op, Aggregate):
            return self._implement_aggregate(op, expr, props)
        if isinstance(op, Sort):
            keys = tuple((k.cid, k.ascending) for k in op.keys)
            return [self._optimize_group(expr.children[0], keys)]
        if isinstance(op, Values):
            node = P.ConstScan(op.rows, op.column_defs)
            node.est_rows = float(len(op.rows))
            node.cost = 0.001 * len(op.rows)
            return [node]
        if isinstance(op, EmptyTable):
            node = P.ConstScan([], op.column_defs)
            node.est_rows = 0.0
            node.cost = 0.0
            return [node]
        if isinstance(op, ProviderRowset):
            node = P.ProviderRowsetScan(op)
            node.est_rows = props.cardinality
            channel = getattr(op.datasource, "channel", None)
            node.cost = self.cost_model.remote_transfer(
                channel, props.cardinality, props.row_width,
                len(op.command_text or ""),
            )
            return [node]
        raise OptimizerError(f"cannot implement {type(op).__name__}")

    # ------------------------------------------------------------------
    def _implement_get(
        self, op: Get, props: GroupProperties
    ) -> list[P.PhysicalOp]:
        table = op.table
        out: list[P.PhysicalOp] = []
        if table.local_table is not None:
            scan = P.TableScan(table)
            scan.est_rows = props.cardinality
            scan.cost = self.cost_model.scan(props.cardinality)
            out.append(scan)
            if self.options.enable_index_paths:
                for index in table.local_table.indexes.values():
                    key_cid = self._cid_for_column(
                        table, index.metadata.key_columns[0]
                    )
                    if key_cid is None:
                        continue
                    node = P.IndexRange(
                        table, index.metadata.name, key_cid, IntervalSet.full()
                    )
                    node.est_rows = props.cardinality
                    node.cost = self.cost_model.index_range(
                        props.cardinality, props.cardinality
                    )
                    out.append(node)
        else:
            server = table.provider
            scan = P.RemoteScan(table)
            scan.est_rows = props.cardinality
            channel = server.channel if server is not None else None
            scan.cost = (
                self.cost_model.remote_transfer(
                    channel, props.cardinality, props.row_width
                )
                + self.cost_model.scan(props.cardinality)
                * self.cost_model.remote_cpu_discount
                + self._health_penalty(table.server)
            )
            out.append(scan)
        return out

    def _implement_select(
        self,
        op: Select,
        expr: GroupExpression,
        props: GroupProperties,
        required: RequiredSort,
    ) -> list[P.PhysicalOp]:
        child_group = expr.children[0]
        startup, residual = startup_conjuncts(op.predicate)
        # base: filter over the best child plan in the required order
        plan: P.PhysicalOp = self._optimize_group(child_group, required)
        if residual:
            node = P.Filter(plan, conjoin(residual))
            node.est_rows = props.cardinality
            node.cost = plan.cost + self.cost_model.filter(
                child_group.properties.cardinality,
                _conjunct_weight(residual),
            )
            plan = node
        out = [self._wrap_startup(plan, startup, props)]
        if required:
            # index and full-text paths take no order from a child: the
            # enforcer sorts them, or an index range already provides it
            return out
        # index access paths
        if self.options.enable_index_paths:
            out.extend(
                self._index_paths(op, child_group, props, startup, residual)
            )
        # full-text access path (Figure 2)
        if self.options.enable_fulltext_paths:
            out.extend(
                self._fulltext_paths(op, child_group, props, startup, residual)
            )
        return out

    def _wrap_startup(
        self,
        plan: P.PhysicalOp,
        startup: list[ScalarExpr],
        props: GroupProperties,
    ) -> P.PhysicalOp:
        if not startup:
            return plan
        node = P.StartupFilter(plan, conjoin(startup))
        node.est_rows = plan.est_rows
        # the startup test itself is ~free; it *saves* the child cost
        # with some probability — model a modest expected saving
        node.cost = plan.cost * 0.9 + 0.001
        return node

    def _index_paths(
        self,
        op: Select,
        child_group: Group,
        props: GroupProperties,
        startup: list[ScalarExpr],
        residual: list[ScalarExpr],
    ) -> list[P.PhysicalOp]:
        out: list[P.PhysicalOp] = []
        get = _find_get(child_group)
        if get is None:
            return out
        table = get.table
        # every range keeps the whole residual (conservative: no
        # conjunct is assumed captured by the index domain)
        residual_pred = conjoin(residual) if residual else None
        domains = derive_domains(residual_pred)
        param_probes = parameter_comparisons(residual_pred)
        if not domains and not param_probes:
            return out
        cid_by_name = {d.name.lower(): d.cid for d in table.columns}
        if table.local_table is not None:
            indexes = list(table.local_table.indexes.values())
            index_metas = [ix.metadata for ix in indexes]
            remote = False
        elif (
            table.remote_info is not None
            and table.provider is not None
            and table.provider.capabilities.is_index_provider
        ):
            index_metas = table.remote_info.indexes
            remote = True
        else:
            return out
        probes_by_cid = {cid: (op_, probe) for cid, op_, probe in param_probes}
        for meta in index_metas:
            first_key = meta.key_columns[0].lower()
            key_cid = cid_by_name.get(first_key)
            if key_cid is None:
                continue
            has_domain = key_cid in domains
            has_probe = not remote and key_cid in probes_by_cid
            if not has_domain and not has_probe:
                continue
            table_rows = child_group.properties.cardinality
            selected = props.cardinality
            if remote:
                domain = domains[key_cid]
                node: P.PhysicalOp = P.RemoteRange(
                    table, meta.name, key_cid, domain, residual_pred
                )
                channel = table.provider.channel
                schema = table.remote_info.schema
                key_width = sum(
                    schema[schema.ordinal_of(name)].type.byte_width()
                    for name in meta.key_columns
                )
                node.est_rows = selected
                node.cost = self.cost_model.remote_range(
                    channel, len(domain.intervals), selected, key_width,
                    props.row_width,
                ) + self._health_penalty(table.server)
            else:
                domain = domains.get(key_cid, IntervalSet.full())
                probe = probes_by_cid.get(key_cid) if has_probe else None
                node = P.IndexRange(
                    table, meta.name, key_cid, domain, residual_pred,
                    dynamic_probe=probe,
                )
                if probe is not None and not has_domain:
                    # parameterized seek: estimate from key distincts
                    key_stats = child_group.properties.column_statistics(
                        key_cid
                    )
                    if probe[0] == "=" and key_stats is not None:
                        selected = min(
                            selected,
                            table_rows / max(1.0, key_stats.distinct_count),
                        )
                node.est_rows = selected
                node.cost = self.cost_model.index_range(table_rows, selected)
            out.append(self._wrap_startup(node, startup, props))
        return out

    def _fulltext_paths(
        self,
        op: Select,
        child_group: Group,
        props: GroupProperties,
        startup: list[ScalarExpr],
        residual: list[ScalarExpr],
    ) -> list[P.PhysicalOp]:
        out: list[P.PhysicalOp] = []
        contains = [c for c in residual if isinstance(c, ContainsPredicate)]
        if not contains:
            return out
        get = _find_get(child_group)
        if get is None or get.table.fulltext is None:
            return out
        binding = get.table.fulltext
        cid_by_name = {d.name.lower(): d.cid for d in get.table.columns}
        key_cid = cid_by_name.get(binding.key_column.lower())
        text_cid = cid_by_name.get(binding.text_column.lower())
        if key_cid is None:
            return out
        predicate = contains[0]
        if text_cid is not None and predicate.column.cid != text_cid:
            return out  # CONTAINS over a different column than the index
        lookup_key = next(self._cid_counter)
        lookup_rank = next(self._cid_counter)
        lookup = P.FullTextKeyLookup(
            binding, predicate.query_text, lookup_key, lookup_rank
        )
        catalog = binding.service.catalog(binding.catalog_name)
        match_estimate = max(1.0, catalog.index.document_count * 0.05)
        lookup.est_rows = match_estimate
        lookup.cost = self.cost_model.fulltext_lookup(match_estimate)
        child_plan = self._optimize_group(child_group, ())
        join = P.HashJoin(
            child_plan,
            lookup,
            "semi",
            [ColumnRef(key_cid, "key")],
            [ColumnRef(lookup_key, "KEY")],
        )
        join.est_rows = min(child_plan.est_rows, match_estimate)
        join.cost = (
            child_plan.cost
            + lookup.cost
            + self.cost_model.hash_join(match_estimate, child_plan.est_rows)
        )
        plan: P.PhysicalOp = join
        others = [c for c in residual if c is not predicate]
        if others:
            node = P.Filter(plan, conjoin(others))
            node.est_rows = props.cardinality
            node.cost = plan.cost + self.cost_model.filter(
                join.est_rows, len(others)
            )
            plan = node
        out.append(self._wrap_startup(plan, startup, props))
        return out

    def _implement_project(
        self,
        op: Project,
        expr: GroupExpression,
        props: GroupProperties,
        required: RequiredSort,
    ) -> list[P.PhysicalOp]:
        child_required: Optional[RequiredSort] = required
        if required:
            # the order is over output ids: only pass-through columns
            # carry it to the child
            child_required = _map_order(
                required,
                {cid: e.cid for cid, e in op.outputs if isinstance(e, ColumnRef)},
            )
            if child_required is None:
                return []
        child = self._optimize_group(expr.children[0], child_required)
        node = P.ComputeProject(child, op.outputs)
        node.est_rows = props.cardinality
        node.cost = child.cost + self.cost_model.project(
            props.cardinality, len(op.outputs)
        )
        return [node]

    def _implement_union(
        self,
        op: UnionAll,
        expr: GroupExpression,
        props: GroupProperties,
        required: RequiredSort,
    ) -> list[P.PhysicalOp]:
        # an ordered union exists only as a parallel merge; at DOP 1 the
        # enforcer sorts the concatenation and no branch is optimized
        # under the order
        if required and self.parallel_dop <= 1:
            return []
        children: list[P.PhysicalOp] = []
        for child_group, branch_map in zip(expr.children, op.branch_maps):
            child_required = _map_order(required, branch_map) if required else ()
            if child_required is None:
                return []
            children.append(self._optimize_group(child_group, child_required))
        parallel = (
            self.parallel_dop > 1
            and len(children) >= 2
            and sum(1 for c in children if _contains_remote(c)) >= 2
        )
        if required:
            if not parallel:
                return []
            keys = [SortKeySpec(cid, ascending) for cid, ascending in required]
            merge = P.GatherMerge(
                children, op.output_defs, op.branch_maps, keys,
                self.parallel_dop,
            )
            merge.est_rows = props.cardinality
            merge.cost = (
                self.cost_model.parallel_union(
                    [c.cost for c in children], self.parallel_dop
                )
                + self.cost_model.project(props.cardinality, 1)
                + props.cardinality * self.cost_model.cpu_row_ms
            )
            return [merge]
        node = P.Concat(children, op.output_defs, op.branch_maps)
        node.est_rows = props.cardinality
        node.cost = sum(c.cost for c in children) + self.cost_model.project(
            props.cardinality, 1
        )
        alternatives: list[P.PhysicalOp] = [node]
        if parallel:
            gather = P.Gather(
                children, op.output_defs, op.branch_maps,
                self.parallel_dop,
            )
            gather.est_rows = props.cardinality
            gather.cost = self.cost_model.parallel_union(
                [c.cost for c in children], self.parallel_dop
            ) + self.cost_model.project(props.cardinality, 1)
            alternatives.append(gather)
        return alternatives

    # ------------------------------------------------------------------
    def _implement_join(
        self, op: Join, expr: GroupExpression, props: GroupProperties
    ) -> list[P.PhysicalOp]:
        left_group, right_group = expr.children
        kind = op.kind.value
        equi, residual = _split_equi(
            op.condition,
            frozenset(left_group.properties.output_ids),
            frozenset(right_group.properties.output_ids),
        )
        out: list[P.PhysicalOp] = []
        left_plan = self._optimize_group(left_group, ())
        right_plan = self._optimize_group(right_group, ())
        left_rows = left_group.properties.cardinality
        right_rows = right_group.properties.cardinality
        # hash join on equi keys
        if equi and op.kind != JoinKind.CROSS:
            node = P.HashJoin(
                left_plan,
                right_plan,
                kind,
                [l for l, __ in equi],
                [r for __, r in equi],
                conjoin(residual) if residual else None,
            )
            node.est_rows = props.cardinality
            node.cost = (
                left_plan.cost
                + right_plan.cost
                + self.cost_model.hash_join(right_rows, left_rows)
            )
            out.append(node)
        # nested loops (with optional spooled inner)
        inner_variants: list[P.PhysicalOp] = [right_plan]
        if self.options.enable_spool and self.phase >= 1 and left_rows > 1:
            spool = P.Spool(right_plan, reason="rescan")
            spool.est_rows = right_plan.est_rows
            spool.cost = right_plan.cost + self.cost_model.spool_build(
                right_plan.est_rows
            )
            spool.rescan_cost_value = self.cost_model.spool_rescan(
                right_plan.est_rows
            )
            inner_variants.append(spool)
        for inner in inner_variants:
            node = P.NLJoin(left_plan, inner, kind, op.condition)
            node.est_rows = props.cardinality
            node.cost = left_plan.cost + self.cost_model.nl_join(
                left_rows, inner.cost, inner.rescan_cost
            ) + self.cost_model.filter(left_rows * max(1.0, right_rows), 1)
            out.append(node)
        # merge join (phase 2): single equi key
        if (
            self.phase >= 2
            and len(equi) == 1
            and op.kind in (JoinKind.INNER, JoinKind.SEMI, JoinKind.ANTI_SEMI)
        ):
            (lref, rref) = equi[0]
            left_sorted = self._optimize_group(
                left_group, ((lref.cid, True),)
            )
            right_sorted = self._optimize_group(
                right_group, ((rref.cid, True),)
            )
            node = P.MergeJoin(
                left_sorted,
                right_sorted,
                kind,
                lref.cid,
                rref.cid,
                conjoin(residual) if residual else None,
            )
            node.est_rows = props.cardinality
            node.cost = (
                left_sorted.cost
                + right_sorted.cost
                + self.cost_model.merge_join(left_rows, right_rows)
            )
            out.append(node)
        # parameterized remote join (Section 4.1.2)
        if (
            self.options.enable_parameterization
            and self.phase >= 1
            and equi
            and op.kind in (JoinKind.INNER, JoinKind.SEMI)
        ):
            param_plan = self._parameterized_remote_join(
                op, left_plan, left_group, right_group, equi, residual, props
            )
            if param_plan is not None:
                out.append(param_plan)
        return out

    def _parameterized_remote_join(
        self,
        op: Join,
        left_plan: P.PhysicalOp,
        left_group: Group,
        right_group: Group,
        equi: list[tuple[ColumnRef, ColumnRef]],
        residual: list[ScalarExpr],
        props: GroupProperties,
    ) -> Optional[P.PhysicalOp]:
        server_name = right_group.properties.single_server
        if server_name is None:
            return None
        server = self.linked_server(server_name)
        if (
            server is None
            or not server.capabilities.is_sql_provider
            or not server.capabilities.can_remote(Operation.PARAMETER)
        ):
            return None
        # an open breaker means every probe would fast-fail: don't even
        # offer the parameterized alternative
        if self._health_state(server_name) == "open":
            return None
        try:
            right_tree = extract_logical_tree(right_group)
            probe_conjuncts: list[ScalarExpr] = []
            for index, (__, rref) in enumerate(equi):
                probe_conjuncts.append(
                    BinaryOp("=", rref, Parameter(f"__probe{index}"))
                )
            probed = Select(right_tree, conjoin(probe_conjuncts))
            decoder = Decoder(server.capabilities, server_name)
            decoded = decoder.decode_tree(probed)
        except DecoderError:
            return None
        # map probe parameters back to outer column refs
        param_exprs: list[ScalarExpr] = []
        for param in decoded.params:
            if isinstance(param, Parameter) and param.name.startswith("__probe"):
                index = int(param.name[len("__probe"):])
                param_exprs.append(equi[index][0])
            else:
                param_exprs.append(param)
        inner = P.RemoteQuery(
            server,
            decoded.sql_text,
            decoded.column_order,
            param_exprs,
            decoded.tables,
        )
        right_rows = right_group.properties.cardinality
        key_stats = right_group.properties.column_statistics(equi[0][1].cid)
        per_probe = (
            right_rows / max(1.0, key_stats.distinct_count)
            if key_stats is not None
            else max(1.0, right_rows * 0.01)
        )
        inner.est_rows = per_probe
        inner.cost = self.cost_model.remote_query(
            server.channel, decoded.sql_text, per_probe,
            right_group.properties.row_width,
        )
        node = P.ParameterizedRemoteJoin(
            left_plan,
            inner,
            op.kind.value,
            conjoin(residual) if residual else None,
        )
        left_rows = left_group.properties.cardinality
        # the executor caches probe results per distinct parameter
        # vector, so duplicate outer keys cost one round trip
        left_key_stats = left_group.properties.column_statistics(
            equi[0][0].cid
        )
        if left_key_stats is not None:
            probe_count = min(
                left_rows, max(1.0, left_key_stats.distinct_count)
            )
        else:
            probe_count = left_rows
        node.est_rows = props.cardinality
        node.cost = (
            left_plan.cost
            + probe_count * inner.cost
            + self._health_penalty(server_name)
        )
        return node

    def _implement_aggregate(
        self, op: Aggregate, expr: GroupExpression, props: GroupProperties
    ) -> list[P.PhysicalOp]:
        child_group = expr.children[0]
        child = self._optimize_group(child_group, ())
        out: list[P.PhysicalOp] = []
        node = P.HashAggregate(child, op.group_by, op.aggregates)
        node.est_rows = props.cardinality
        node.cost = child.cost + self.cost_model.aggregate(
            child_group.properties.cardinality, props.cardinality
        )
        out.append(node)
        if op.group_by and self.phase >= 2:
            required = tuple((cid, True) for cid in op.group_by)
            sorted_child = self._optimize_group(child_group, required)
            stream = P.StreamAggregate(sorted_child, op.group_by, op.aggregates)
            stream.est_rows = props.cardinality
            stream.cost = sorted_child.cost + (
                child_group.properties.cardinality * self.cost_model.cpu_row_ms
            )
            out.append(stream)
        return out

    # ------------------------------------------------------------------
    def _try_remote_query(self, group: Group) -> Optional[P.PhysicalOp]:
        """The "build remote query" implementation rule, applied at the
        group level so the decoder may pick any remotable alternative."""
        if not self.options.enable_remote_query or self.phase < 1:
            return None
        server_name = group.properties.single_server
        if server_name is None:
            return None
        server = self.linked_server(server_name)
        if server is None:
            return None
        capabilities = server.capabilities
        if not capabilities.is_sql_provider:
            return None
        if not server.datasource.supports_interface(IDB_CREATE_COMMAND):
            return None
        # trivial Gets gain nothing from a remote query over a RemoteScan
        if len(group.expressions) == 1 and isinstance(group.expressions[0].op, Get):
            return None
        # open breaker: disqualify deep pushdown entirely — the engine
        # degrades to fetch-and-filter (RemoteScan + local operators),
        # which survives a replan or partial-results pruning
        if self._health_state(server_name) == "open":
            if self.trace is not None:
                self.trace.event(
                    "health_pushdown_disqualified", server=server_name
                )
            return None
        try:
            decoded = Decoder(capabilities, server_name).decode_group(group)
        except DecoderError:
            return None
        node = P.RemoteQuery(
            server,
            decoded.sql_text,
            decoded.column_order,
            decoded.params,
            decoded.tables,
        )
        node.est_rows = group.properties.cardinality
        remote_work = group.properties.cardinality * self.cost_model.cpu_row_ms * 3
        node.cost = self.cost_model.remote_query(
            server.channel,
            decoded.sql_text,
            group.properties.cardinality,
            group.properties.row_width,
            remote_work,
        ) + self._health_penalty(server_name)
        return node

    # ------------------------------------------------------------------
    @staticmethod
    def _cid_for_column(table: Any, column_name: str) -> Optional[int]:
        for definition in table.columns:
            if definition.name.lower() == column_name.lower():
                return definition.cid
        return None


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _conjunct_weight(residual: list[ScalarExpr]) -> int:
    """Relative evaluation cost of a conjunct list.

    A CONTAINS predicate evaluated row-at-a-time re-tokenizes the text
    (the fallback path); it is orders of magnitude dearer than a simple
    comparison, which is why the external-index join of Figure 2 wins
    at scale.
    """
    weight = 0
    for conjunct in residual:
        if isinstance(conjunct, ContainsPredicate):
            weight += 100
        else:
            weight += 1
    return max(1, weight)


def _sort_satisfies(
    provided: tuple[tuple[int, bool], ...], required: RequiredSort
) -> bool:
    return provided[: len(required)] == tuple(required)


def _map_order(
    required: RequiredSort, mapping: Dict[int, int]
) -> Optional[RequiredSort]:
    """``required`` restated over a child's column ids through
    ``mapping`` (parent id -> child id), or None when some key has no
    child column."""
    mapped = []
    for cid, ascending in required:
        child_cid = mapping.get(cid)
        if child_cid is None:
            return None
        mapped.append((child_cid, ascending))
    return tuple(mapped)


def _contains_remote(plan: P.PhysicalOp) -> bool:
    """True when any operator in ``plan`` talks to a linked server —
    only such branches have network latency an exchange can hide."""
    return any(
        isinstance(
            node,
            (P.RemoteScan, P.RemoteRange, P.RemoteQuery,
             P.ParameterizedRemoteJoin),
        )
        for node in plan.walk()
    )


def _split_equi(
    condition: Optional[ScalarExpr],
    left_ids: frozenset[int],
    right_ids: frozenset[int],
) -> tuple[list[tuple[ColumnRef, ColumnRef]], list[ScalarExpr]]:
    """Extract equi-join pairs (left_ref, right_ref) from a condition."""
    equi: list[tuple[ColumnRef, ColumnRef]] = []
    residual: list[ScalarExpr] = []
    for conjunct in conjuncts(condition):
        if (
            isinstance(conjunct, BinaryOp)
            and conjunct.op == "="
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
        ):
            lref, rref = conjunct.left, conjunct.right
            if lref.cid in left_ids and rref.cid in right_ids:
                equi.append((lref, rref))
                continue
            if rref.cid in left_ids and lref.cid in right_ids:
                equi.append((rref, lref))
                continue
        residual.append(conjunct)
    return equi, residual


def _find_get(group: Group) -> Optional[Get]:
    for expr in group.expressions:
        if isinstance(expr.op, Get):
            return expr.op
    return None


def extract_logical_tree(group: Group) -> LogicalOp:
    """Materialize one logical tree from a memo group (first
    alternative), for decode_tree-style consumers."""
    expr = group.expressions[0]
    children = [extract_logical_tree(child) for child in expr.children]
    return expr.op.with_inputs(children)
