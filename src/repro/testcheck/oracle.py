"""Multi-oracle differential execution: one table of oracle rows.

Every generated case runs under each row of :data:`ORACLES` that
applies to it.  A row names a world (built by :func:`build_world` from
one topology, then adjusted by the row's ``configure``), a comparator
its answer must satisfy against the reference, and when it applies:

===============  ==========================================  ============  ===========================
row              configures                                  comparator    applies to
===============  ==========================================  ============  ===========================
``local``        every table in one engine — the semantics   equal         every SELECT
                 reference (no network, no remote rules)
``distributed``  tables on linked servers, full optimizer    equal         every SELECT
                 (remote queries, parameterized joins,
                 locality grouping, remote spools)
``ablated``      remote rules off — remote tables fetched    equal         every SELECT
                 whole, all logic local
``faulted``      a seeded FaultInjector per channel,         equal         every SELECT
                 re-seeded per case, masked by retries
``traced``       span tracing, operator profiling and the    equal         every SELECT
                 Query Store on — observers must not change
                 answers
``parallel``     ``SET PARALLEL_DOP 4`` — exchanges run      equal         every SELECT
                 remote branches concurrently
``cached``       nothing: two legs, a cold compile then a    equal         every SELECT
                 warm run that must hit the plan cache
``governed``     a constrained workload group (small pool,   equal         every SELECT
                 MAX_DOP 1, reduced grants)
``partial``      first remote PV member down,                sub_multiset  monotonic SELECTs (no TOP,
                 ``SET PARTIAL_RESULTS ON``                                no aggregate, no table on
                                                                           the down host)
``atomic``       a crash armed at a random 2PC step per      atomic        the DML statements of
                 statement, a single-engine shadow           (see          :mod:`~repro.testcheck.atomic`
                                                             ``atomic``)
===============  ==========================================  ============  ===========================

The paper's claim under test: DHQP's remote rules participate in
cost-based search *without changing query semantics* — so plans that
ship predicates, build remote queries, probe with parameters, or
retry after transient faults must all return exactly what the
all-local reference returns.

Every leg of every row is also checked for sortedness under the
query's ORDER BY keys, and after every case every world built so far
(coordinator and members) must be quiesce-clean — no bound ledger,
memory grant, pool request, in-flight statement, in-doubt transaction
or live exchange worker (kind ``leak``).

A mismatch report carries everything needed to reproduce: the case
id, the SQL text and EXPLAIN of every world the case applies to, and
the per-server network counters, traced span tree and plan-cache
evidence of every leg that ran.
"""

from __future__ import annotations

import datetime as dt
import itertools
import traceback
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, NamedTuple, Optional

from repro.engine import Engine, QueryResult, ServerInstance
from repro.core.optimizer import OptimizerOptions
from repro.network.channel import NetworkChannel
from repro.network.ledger import current_ledger
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import RetryPolicy
from repro.sql import ast as ast_sql
from repro.testcheck.schema import SchemaSpec, generate_schema
from repro.testcheck.sqlgen import GeneratedQuery, generate_query
from repro.types.collation import DEFAULT_COLLATION
from repro.types.intervals import SortKey


def _stable_hash(text: str) -> int:
    """Process-independent hash (``hash()`` is randomized per run)."""
    return zlib.crc32(text.encode("utf-8"))

#: remote rules switched off for the ``ablated`` oracle
ABLATED_OPTIONS = dict(
    enable_remote_query=False,
    enable_parameterization=False,
    enable_locality_grouping=False,
    enable_spool=False,
)


@dataclass(eq=False)
class OracleWorld:
    """One materialized configuration: its engines (the coordinator is
    ``local``), channels, and the name map for rendering."""

    name: str
    schema: SchemaSpec
    engines: dict[str, Engine]
    name_map: dict[str, str] = field(default_factory=dict)
    channels: dict[str, NetworkChannel] = field(default_factory=dict)
    #: the ``atomic`` row's single-engine twin
    shadow: Optional[OracleWorld] = None

    @property
    def engine(self) -> Engine:
        return self.engines["local"]

    def run(self, query) -> QueryResult:
        return self.engine.execute(query.render(self.name_map))

    def explain(self, query) -> str:
        try:
            result = self.engine.execute(
                "EXPLAIN " + query.explained(self.name_map)
            )
            return "\n".join(row[0] for row in result.rows)
        except Exception as error:  # EXPLAIN must never mask the report
            return f"<explain failed: {type(error).__name__}: {error}>"


class Worlds(dict):
    """One schema's oracle worlds by row name, each built on first use."""

    def __init__(self, schema: SchemaSpec):
        super().__init__()
        self.schema = schema

    def __missing__(self, name: str) -> OracleWorld:
        world = self[name] = build_world(self.schema, name)
        return world


def build_world(schema: SchemaSpec, name: str) -> OracleWorld:
    """Materialize the schema (tables + data + partitioned view) in the
    named row's topology, then apply the row's ``configure``."""
    row = next(row for row in ORACLES if row.name == name)
    world = OracleWorld(name, schema, {"local": Engine("local")})
    for table in schema.tables.values():
        host = table.host if row.federated else "local"
        engine = world.engines.get(host)
        if engine is None:
            engine = world.engines[host] = ServerInstance(host)
        engine.execute(table.ddl())
        storage = engine.catalog.database().table(table.name)
        for values in table.rows:
            storage.insert(values)
        world.name_map[table.name] = (
            table.name if host == "local"
            else f"{host}.master.dbo.{table.name}"
        )
    for host, engine in list(world.engines.items())[1:]:
        channel = NetworkChannel(
            f"ch-{host}", latency_ms=0.5, mb_per_second=50
        )
        world.engine.add_linked_server(host, engine, channel)
        world.channels[host] = channel
    view = schema.view
    if view is not None:
        world.engine.execute(
            f"CREATE VIEW {view.name} AS " + " UNION ALL ".join(
                f"SELECT * FROM {world.name_map[member.name]}"
                for member in view.members
            )
        )
        world.name_map[view.name] = view.name
    row.configure(world)
    return world


# ======================================================================
# the rows' world adjustments and applicability
# ======================================================================

def _unchanged(*_args) -> None:
    """Leave the world as built."""


def _ablate(world: OracleWorld) -> None:
    world.engine.optimizer.options = OptimizerOptions(**ABLATED_OPTIONS)


def _inject_faults(world: OracleWorld) -> None:
    retry_policy = RetryPolicy(
        max_attempts=10, base_backoff_ms=1.0, max_backoff_ms=8.0
    )
    for host, channel in world.channels.items():
        channel.fault_injector = FaultInjector(
            seed=world.schema.seed + _stable_hash(host) % 1000,
            transient_rate=0.05,
            timeout_rate=0.02,
        )
        world.engine.linked_server(host).retry_policy = retry_policy


def _reseed_faults(world: OracleWorld, case, cid: str) -> None:
    # per-case deterministic fault stream, independent of whatever ran
    # before (so --repro replays exactly)
    for channel in world.channels.values():
        channel.fault_injector.reset(
            seed=_stable_hash(f"{cid}/{channel.name}")
        )


def _observe(world: OracleWorld) -> None:
    # the observer-effect oracle: full observability on (both consumers
    # of the operator meter, and the Query Store), results must still
    # match the untraced reference row-for-row
    world.engine.tracing_enabled = True
    world.engine.profiling_enabled = True
    world.engine.query_store_enabled = True


def _parallelize(world: OracleWorld) -> None:
    # the DOP-invariance oracle: exchanges above remote branches,
    # answers must still match the serial reference row-for-row
    world.engine.execute("SET PARALLEL_DOP 4")


def _govern(world: OracleWorld) -> None:
    # the resource-governor oracle: a constrained group (finite pool,
    # reduced grants, MAX_DOP 1) may delay or clamp every statement but
    # must never change its answer.  The timeout is generous — single-
    # session sequential execution never queues, so nothing can shed.
    governor = world.engine.governor
    governor.create_pool("oracle_pool", max_memory_kb=4096.0, max_concurrency=1)
    governor.create_group(
        "constrained",
        pool="oracle_pool",
        max_dop=1,
        max_memory_grant_pct=50.0,
        request_timeout_ms=10_000.0,
    )
    world.engine.execute("SET WORKLOAD GROUP 'constrained'")


def partial_down_host(schema: SchemaSpec) -> Optional[str]:
    """The partitioned-view member host the partial oracle takes down
    (first remote member host in sorted order), or None when the schema
    has no remotely-hosted view member."""
    if schema.view is None:
        return None
    hosts = sorted(
        {m.host for m in schema.view.members if m.host != "local"}
    )
    return hosts[0] if hosts else None


def _take_member_down(world: OracleWorld) -> None:
    down_host = partial_down_host(world.schema)
    if down_host is None:
        return
    # warm every member's metadata while healthy: delayed schema
    # validation then lets degraded queries still compile
    world.engine.execute(f"SELECT * FROM {world.schema.view.name}")
    world.channels[down_host].fault_injector = FaultInjector(
        seed=world.schema.seed, down=True
    )
    world.engine.execute("SET PARTIAL_RESULTS ON")


def _selects(schema: SchemaSpec, case) -> bool:
    return isinstance(case, GeneratedQuery)


def eligible_for_partial(
    schema: SchemaSpec, query: GeneratedQuery, down_host: Optional[str]
) -> bool:
    """The subset property only holds for monotonic queries: no TOP, no
    aggregation (a COUNT over fewer partitions is a *different* number,
    not a subset), and no base table hosted on the down member (those
    reads have no healthy sibling and stay fail-stop).  Without a down
    host there is nothing to degrade."""
    if down_host is None or query.has_top:
        return False
    stmt = query.stmt
    if stmt.group_by or stmt.having is not None:
        return False
    for item in stmt.items:
        if isinstance(getattr(item, "expr", None), ast_sql.FuncExpr):
            return False
    for name in query.tables:
        table = schema.tables.get(name)
        if table is not None and table.host == down_host:
            return False
    return True


def _degradable(schema: SchemaSpec, case) -> bool:
    return _selects(schema, case) and eligible_for_partial(
        schema, case, partial_down_host(schema)
    )


# ======================================================================
# collation-aware multiset equality
# ======================================================================

def canonical_value(value: Any) -> tuple:
    """Total-orderable canonical form: NULL < numbers < temporals <
    strings; strings fold per the default collation; floats round to 9
    significant digits so plan-dependent summation order can't produce
    spurious last-ulp mismatches."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, float(int(value)))
    if isinstance(value, (int, float)):
        return (1, float(f"{float(value):.9g}"))
    if isinstance(value, dt.datetime):
        return (2, value.isoformat())
    if isinstance(value, dt.date):
        return (2, value.isoformat())
    if isinstance(value, str):
        return (3, DEFAULT_COLLATION.normalize(value))
    return (4, repr(value))


def canonical_rows(rows: list[tuple]) -> list[tuple]:
    """Sorted canonical multiset of a result rowset."""
    return sorted(
        tuple(canonical_value(v) for v in row) for row in rows
    )


def rowsets_equal(a: list[tuple], b: list[tuple]) -> bool:
    return canonical_rows(a) == canonical_rows(b)


def is_sub_multiset(sub: list[tuple], sup: list[tuple]) -> bool:
    """Canonical multiset inclusion: every row of ``sub`` appears in
    ``sup`` at least as many times."""
    sub_counts = Counter(canonical_rows(sub))
    sup_counts = Counter(canonical_rows(sup))
    return all(
        count <= sup_counts[row] for row, count in sub_counts.items()
    )


def is_sorted_by(
    rows: list[tuple], order_keys: list[tuple[int, bool]]
) -> bool:
    """Whether ``rows`` respects the ORDER BY keys (ties free)."""
    for previous, current in zip(rows, rows[1:]):
        for ordinal, ascending in order_keys:
            lo, hi = SortKey(previous[ordinal]), SortKey(current[ordinal])
            if lo == hi:
                continue
            if (lo < hi) != ascending:
                return False
            break
    return True


# ======================================================================
# comparators: each checks one leg's outcome (a QueryResult, or the
# exception the leg raised) against the reference leg's, raising Failure
# ======================================================================

@dataclass(eq=False)
class Failure(Exception):
    """A property one leg violated: the mismatch kind, what went wrong,
    and the rows that show it (``reference_rows=None`` reports the
    reference leg's answer)."""

    kind: str
    detail: str
    reference_rows: Optional[list[tuple]] = None
    actual_rows: list[tuple] = field(default_factory=list)


def answer(outcome) -> list[tuple]:
    """A leg's rows; a leg that raised fails the case as an ``error``."""
    if isinstance(outcome, Exception):
        raise Failure(
            "error",
            "configuration raised:\n"
            + "".join(traceback.format_exception(outcome)),
        )
    return outcome.rows


def equal(world: OracleWorld, case, reference, outcome) -> None:
    expected, rows = answer(reference), answer(outcome)
    if not rowsets_equal(expected, rows):
        raise Failure(
            "rows",
            f"result multiset differs from the all-local reference "
            f"({len(expected)} vs {len(rows)} rows)",
            expected, rows,
        )


def sub_multiset(world: OracleWorld, case, reference, outcome) -> None:
    """Fewer rows is degradation; different rows is a bug."""
    expected, rows = answer(reference), answer(outcome)
    if not is_sub_multiset(rows, expected):
        raise Failure(
            "partial",
            f"degraded answer is not a sub-multiset of the all-local "
            f"reference ({len(rows)} vs {len(expected)} rows)",
            expected, rows,
        )


def _check_leg(row: "Oracle", world: OracleWorld, case, reference,
               outcome, leg: int) -> None:
    """Every property one leg must hold.  Legs after the first replay
    the same text through the same engine, so they must hit the plan
    cache, and anything they get wrong is a ``cache`` failure."""
    try:
        row.compare(world, case, reference, outcome)
        if case.order_keys and not is_sorted_by(
            answer(outcome), case.order_keys
        ):
            raise Failure(
                "order",
                f"rows violate ORDER BY keys {case.order_keys}",
                actual_rows=outcome.rows,
            )
        if leg and outcome.plan_cache_status != "hit":
            raise Failure(
                "cache",
                f"did not hit the plan cache "
                f"(status={outcome.plan_cache_status!r})",
                actual_rows=outcome.rows,
            )
    except Failure as failure:
        if leg:
            failure.kind = "cache"
            failure.detail = f"warm rerun {leg}: {failure.detail}"
        raise


def quiesce_leaks(engines: dict[str, Engine]) -> list[str]:
    """What ``engines`` (host → engine) still hold once every statement
    has finished (empty = quiesce-clean)."""
    leaks = []
    if current_ledger() is not None:
        leaks.append("a statement ledger is still bound")
    for host, engine in engines.items():
        governor = engine.governor
        held = [f"grant {grant!r}" for grant in governor.active_grants()]
        held += [
            f"{pool!r} with {pool.queued_requests()} queued"
            for pool in governor.pools.values()
            if pool.used_memory_kb or pool.active_requests
            or pool.queued_requests()
        ]
        if engine._inflight:
            held.append(f"{engine._inflight} statement(s) in flight")
        if engine.dtc.has_in_doubt():
            held.append("a transaction in doubt")
        held += [
            f"live exchange worker {thread.name}"
            for scheduler in list(engine._schedulers)
            for thread in scheduler.threads
            if thread.is_alive()
        ]
        leaks += [f"{host}: {item}" for item in held]
    return leaks


# ======================================================================
# the oracle table
# ======================================================================

class Oracle(NamedTuple):
    """One row of the oracle table."""

    name: str
    #: adjusts the freshly built world (options, observers, faults...)
    configure: Callable[[OracleWorld], None] = _unchanged
    #: checks one leg against the reference leg; raises Failure
    compare: Callable[..., None] = equal
    #: whether the row checks this case of this schema
    applies: Callable[[SchemaSpec, Any], bool] = _selects
    #: runs of each case through the same engine
    legs: int = 1
    #: ``(world, case, cid)`` hook run before a case's first leg
    before_case: Callable[..., None] = _unchanged
    #: tables on their generated hosts (False: every table in one engine)
    federated: bool = True


class Cases(NamedTuple):
    """One family of cases: its case-id prefix, a schema's cases in
    order, and — for a battery whose cases share state — its length
    (a replay then reruns the whole battery; independent cases replay
    alone)."""

    prefix: str
    draw: Callable[[SchemaSpec], Iterator[Any]]
    battery: Optional[int] = None


def _queries(schema: SchemaSpec) -> Iterator[GeneratedQuery]:
    for index in itertools.count():
        yield generate_query(schema, schema.seed * 10_000 + index)


#: the generated SELECT workload every SELECT row checks
SELECTS = Cases("", _queries)


# ======================================================================
# mismatch reporting
# ======================================================================

def _sample(rows: list[tuple], limit: int = 8) -> str:
    shown = [repr(r) for r in rows[:limit]]
    if len(rows) > limit:
        shown.append(f"... ({len(rows)} rows total)")
    return "\n    ".join(shown) if shown else "<empty>"


@dataclass
class Mismatch:
    """One differential failure, with everything needed to reproduce."""

    case_id: str
    #: 'rows' (multiset differs), 'order' (ORDER BY violated),
    #: 'partial' (degraded answer not a subset of the reference),
    #: 'cache' (a warm rerun missed the plan cache or diverged),
    #: 'error' (a configuration raised), 'leak' (a world was not
    #: quiesce-clean after the case), or 'atomic' (crash-injected
    #: DML left a partitioned view torn, readable while in doubt,
    #: or unresolved after recovery — see testcheck/atomic.py)
    kind: str
    config: str
    detail: str
    sql_by_config: dict[str, str]
    explain_by_config: dict[str, str]
    reference_rows: list[tuple]
    actual_rows: list[tuple]
    #: per-config network attribution (retries, backoff, breaker
    #: trips/fast-fails per server) — whether a config was retrying
    #: or fast-failing is often the whole story of a mismatch
    network_by_config: dict[str, dict] = field(default_factory=dict)
    #: the span tree (QueryTrace.as_dict()) of the first leg that
    #: recorded one — CI writes it next to the mismatch report as a
    #: trace artifact
    trace_payload: Optional[dict] = None
    #: per multi-leg config, plan-cache evidence — the cache key plus
    #: the cold/warm hit-miss statuses — so a cache bug report pins
    #: down exactly which entry went wrong
    cache_info: dict[str, dict] = field(default_factory=dict)

    def describe(self) -> str:
        lines = [
            f"=== MISMATCH case {self.case_id} "
            f"[{self.kind}] config={self.config} ===",
            self.detail,
            f"repro: python tools/diffcheck.py --repro {self.case_id}",
            "",
        ]
        for config, sql in self.sql_by_config.items():
            lines.append(f"-- SQL [{config}] --")
            lines.append(f"  {sql}")
        lines.append("")
        lines.append(f"reference rows:\n    {_sample(self.reference_rows)}")
        lines.append(
            f"{self.config} rows:\n    {_sample(self.actual_rows)}"
        )
        lines.append("")
        for config, network in self.network_by_config.items():
            for server, stats in network.items():
                interesting = {
                    key: value
                    for key, value in stats.items()
                    if key in (
                        "retries", "backoff_ms",
                        "breaker_trips", "breaker_fast_fails",
                    ) and value
                }
                if interesting:
                    lines.append(
                        f"-- network [{config}/{server}] -- {interesting}"
                    )
        for config, info in self.cache_info.items():
            lines.append(f"-- plan cache [{config}] -- {info}")
        for config, plan in self.explain_by_config.items():
            lines.append(f"-- EXPLAIN [{config}] --")
            lines.extend(f"  {line}" for line in plan.splitlines())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Mismatch({self.case_id}, {self.kind}, {self.config})"


@dataclass
class DiffReport:
    """Outcome of one differential run."""

    cases_run: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        if self.ok:
            return f"diffcheck: {self.cases_run} cases, all oracles agree"
        parts = [
            f"diffcheck: {len(self.mismatches)} mismatch(es) "
            f"in {self.cases_run} cases",
            "",
        ]
        parts += [m.describe() for m in self.mismatches]
        return "\n".join(parts)


# ======================================================================
# the runner
# ======================================================================

#: queries drawn from each generated schema before moving to the next
QUERIES_PER_SCHEMA = 10


def case_id(schema_seed: int, query_index: int) -> str:
    return f"{schema_seed}:{query_index}"


def parse_case_id(text: str) -> tuple[int, int]:
    schema_seed, _, query_index = text.partition(":")
    return int(schema_seed), int(query_index or 0)


@dataclass
class DifferentialRunner:
    """Seeded fuzz runner: schemas -> cases -> oracle table."""

    seed: int
    queries_per_schema: int = QUERIES_PER_SCHEMA
    collect_explains: bool = True

    # -- single case -------------------------------------------------------
    def check_case(
        self, worlds: Worlds, case, cid: str
    ) -> Optional[Mismatch]:
        """Run ``case`` under every row that applies to it, in table
        order — the first such row's first leg is the reference — then
        require every world built so far to be quiesce-clean."""
        rows = [row for row in ORACLES if row.applies(worlds.schema, case)]
        ran: dict[str, list] = {}
        reference = config = None
        try:
            for row in rows:
                config, world = row.name, worlds[row.name]
                row.before_case(world, case, cid)
                legs = ran[config] = []
                for leg in range(row.legs):
                    try:
                        legs.append(world.run(case))
                    except Exception as error:
                        legs.append(error)
                    if reference is None:
                        reference = legs[0]
                    _check_leg(row, world, case, reference, legs[-1], leg)
            for config, world in worlds.items():
                leaks = quiesce_leaks(world.engines)
                if leaks:
                    raise Failure(
                        "leak",
                        "not quiesce-clean after the case: "
                        + "; ".join(leaks),
                    )
        except Failure as failure:
            return self._mismatch(
                [worlds[row.name] for row in rows], case, cid, ran,
                reference, config, failure,
            )
        return None

    def _mismatch(self, applied, case, cid, ran, reference, config,
                  failure: Failure) -> Mismatch:
        """The one report builder: SQL and EXPLAIN of every world the
        case applies to, plus the network counters, span tree and
        plan-cache evidence of every leg that ran."""
        finished = {
            name: [leg for leg in legs if isinstance(leg, QueryResult)]
            for name, legs in ran.items()
        }
        traces = [
            leg.trace.as_dict()
            for legs in finished.values() for leg in legs
            if leg.trace is not None
        ]
        return Mismatch(
            cid, failure.kind, config, failure.detail,
            {world.name: case.render(world.name_map) for world in applied},
            {world.name: world.explain(case) for world in applied}
            if self.collect_explains else {},
            getattr(reference, "rows", [])
            if failure.reference_rows is None else failure.reference_rows,
            failure.actual_rows,
            {
                name: legs[0].network
                for name, legs in finished.items()
                if legs and legs[0].network
            },
            traces[0] if traces else None,
            {
                name: {
                    "cache_key": legs[0].plan_cache_key,
                    "cold": legs[0].plan_cache_status,
                    "warm": [leg.plan_cache_status for leg in legs[1:]],
                }
                for name, legs in finished.items() if len(legs) > 1
            },
        )

    # -- one schema ----------------------------------------------------------
    def _check_schema(self, report: DiffReport, cases: Cases,
                      schema_seed: int, indices) -> None:
        """The one per-schema setup behind every entry point: worlds
        are built on first use, cases drawn in order, and ``indices``
        of them checked.  A battery stops at its first mismatch — its
        later cases would build on a state already wrong."""
        worlds = Worlds(generate_schema(schema_seed))
        draw = zip(range(max(indices) + 1), cases.draw(worlds.schema))
        for index, case in draw:
            if index not in indices:
                continue
            mismatch = self.check_case(
                worlds, case, cases.prefix + case_id(schema_seed, index)
            )
            report.cases_run += 1
            if mismatch is not None:
                report.mismatches.append(mismatch)
                if cases.battery:
                    break

    def replay(self, cid: str) -> DiffReport:
        """The ``--repro`` path: rebuild the case's schema and rerun the
        case (or, for a battery, the whole battery it belongs to)."""
        cases = next(c for c in STREAMS if cid.startswith(c.prefix))
        schema_seed, index = parse_case_id(cid[len(cases.prefix):])
        report = DiffReport()
        indices = range(cases.battery) if cases.battery else (index,)
        self._check_schema(report, cases, schema_seed, indices)
        return report

    def run_case(self, schema_seed: int, query_index: int) -> Optional[Mismatch]:
        """One SELECT case's replay, as its mismatch (None = clean)."""
        report = self.replay(case_id(schema_seed, query_index))
        return report.mismatches[0] if report.mismatches else None

    # -- batch -------------------------------------------------------------
    def run(self, n_queries: int, progress=None,
            cases: Cases = SELECTS) -> DiffReport:
        report = DiffReport()
        per_schema = cases.battery or self.queries_per_schema
        for start in range(0, n_queries, per_schema):
            schema_seed = self.seed + start // per_schema
            batch = range(min(per_schema, n_queries - start))
            self._check_schema(report, cases, schema_seed, batch)
            if progress is not None:
                progress(schema_seed, report)
        return report


# the atomic oracle's pieces build on the helpers above
from repro.testcheck.atomic import (  # noqa: E402
    STATEMENTS,
    arm_crash,
    atomic,
    is_statement,
    with_shadow,
)

#: the oracle table, in run order; the first row that applies to a
#: case is its reference
ORACLES: tuple[Oracle, ...] = (
    Oracle("local", federated=False),
    Oracle("distributed"),
    Oracle("ablated", configure=_ablate),
    Oracle("faulted", configure=_inject_faults, before_case=_reseed_faults),
    Oracle("traced", configure=_observe),
    Oracle("parallel", configure=_parallelize),
    Oracle("cached", legs=2),
    Oracle("governed", configure=_govern),
    Oracle("partial", configure=_take_member_down, compare=sub_multiset,
           applies=_degradable),
    Oracle("atomic", configure=with_shadow, compare=atomic,
           applies=is_statement, before_case=arm_crash),
)

#: row names, in the order they run
CONFIGS = tuple(row.name for row in ORACLES)

#: every case family, matched against a case id's prefix in this order
STREAMS = (STATEMENTS, SELECTS)
