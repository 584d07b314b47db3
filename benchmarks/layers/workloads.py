"""The five workloads: one process, one thread, one session, closed loop.

A workload is a *round* — a fixed, seeded list of operations — that the
harness repeats until its time box is spent.  Rounds are identical, so
every count per operation (bytes, round trips, simulated ms, calls per
layer) repeats exactly however many rounds a machine gets through.

Each class says in ``why`` which layer does the work, i.e. which later
optimisation it is there to show and which it must not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from benchmarks.layers import check, data, worlds


@dataclass(frozen=True)
class Shape:
    """One SQL text (``{a}`` marks the literal) and its reference."""

    sql: str
    reference: Callable[[dict, Any], list]
    ordered: bool = False


class Workload:
    """What the harness drives; see :mod:`benchmarks.layers.harness`."""

    name = ""
    why = ""
    ops_per_round = 0
    world: worlds.World

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def setup(self) -> None:
        """Timed as ``setup_s``: build, load, run every shape once."""
        raise NotImplementedError

    def verify_setup(self) -> int:
        """Reference failures among the warm-up executions (untimed)."""
        raise NotImplementedError

    def begin_round(self) -> None:
        """Untimed, before the first operation of a round."""

    def prepare(self, k: int) -> None:
        """Untimed, before operation ``k``."""

    def run(self, k: int) -> Any:
        """Operation ``k`` of the round — the timed region."""
        raise NotImplementedError

    def verify(self, k: int, outcome: Any) -> bool:
        """Whether ``run(k)`` returned what the reference expects."""
        raise NotImplementedError

    def end_round(self) -> int:
        """Untimed, after the last operation: final-state failures."""
        return 0


class ShapeWorkload(Workload):
    """A round of SELECT statements drawn from a table of shapes."""

    build: Callable[[int], worlds.World]

    def __init__(self, seed: int):
        super().__init__(seed)
        #: (shape, literal) per operation of the round
        self.statements: list[tuple[Shape, Any]] = self.plan_round()
        self.ops_per_round = len(self.statements)
        self._texts = [s.sql.format(a=a) for s, a in self.statements]
        self._expected: dict[tuple[str, Any], list] = {}
        self._warmup: list[tuple[Shape, Any, Any]] = []

    def plan_round(self) -> list[tuple[Shape, Any]]:
        raise NotImplementedError

    def warmup_statements(self) -> list[tuple[Shape, Any]]:
        """One statement per distinct shape, in first-use order."""
        seen: dict[str, tuple[Shape, Any]] = {}
        for shape, literal in self.statements:
            seen.setdefault(shape.sql, (shape, literal))
        return list(seen.values())

    def setup(self) -> None:
        self.world = self.build(self.seed)
        execute = self.world.coordinator.execute
        self._warmup = [
            (shape, literal, execute(shape.sql.format(a=literal)))
            for shape, literal in self.warmup_statements()
        ]

    def _matches(self, shape: Shape, literal: Any, result: Any) -> bool:
        key = (shape.sql, literal)
        if key not in self._expected:
            self._expected[key] = shape.reference(self.world.rows, literal)
        return check.same_rows(result.rows, self._expected[key], shape.ordered)

    def verify_setup(self) -> int:
        return sum(
            not self._matches(shape, literal, result)
            for shape, literal, result in self._warmup
        )

    def run(self, k: int) -> Any:
        return self.world.coordinator.execute(self._texts[k])

    def verify(self, k: int, outcome: Any) -> bool:
        return self._matches(*self.statements[k], outcome)


# -- pool_warm / pool_adhoc --------------------------------------------
#: E18's eight statement texts, verbatim
POOL_FIXED = (
    Shape("SELECT id, v FROM lt WHERE v > 5", check.pool_local_filter),
    Shape("SELECT grp, COUNT(*) FROM lt GROUP BY grp", check.pool_local_group),
    Shape(
        "SELECT id, v FROM east.master.dbo.rt WHERE v < 10",
        check.pool_east_filter,
    ),
    Shape(
        "SELECT COUNT(*) FROM west.master.dbo.rt WHERE grp = 'x'",
        check.pool_west_count,
    ),
    Shape(
        "SELECT l.id, r.v FROM lt l, east.master.dbo.rt r WHERE l.v = r.v",
        check.pool_join,
    ),
    Shape(
        "SELECT e.id FROM east.master.dbo.rt e WHERE e.grp = 'y' "
        "ORDER BY e.id",
        check.pool_east_sorted,
        ordered=True,
    ),
    Shape(
        "SELECT TOP 5 id, v FROM west.master.dbo.rt ORDER BY v DESC, id",
        check.pool_west_top,
        ordered=True,
    ),
    Shape(
        "SELECT w.grp, COUNT(*) FROM west.master.dbo.rt w GROUP BY w.grp",
        check.pool_west_group,
    ),
)

#: the same eight shapes with one id-bound literal each, and the first
#: id of the table the bound applies to
POOL_TEMPLATES = (
    (Shape("SELECT id, v FROM lt WHERE v > 5 AND id < {a}",
           check.pool_local_filter), 0),
    (Shape("SELECT grp, COUNT(*) FROM lt WHERE id >= {a} GROUP BY grp",
           check.pool_local_group), 0),
    (Shape("SELECT id, v FROM east.master.dbo.rt WHERE v < 10 AND id >= {a}",
           check.pool_east_filter), 10_000),
    (Shape("SELECT COUNT(*) FROM west.master.dbo.rt "
           "WHERE grp = 'x' AND id < {a}", check.pool_west_count), 20_000),
    (Shape("SELECT l.id, r.v FROM lt l, east.master.dbo.rt r "
           "WHERE l.v = r.v AND l.id < {a}", check.pool_join), 0),
    (Shape("SELECT e.id FROM east.master.dbo.rt e "
           "WHERE e.grp = 'y' AND e.id >= {a} ORDER BY e.id",
           check.pool_east_sorted, ordered=True), 10_000),
    (Shape("SELECT TOP 5 id, v FROM west.master.dbo.rt WHERE id >= {a} "
           "ORDER BY v DESC, id", check.pool_west_top, ordered=True), 20_000),
    (Shape("SELECT w.grp, COUNT(*) FROM west.master.dbo.rt w "
           "WHERE w.id < {a} GROUP BY w.grp", check.pool_west_group), 20_000),
)
#: literals per template: 8 x 64 = 512 distinct texts, four times the
#: 128-entry plan cache, so an LRU cache never hits.  (Not more: a round
#: should stay near a second, so that a run has ten or more of them to
#: take its best slice from.)
ADHOC_LITERALS = 64
#: offset of the first literal, so no bound selects an empty table
ADHOC_FIRST = 48


class PoolWarm(ShapeWorkload):
    name = "pool_warm"
    why = (
        "E18's 8 fixed texts at 100% plan-cache hit: per-statement fixed "
        "cost (lex/parse, cache key, admission, result assembly) does the "
        "work, on the coordinator and again on each member"
    )
    build = staticmethod(worlds.build_pool_world)
    REPEATS = 25

    def plan_round(self):
        statements = [(shape, None) for shape in POOL_FIXED] * self.REPEATS
        self.rng.shuffle(statements)
        return statements


class PoolAdhoc(ShapeWorkload):
    name = "pool_adhoc"
    why = (
        "the same 8 shapes with 512 distinct literal texts against the "
        "128-entry plan cache: metadata stays warm, so bind + Cascades "
        "search + histogram estimation + cache store/evict do the work"
    )
    build = staticmethod(worlds.build_pool_world)

    def plan_round(self):
        statements = [
            (shape, first_id + ADHOC_FIRST + n)
            for shape, first_id in POOL_TEMPLATES
            for n in range(ADHOC_LITERALS)
        ]
        self.rng.shuffle(statements)
        return statements


# -- fig4_cold ---------------------------------------------------------
FIG4 = Shape(
    "SELECT c.c_name, c.c_address, c.c_phone "
    "FROM remote0.tpch10g.dbo.customer c, remote0.tpch10g.dbo.supplier s, "
    "nation n WHERE c.c_nationkey = n.n_nationkey "
    "AND n.n_nationkey = s.s_nationkey",
    check.fig4_join,
)


class Fig4Cold(ShapeWorkload):
    name = "fig4_cold"
    why = (
        "the first statement after remote data changed: statistics are "
        "dropped before every op, so TableStatistics.build on the member, "
        "reached through LinkedServer.table_info, does most of the work"
    )
    build = staticmethod(worlds.build_fig4_world)

    def plan_round(self):
        return [(FIG4, None)]

    def prepare(self, k: int) -> None:
        for table in self.world.tables.values():
            table.invalidate_statistics()
        self.world.coordinator.refresh_statistics()


# -- pv_scan -----------------------------------------------------------
PV_SCAN_SHAPES = (
    Shape("SELECT c_w_id, c_id, c_name, c_balance FROM customer",
          check.pv_full_scan),
    Shape("SELECT c_w_id, COUNT(*), MIN(c_balance), MAX(c_balance) "
          "FROM customer GROUP BY c_w_id", check.pv_group),
    Shape("SELECT c_id, c_name FROM customer WHERE c_balance > {a}",
          check.pv_filter),
    Shape("SELECT c_w_id, c_id, c_balance FROM customer "
          "ORDER BY c_balance DESC, c_w_id, c_id", check.pv_sorted,
          ordered=True),
    Shape("SELECT w.w_name, COUNT(*), MAX(c.c_balance) FROM customer c, wh w "
          "WHERE c.c_w_id = w.w_id GROUP BY w.w_name", check.pv_join_group),
    Shape("SELECT TOP 10 c_id, c_balance FROM customer WHERE c_w_id = {a} "
          "ORDER BY c_balance DESC, c_id", check.pv_member_top, ordered=True),
)


class PvScan(ShapeWorkload):
    name = "pv_scan"
    why = (
        "six warm reads over a 4-member partitioned view at DOP 1: "
        "per-row work (project/filter, sort, hash join/aggregate, "
        "stream_rows accounting, member scans) does the work; compile "
        "is cached"
    )
    build = staticmethod(worlds.build_pv_world)

    def plan_round(self):
        literals = {
            PV_SCAN_SHAPES[2]: 2500,
            PV_SCAN_SHAPES[5]: self.rng.randint(1, data.PV_MEMBERS),
        }
        statements = [(s, literals.get(s)) for s in PV_SCAN_SHAPES]
        self.rng.shuffle(statements)
        return statements


# -- pv_neworder -------------------------------------------------------
@dataclass(frozen=True)
class NewOrder:
    w: int
    c: int
    o_id: int
    amount: float
    update: bool


class PvNewOrder(Workload):
    name = "pv_neworder"
    why = (
        "the same layers under writes: a routed PV point read, a PV INSERT "
        "under 2PC and, every 10th, a PV UPDATE; each write drops member "
        "statistics and cached plans, and the DTC log is on the path"
    )
    ops_per_round = 300
    READ = ("SELECT c_name, c_balance FROM customer "
            "WHERE c_w_id = @w AND c_id = @c")

    def __init__(self, seed: int):
        super().__init__(seed)
        # every literal has a fixed width, so the shipped texts are
        # equally long on every seed: 3-digit customers, 6-digit order
        # ids, amounts that print as ddd.dd
        warehouses = [
            m + 1
            for m in range(data.PV_MEMBERS)
            for __ in range(self.ops_per_round // data.PV_MEMBERS)
        ]
        self.rng.shuffle(warehouses)
        self.transactions = [
            NewOrder(
                w=w,
                c=self.rng.randrange(
                    data.PV_FIRST_CUSTOMER,
                    data.PV_FIRST_CUSTOMER + data.PV_CUSTOMERS,
                ),
                o_id=100_000 + k,
                amount=(self.rng.randrange(1000, 5000) * 10
                        + self.rng.randint(1, 9)) / 100,
                update=k % 10 == 9,
            )
            for k, w in enumerate(warehouses)
        ]
        self._dirty = False
        # replay the round in plain Python once: what every read must
        # return and what every member table must hold afterwards
        model = check.NewOrderModel(data.pv_rows(seed))
        self._expected_reads = []
        for t in self.transactions:
            self._expected_reads.append(model.read(t.w, t.c))
            model.insert(t.w, t.o_id, t.c, t.amount)
            if t.update:
                model.update(t.w, t.c, t.amount)
        self._expected_tables = model.expected_tables(data.PV_MEMBERS)

    def setup(self) -> None:
        """A fresh federation, then the round's first read once so
        remote metadata and the read plan are warm (writes are not
        warmed: they would change the tables)."""
        self.world = worlds.build_pv_world(self.seed)
        self._dirty = False
        first = self.transactions[0]
        self._warmup = self.world.coordinator.execute(
            self.READ, params={"w": first.w, "c": first.c}
        )

    def verify_setup(self) -> int:
        return int(not check.same_rows(
            self._warmup.rows, self._expected_reads[0], ordered=False
        ))

    def begin_round(self) -> None:
        # every round starts from the same tables, so rounds are
        # identical; rebuilding takes ~30 ms and is not timed
        if self._dirty:
            self.setup()

    def run(self, k: int) -> Any:
        t = self.transactions[k]
        execute = self.world.coordinator.execute
        self._dirty = True
        read = execute(self.READ, params={"w": t.w, "c": t.c})
        execute(
            f"INSERT INTO orders VALUES ({t.w}, {t.o_id}, {t.c}, {t.amount})"
        )
        if t.update:
            # SET c_balance = c_balance + x raises BindError through a
            # partitioned view (see README), hence a constant
            execute(
                f"UPDATE customer SET c_balance = {t.amount} "
                f"WHERE c_w_id = {t.w} AND c_id = {t.c}"
            )
        return read

    def verify(self, k: int, outcome: Any) -> bool:
        return check.same_rows(
            outcome.rows, self._expected_reads[k], ordered=False
        )

    def end_round(self) -> int:
        """Every acknowledged write sits in exactly the member its
        CHECK range names, and nothing else does."""
        return sum(
            not check.same_rows(
                self.world.tables[name].rows(), expected, ordered=False
            )
            for name, expected in self._expected_tables.items()
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (PoolWarm, PoolAdhoc, Fig4Cold, PvScan, PvNewOrder)
}

