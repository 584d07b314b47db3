"""The ``atomic`` oracle: crash 2PC mid-protocol, recover, diff.

The table's ``atomic`` row is not a SELECT oracle: its cases are seeded
DML statements driven through the distributed partitioned view with a
crash armed at a random 2PC protocol step (every coordinator crash
point plus every per-branch delivery fault — the full matrix in
:data:`repro.resilience.faults.TWO_PC_CRASH_POINTS` /
:data:`~repro.resilience.faults.TWO_PC_DELIVERY_FAULTS`).  The
:func:`atomic` comparator resolves any in-doubt transaction through
:meth:`TransactionCoordinator.recover`, then requires every member to
be **all-or-nothing** against a single-engine shadow that applied
exactly the statements that committed.

Four properties are checked per statement:

1. *atomicity* — after resolution, ``SELECT * FROM pv`` on the
   distributed world equals the shadow's multiset (no torn writes);
2. *fail-fast* — while a transaction is in doubt, reads through the
   view raise :class:`~repro.errors.TransactionInDoubtError` rather
   than observing prepared-but-undecided effects;
3. *resolution* — recovery resolves every in-doubt transaction to the
   logged decision (commit iff the decision record was flushed);
4. *idempotency* — a second recovery pass is a no-op.

Statements of one seed form a battery (:data:`STATEMENTS`): crash
effects accumulate statement to statement, so ``--repro a<seed>:<i>``
replays the whole battery.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, NamedTuple

from repro.errors import TransactionAborted, TransactionInDoubtError
from repro.resilience.faults import TwoPCFaultPlan
from repro.testcheck.oracle import (
    Cases,
    Failure,
    OracleWorld,
    answer,
    build_world,
    canonical_rows,
    rowsets_equal,
)
from repro.testcheck.schema import PV_YEARS, SchemaSpec
from repro.testcheck.sqlgen import _render_literal

#: the all-members probe compared after every statement
PROBE_SQL = "SELECT k, pdate, val, tag FROM pv"

#: DML statements driven per seed
STATEMENTS_PER_SEED = 8


class AtomicStatement(NamedTuple):
    """One DML case of a battery.  Its checked answer is a table state,
    so it carries no ORDER BY keys."""

    sql: str
    plan_seed: int
    order_keys = ()

    def render(self, name_map: dict[str, str]) -> str:
        return self.sql  # the view has one name in every topology

    def explained(self, name_map: dict[str, str]) -> str:
        # EXPLAIN takes SELECTs only: show the read the check diffs
        return PROBE_SQL


def _generate_statement(rng: random.Random, next_key: list) -> str:
    """One seeded DML statement against the partitioned view.

    Inserts may span partition years (multi-branch transactions are
    where torn commits hide); updates and deletes fan out to every
    member.  Keys from a private high counter keep inserts collision-
    free without consulting table state.
    """
    kind = rng.choice(("insert", "insert", "update", "delete"))
    if kind == "insert":
        rows = []
        for __ in range(rng.randint(1, 3)):
            year = rng.choice(PV_YEARS)
            key = next_key[0]
            next_key[0] += 1
            rows.append(
                f"({key}, '{year}-{rng.randint(1, 12)}-{rng.randint(1, 27)}',"
                f" {rng.randint(0, 50)}, {_render_literal(rng.choice(['x', 'y', None]))})"
            )
        return (
            "INSERT INTO pv (k, pdate, val, tag) VALUES "
            + ", ".join(rows)
        )
    if kind == "update":
        predicate = rng.choice(
            (
                f"val < {rng.randint(1, 8)}",
                f"k BETWEEN {rng.randint(0, 10)} AND {rng.randint(11, 30)}",
                f"tag = {_render_literal(rng.choice(['x', 'y']))}",
            )
        )
        return f"UPDATE pv SET val = {rng.randint(0, 99)} WHERE {predicate}"
    low = rng.randint(0, 25)
    return f"DELETE FROM pv WHERE k BETWEEN {low} AND {low + rng.randint(0, 2)}"


def generate_statements(schema: SchemaSpec) -> Iterator[AtomicStatement]:
    """A seed's battery, in order: every statement draws from one rng,
    and each carries the seed of its own crash plan."""
    rng = random.Random(schema.seed * 7919 + 11)
    next_key = [100_000]  # far above generated member keys
    for index in itertools.count():
        yield AtomicStatement(
            _generate_statement(rng, next_key), schema.seed * 1_000 + index
        )


#: the crash-injected DML batteries, case ids ``a<seed>:<index>``
STATEMENTS = Cases("a", generate_statements, STATEMENTS_PER_SEED)


def is_statement(schema: SchemaSpec, case) -> bool:
    return isinstance(case, AtomicStatement)


def with_shadow(world: OracleWorld) -> None:
    world.shadow = build_world(world.schema, "local")


def arm_crash(world: OracleWorld, statement: AtomicStatement, cid: str) -> None:
    plan = TwoPCFaultPlan(seed=statement.plan_seed)
    plan.arm_random(tuple(dict.fromkeys(m.host for m in world.schema.view.members)))
    world.engine.dtc.crash_plan = plan


def _probe_rows(world: OracleWorld) -> list[tuple]:
    return world.engine.execute(PROBE_SQL).rows


def _check_fenced(world: OracleWorld, armed: str) -> None:
    # fail-fast check: while any branch of the in-doubt txn is still
    # undecided (enlisted/prepared), reads through the view must fence.
    # A crash after every branch committed (e.g. coordinator_before_
    # forget) leaves no torn state, so reads legitimately proceed.
    undecided = any(
        branch.state not in ("committed", "aborted")
        for txn in world.engine.dtc.in_doubt_transactions()
        for branch in txn.branches
    )
    if not undecided:
        return
    try:
        rows = _probe_rows(world)
    except TransactionInDoubtError:
        return
    raise Failure(
        "atomic",
        f"read through the view succeeded while txn in doubt ({armed})",
        canonical_rows(_probe_rows(world.shadow)), canonical_rows(rows),
    )


def atomic(world: OracleWorld, statement: AtomicStatement, reference,
           outcome) -> None:
    """The comparator: the four properties for the statement whose
    outcome (a result, or the abort / in-doubt error) just came back."""
    dtc = world.engine.dtc
    plan = dtc.crash_plan
    armed = f"armed {(plan.fired + sorted(plan.armed))[0]}"
    committed = not isinstance(outcome, Exception)
    try:
        if isinstance(outcome, TransactionInDoubtError):
            _check_fenced(world, armed)
            report = dtc.recover()
            if report.unresolved:
                raise Failure(
                    "atomic",
                    f"recovery left transactions unresolved: "
                    f"{report.unresolved} ({armed})",
                )
            committed = bool(report.committed)
        elif not isinstance(outcome, TransactionAborted):
            answer(outcome)  # any other exception fails as an ``error``
    finally:
        dtc.crash_plan = None
    if dtc.has_in_doubt():
        raise Failure(
            "atomic",
            f"in-doubt transactions remain after resolution ({armed})",
        )
    # idempotency: recovery with nothing in doubt is a no-op
    rerun = dtc.recover()
    if rerun.resolved or rerun.unresolved:
        raise Failure(
            "atomic", f"second recovery pass was not a no-op: {rerun!r}"
        )
    if committed:
        world.shadow.engine.execute(statement.sql)
    expected, actual = _probe_rows(world.shadow), _probe_rows(world)
    if not rowsets_equal(expected, actual):
        outcome_name = "committed" if committed else "aborted"
        raise Failure(
            "atomic",
            f"partitioned view diverged from reference after "
            f"{outcome_name} statement ({armed}, fired {plan.fired})",
            canonical_rows(expected), canonical_rows(actual),
        )
