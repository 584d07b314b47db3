#!/usr/bin/env python
"""Optimizer regret against the wire: does the default plan move the
least simulated network time?

The paper's remote cost model "aims at finding plans with minimal
network traffic" (Section 4.1.3).  This probe checks the claim against
what the channel then charges.  Each generated query (the differential
harness's SELECT workload, schema seeds x queries per schema) runs in
the ``distributed`` oracle world under the default ``OptimizerOptions``
and under every single-switch variant: each ``enable_*`` switch off,
and ``prefer_largest_remote_subtree`` on.  A query's regret is the
default plan's simulated network ms divided by the best variant's
(the default included, so regret >= 1); a variant that fails is left
out.

Usage::

    python tools/regret.py                    # seeds 0-9 and 10-19
    python tools/regret.py --seeds 0:10 --n 10 --worst 5

Exit status is nonzero when, in any seed range, more than
``MAX_MISS_SHARE`` of the queries have regret above ``MISS_THRESHOLD``
or any regret exceeds ``MAX_REGRET``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterator, NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.optimizer import OptimizerOptions  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.testcheck.oracle import build_world, case_id  # noqa: E402
from repro.testcheck.schema import generate_schema  # noqa: E402
from repro.testcheck.sqlgen import generate_query  # noqa: E402

#: a query whose regret exceeds this is a miss
MISS_THRESHOLD = 1.05
#: the largest tolerated share of misses, and the largest regret
MAX_MISS_SHARE = 0.05
MAX_REGRET = 1.25


def variants() -> dict[str, OptimizerOptions]:
    """The default options and every single-switch variant of them."""
    defaults = vars(OptimizerOptions())
    out = {"default": OptimizerOptions()}
    for name, value in defaults.items():
        if isinstance(value, bool):
            out[f"{name}={not value}"] = OptimizerOptions(**{name: not value})
    return out


class Regret(NamedTuple):
    case_id: str
    sql: str
    default_ms: float
    best: str
    best_ms: float

    @property
    def ratio(self) -> float:
        if self.best_ms > 0:
            return self.default_ms / self.best_ms
        return 1.0 if self.default_ms == 0 else float("inf")


def network_ms(engine, sql: str) -> float:
    result = engine.execute(sql)
    return sum(row["simulated_ms"] for row in result.network.values())


def regrets(schema_seeds, queries_per_schema: int) -> Iterator[Regret]:
    """One :class:`Regret` per generated query whose default plan ran."""
    options = variants()
    for schema_seed in schema_seeds:
        schema = generate_schema(schema_seed)
        world = build_world(schema, "distributed")
        engine = world.engine
        for index in range(queries_per_schema):
            query = generate_query(schema, schema_seed * 10_000 + index)
            sql = query.render(world.name_map)
            measured = {}
            for name, variant in options.items():
                engine.optimizer.options = variant
                try:
                    measured[name] = network_ms(engine, sql)
                except ReproError:
                    continue
            engine.optimizer.options = options["default"]
            if "default" not in measured:
                continue
            best = min(measured, key=lambda name: (measured[name], name))
            yield Regret(
                case_id(schema_seed, index), sql, measured["default"],
                best, measured[best],
            )


def _seed_range(text: str) -> range:
    start, __, stop = text.partition(":")
    return range(int(start), int(stop))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", action="append", type=_seed_range,
                        help="schema seed range START:STOP (repeatable; "
                             "default 0:10 and 10:20)")
    parser.add_argument("--n", type=int, default=10,
                        help="queries per schema (default 10)")
    parser.add_argument("--worst", type=int, default=3,
                        help="list this many worst queries per range")
    args = parser.parse_args(argv)
    ok = True
    for seeds in args.seeds or [range(0, 10), range(10, 20)]:
        found = list(regrets(seeds, args.n))
        misses = [r for r in found if r.ratio > MISS_THRESHOLD]
        worst = max((r.ratio for r in found), default=1.0)
        print(
            f"seeds {seeds.start}-{seeds.stop - 1}: {len(found)} queries, "
            f"regret > {MISS_THRESHOLD:g} on {len(misses)}, "
            f"max {worst:.2f}"
        )
        for r in sorted(found, key=lambda r: -r.ratio)[:args.worst]:
            print(
                f"  {r.case_id} regret {r.ratio:.2f}: default "
                f"{r.default_ms:.3f} ms, {r.best} {r.best_ms:.3f} ms"
            )
            print(f"    {r.sql}")
        if len(misses) > MAX_MISS_SHARE * len(found) or worst > MAX_REGRET:
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
