"""Differential query-correctness harness.

Three legs, one goal — every optimizer/federation/resilience change
must preserve query semantics:

* :mod:`~repro.testcheck.schema` + :mod:`~repro.testcheck.sqlgen` —
  seeded random federated schemas and always-binding SELECT workloads
  built on the :mod:`repro.sql` AST;
* :mod:`~repro.testcheck.oracle` — the multi-oracle differential
  runner: one table of oracle rows (the all-local reference, the
  distributed optimizer and its ablated, faulted, traced, parallel,
  cached, governed and partial variants, and the crash-injected
  ``atomic`` DML row of :mod:`~repro.testcheck.atomic`) driven by one
  loop, with collation-aware multiset equality;
* :mod:`~repro.testcheck.golden` — normalized EXPLAIN snapshots for
  the paper's canonical plans (Figure 4, partition pruning, remote
  spool, parameterized join).

CLIs: ``tools/diffcheck.py`` (fuzz runs, seed-based repro) and
``tools/update_golden.py`` (snapshot regeneration).  See
docs/TESTING.md for the workflow.
"""

from repro.testcheck.oracle import (
    CONFIGS,
    DiffReport,
    DifferentialRunner,
    Mismatch,
    Worlds,
    build_world,
    canonical_rows,
    case_id,
    is_sorted_by,
    parse_case_id,
    rowsets_equal,
)
from repro.testcheck.schema import SchemaSpec, generate_schema
from repro.testcheck.sqlgen import GeneratedQuery, generate_query, render_select

__all__ = [
    "CONFIGS",
    "DiffReport",
    "DifferentialRunner",
    "GeneratedQuery",
    "Mismatch",
    "SchemaSpec",
    "Worlds",
    "build_world",
    "canonical_rows",
    "case_id",
    "generate_query",
    "generate_schema",
    "is_sorted_by",
    "parse_case_id",
    "render_select",
    "rowsets_equal",
]
