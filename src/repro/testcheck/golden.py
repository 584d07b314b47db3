"""Golden-plan snapshot corpus.

Each case pins the *shape* of a canonical plan from the paper —
Figure 4(b)'s remote-join choice, Section 4.1.5's partition pruning,
Section 4.1.4's remote spool, and the Section 4.1.2 parameterized
join — as normalized EXPLAIN text under ``tests/golden/``.  Cardinality
and cost numbers are masked (they move with estimator tuning and are
not semantics), but operator structure and the decoded remote SQL are
kept verbatim: if Figure 4(b) silently degrades to 4(a), or a pruned
view starts contacting every member, the snapshot diff says exactly
what changed.

Regenerate deliberately with ``python tools/update_golden.py`` after
reviewing the diff; CI runs ``tools/update_golden.py --check``.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Callable

from repro.testcheck import worlds

#: repo-root-relative snapshot directory
GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"

#: estimator outputs masked out of snapshots (not plan shape)
_VOLATILE = re.compile(r"(rows|cost)=[-+0-9.e]+")

#: synthetic column ids (7+ digits) come from a process-global counter,
#: so their value depends on what compiled earlier in the process —
#: mask the number, keep the alias structure
_SYNTHETIC_COL = re.compile(r"\[c\d{7,}\]")


def normalize_plan(text: str) -> str:
    """Mask cardinality/cost numbers and process-global synthetic
    column ids; keep operator structure and remote SQL."""
    lines = []
    for line in text.splitlines():
        line = _VOLATILE.sub(r"\1=#", line.rstrip())
        line = _SYNTHETIC_COL.sub("[c#]", line)
        lines.append(line)
    return "\n".join(lines).rstrip() + "\n"


def _fig4_plan() -> str:
    local, _remote, _channel = worlds.build_fig4_world()
    return local.plan(worlds.FIG4_SQL).explain()


def _pruning_plan() -> str:
    local, _channels = worlds.build_pruning_world()
    return local.plan(worlds.PRUNING_SQL).explain()


def _spool_plan() -> str:
    local, _channel = worlds.build_spool_world()
    return local.plan(worlds.SPOOL_SQL).explain()


def _param_join_plan() -> str:
    local, _remote, _channel = worlds.build_param_join_world()
    return local.plan(worlds.PARAM_JOIN_SQL).explain()


def _health_penalized_plan() -> str:
    """Figure 4(b)'s deep remote join with remote0's breaker open: the
    optimizer must abandon pushdown and fall back to fetch-and-filter
    (RemoteScans + local join) so the plan survives a replan."""
    local, _remote, _channel = worlds.build_fig4_world()
    local.plan(worlds.FIG4_SQL)  # warm remote metadata while healthy
    local.health.breaker("remote0").force_open(reason="golden")
    return local.plan(worlds.FIG4_SQL).explain()


def _partial_results_plan() -> str:
    """§4.1.5's federated lineitem under ``PARTIAL_RESULTS`` with
    srv1993's breaker open: the dead member's branch is emptied and
    dropped by the union rewrite before the search, so only the two
    live members are aggregated.  (``plan()`` does no partial-results
    planning, hence ``execute``.)"""
    sql = "SELECT l_orderkey, COUNT(*) FROM lineitem GROUP BY l_orderkey"
    local, _channels = worlds.build_pruning_world()
    local.plan(sql)  # warm remote metadata while healthy
    local.execute("SET PARTIAL_RESULTS ON")
    local.health.breaker("srv1993").force_open(reason="golden")
    return local.execute(sql).optimization.explain()


#: case name -> plan producer (raw EXPLAIN text)
GOLDEN_CASES: dict[str, Callable[[], str]] = {
    "fig4_remote_join": _fig4_plan,
    "partition_pruning": _pruning_plan,
    "remote_spool": _spool_plan,
    "parameterized_join": _param_join_plan,
    "health_penalized_fallback": _health_penalized_plan,
    "partial_results_pruned": _partial_results_plan,
}


def compute_golden(name: str) -> str:
    """Current normalized plan text for one case."""
    return normalize_plan(GOLDEN_CASES[name]())


def snapshot_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.txt"


def load_snapshot(name: str) -> str:
    return snapshot_path(name).read_text(encoding="utf-8")


def plan_diff(name: str, expected: str, actual: str) -> str:
    """Readable unified diff for a regressed plan."""
    import difflib

    return "".join(
        difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=f"tests/golden/{name}.txt (checked in)",
            tofile=f"{name} (current optimizer)",
        )
    )
