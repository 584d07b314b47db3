#!/usr/bin/env python
"""Docs sanity check for CI.

Fails (exit 1) when:

* any Markdown file under the repo root or ``docs/`` contains a
  relative link to a file that does not exist, or
* ``README.md`` lacks a "Resilience" section, or its link to
  ``docs/FAULT_MODEL.md`` is missing, or
* ``README.md`` lacks a "Testing" section, or its link to
  ``docs/TESTING.md`` is missing, or ``docs/TESTING.md`` does not
  name every oracle of ``repro.testcheck.oracle.ORACLES`` or show the
  seed-repro workflow, or
* some ``sys.<view>`` of ``repro.observability.views`` is named in no
  file under ``docs/``, or
* ``docs/FAULT_MODEL.md`` does not document the 2PC protocol (state
  machine, coordinator log, crash-point matrix, in-doubt recovery), or
* ``README.md`` lacks an "Observability" section, or its link to
  ``docs/OBSERVABILITY.md`` is missing, or ``docs/OBSERVABILITY.md``
  does not document the span model, plan forcing, and the session /
  plan-cache counters, or
* ``README.md`` lacks an "Architecture" section, or its link to
  ``docs/ARCHITECTURE.md`` is missing, or ``docs/ARCHITECTURE.md``
  does not cover the module map, the life of a query, the parallel
  execution / threading model, and the session / shared-plan-cache
  lifecycle, or
* ``README.md`` lacks a "Resource Governor" section, or its link to
  ``docs/GOVERNOR.md`` is missing, or ``docs/GOVERNOR.md`` does not
  document pools, workload groups, the grant lifecycle and the
  shedding error taxonomy.

External links (http/https/mailto) and intra-page anchors are not
checked — only the repo-relative ones we can verify offline.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.observability.views import system_view_names  # noqa: E402
from repro.testcheck.oracle import ORACLES  # noqa: E402

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_SCHEMES = ("http://", "https://", "mailto:", "#")


def markdown_files() -> list[Path]:
    files = sorted(ROOT.glob("*.md"))
    docs = ROOT / "docs"
    if docs.is_dir():
        files += sorted(docs.rglob("*.md"))
    return files


def check_links(path: Path) -> list[str]:
    problems = []
    for target in LINK.findall(path.read_text(encoding="utf-8")):
        if target.startswith(SKIP_SCHEMES):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            problems.append(
                f"{path.relative_to(ROOT)}: dead link -> {target}"
            )
    return problems


def check_readme() -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    problems = []
    if not re.search(r"^#+\s+Resilience\b", readme, re.MULTILINE):
        problems.append("README.md: missing a 'Resilience' section")
    if "docs/FAULT_MODEL.md" not in readme:
        problems.append("README.md: missing link to docs/FAULT_MODEL.md")
    if not re.search(r"^#+\s+Testing\b", readme, re.MULTILINE):
        problems.append("README.md: missing a 'Testing' section")
    if "docs/TESTING.md" not in readme:
        problems.append("README.md: missing link to docs/TESTING.md")
    if not re.search(r"^#+\s+Observability\b", readme, re.MULTILINE):
        problems.append("README.md: missing an 'Observability' section")
    if "docs/OBSERVABILITY.md" not in readme:
        problems.append("README.md: missing link to docs/OBSERVABILITY.md")
    if not re.search(r"^#+\s+Architecture\b", readme, re.MULTILINE):
        problems.append("README.md: missing an 'Architecture' section")
    if "docs/ARCHITECTURE.md" not in readme:
        problems.append("README.md: missing link to docs/ARCHITECTURE.md")
    if not re.search(r"^#+\s+Resource Governor\b", readme, re.MULTILINE):
        problems.append("README.md: missing a 'Resource Governor' section")
    if "docs/GOVERNOR.md" not in readme:
        problems.append("README.md: missing link to docs/GOVERNOR.md")
    return problems


def check_testing_doc() -> list[str]:
    path = ROOT / "docs" / "TESTING.md"
    if not path.exists():
        return ["docs/TESTING.md: missing"]
    text = path.read_text(encoding="utf-8")
    problems = [
        f"docs/TESTING.md: oracle matrix missing `{oracle.name}`"
        for oracle in ORACLES
        if f"`{oracle.name}`" not in text
    ]
    # the seed-repro workflow and the regenerator must be shown
    for needle in ("--repro", "tools/update_golden.py", "tests/golden",
                   "--atomic"):
        if needle not in text:
            problems.append(f"docs/TESTING.md: missing '{needle}'")
    return problems


def check_system_views_documented() -> list[str]:
    docs = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "docs").rglob("*.md"))
    )
    return [
        f"docs/: no file documents sys.{view}"
        for view in system_view_names()
        if f"sys.{view}" not in docs
    ]


def check_fault_model_doc() -> list[str]:
    path = ROOT / "docs" / "FAULT_MODEL.md"
    if not path.exists():
        return ["docs/FAULT_MODEL.md: missing"]
    text = path.read_text(encoding="utf-8")
    problems = []
    # the 2PC contract: protocol + log, the crash-point matrix, the
    # in-doubt / partial-results interaction, and the recovery surface
    for needle in (
        "presumed-abort",
        "Crash-point matrix",
        "coordinator_after_decision_flush",
        "TwoPCFaultPlan",
        "in-doubt",
        "TransactionInDoubtError",
        "recover()",
        "COMMIT_DECISION",
        "sys.dm_tran_active_transactions",
        "dtc.fsyncs",
    ):
        if needle not in text:
            problems.append(f"docs/FAULT_MODEL.md: missing '{needle}'")
    return problems


def check_observability_doc() -> list[str]:
    path = ROOT / "docs" / "OBSERVABILITY.md"
    if not path.exists():
        return ["docs/OBSERVABILITY.md: missing"]
    text = path.read_text(encoding="utf-8")
    problems = []
    # the span model and the session / plan-cache telemetry must stay
    # documented
    for needle in (
        "remote_command",
        "plan_cache_hit",
        "plan_cache.hits",
        "session_id",
        "force_plan",
        "plan fingerprint",
        "tools/tracereport.py",
    ):
        if needle not in text:
            problems.append(f"docs/OBSERVABILITY.md: missing '{needle}'")
    return problems


def check_architecture_doc() -> list[str]:
    path = ROOT / "docs" / "ARCHITECTURE.md"
    if not path.exists():
        return ["docs/ARCHITECTURE.md: missing"]
    text = path.read_text(encoding="utf-8")
    problems = []
    # the module map, the end-to-end walkthrough, the parallel
    # execution / threading model, and the session / plan-cache
    # lifecycle must stay documented
    for needle in (
        "Module map",
        "Life of a query",
        "`repro.sql`",
        "`repro.oledb`",
        "Gather",
        "GatherMerge",
        "PARALLEL_DOP",
        "parallel_saved_ms",
        "SimulatedClock",
        "Threading model",
        "`repro.session`",
        "`repro.execution.plancache`",
        "create_session",
        "shared plan cache",
        "Life of a distributed write",
        "`repro.federation.dml`",
        "TransactionCoordinator",
    ):
        if needle not in text:
            problems.append(f"docs/ARCHITECTURE.md: missing '{needle}'")
    return problems


def check_governor_doc() -> list[str]:
    path = ROOT / "docs" / "GOVERNOR.md"
    if not path.exists():
        return ["docs/GOVERNOR.md: missing"]
    text = path.read_text(encoding="utf-8")
    problems = []
    # the governed-execution contract: the object model, the statement
    # envelope and the shedding taxonomy must stay documented
    for needle in (
        "ResourcePool",
        "WorkloadGroup",
        "SET WORKLOAD GROUP",
        "max_memory_grant_pct",
        "request_timeout_ms",
        "AdmissionTimeoutError",
        "GrantTimeoutError",
        "governor.admitted",
        "engine.close()",
        "`governed`",
        "benchmarks/bench_governor.py",
    ):
        if needle not in text:
            problems.append(f"docs/GOVERNOR.md: missing '{needle}'")
    return problems


def main() -> int:
    problems: list[str] = []
    for path in markdown_files():
        problems += check_links(path)
    problems += check_readme()
    problems += check_testing_doc()
    problems += check_system_views_documented()
    problems += check_fault_model_doc()
    problems += check_observability_doc()
    problems += check_architecture_doc()
    problems += check_governor_doc()
    for problem in problems:
        print(f"docs-check: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"docs-check: {len(markdown_files())} markdown files OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
