#!/usr/bin/env python
"""Docs sanity check for CI.

Fails (exit 1) when:

* any Markdown file under the repo root or ``docs/`` contains a
  relative link to a file that does not exist, or
* a document in ``REQUIRED`` is missing, or lacks one of its section
  headings, links or needles (README's sections and their links, the
  seed-repro workflow in TESTING.md, the 2PC protocol in FAULT_MODEL.md,
  the span model and plan-cache counters in OBSERVABILITY.md, the
  module map and walkthroughs in ARCHITECTURE.md, the governor contract
  in GOVERNOR.md), or
* ``docs/TESTING.md`` does not name every oracle of
  ``repro.testcheck.oracle.ORACLES``, or
* some ``sys.<view>`` of ``repro.observability.views`` is named in no
  file under ``docs/``.

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

#: document -> what it must keep: "headings" (Markdown section titles),
#: "links" (paths it must name) and "needles" (literal text)
REQUIRED: dict[str, dict[str, tuple[str, ...]]] = {
    "README.md": {
        "headings": ("Resilience", "Testing", "Observability",
                     "Architecture", "Resource Governor"),
        "links": ("docs/FAULT_MODEL.md", "docs/TESTING.md",
                  "docs/OBSERVABILITY.md", "docs/ARCHITECTURE.md",
                  "docs/GOVERNOR.md"),
    },
    # the seed-repro workflow and the regenerator must be shown
    "docs/TESTING.md": {
        "needles": ("--repro", "tools/update_golden.py", "tests/golden",
                    "--atomic"),
    },
    # the 2PC contract: protocol + log, the crash-point matrix, the
    # in-doubt / partial-results interaction, and the recovery surface
    "docs/FAULT_MODEL.md": {
        "needles": ("presumed-abort", "Crash-point matrix",
                    "coordinator_after_decision_flush", "TwoPCFaultPlan",
                    "in-doubt", "TransactionInDoubtError", "recover()",
                    "COMMIT_DECISION", "sys.dm_tran_active_transactions",
                    "dtc.fsyncs"),
    },
    # the span model and the session / plan-cache telemetry
    "docs/OBSERVABILITY.md": {
        "needles": ("remote_command", "plan_cache_hit", "plan_cache.hits",
                    "session_id", "force_plan", "plan fingerprint",
                    "tools/tracereport.py"),
    },
    # the module map, the end-to-end walkthrough, the parallel
    # execution / threading model, and the session / plan-cache
    # lifecycle
    "docs/ARCHITECTURE.md": {
        "needles": ("Module map", "Life of a query", "`repro.sql`",
                    "`repro.oledb`", "Gather", "GatherMerge",
                    "PARALLEL_DOP", "parallel_saved_ms", "SimulatedClock",
                    "Threading model", "`repro.session`",
                    "`repro.execution.plancache`", "create_session",
                    "shared plan cache", "Life of a distributed write",
                    "`repro.federation.dml`", "TransactionCoordinator"),
    },
    # the governed-execution contract: the object model, the statement
    # envelope and the shedding taxonomy
    "docs/GOVERNOR.md": {
        "needles": ("ResourcePool", "WorkloadGroup", "SET WORKLOAD GROUP",
                    "max_memory_grant_pct", "request_timeout_ms",
                    "AdmissionTimeoutError", "GrantTimeoutError",
                    "governor.admitted", "engine.close()", "`governed`",
                    "benchmarks/bench_governor.py"),
    },
}


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


def check_required(name: str, rules: dict[str, tuple[str, ...]]) -> list[str]:
    path = ROOT / name
    if not path.exists():
        return [f"{name}: missing"]
    text = path.read_text(encoding="utf-8")
    problems = []
    for heading in rules.get("headings", ()):
        if not re.search(rf"^#+\s+{re.escape(heading)}\b", text, re.MULTILINE):
            article = "an" if heading[0] in "AEIOU" else "a"
            problems.append(f"{name}: missing {article} '{heading}' section")
    for link in rules.get("links", ()):
        if link not in text:
            problems.append(f"{name}: missing link to {link}")
    for needle in rules.get("needles", ()):
        if needle not in text:
            problems.append(f"{name}: missing '{needle}'")
    return problems


def check_oracles_documented() -> list[str]:
    path = ROOT / "docs" / "TESTING.md"
    text = path.read_text(encoding="utf-8") if path.exists() else ""
    return [
        f"docs/TESTING.md: oracle matrix missing `{oracle.name}`"
        for oracle in ORACLES
        if text and f"`{oracle.name}`" not in text
    ]


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


def main() -> int:
    problems: list[str] = []
    for path in markdown_files():
        problems += check_links(path)
    for name, rules in REQUIRED.items():
        problems += check_required(name, rules)
    problems += check_oracles_documented()
    problems += check_system_views_documented()
    for problem in problems:
        print(f"docs-check: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"docs-check: {len(markdown_files())} markdown files OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
