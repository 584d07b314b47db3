"""Shared builders for the experiment suite.

Each ``bench_*.py`` module reproduces one paper artifact (table/figure/
worked example); see the experiment index in docs/ARCHITECTURE.md.
Benchmarks both *time* the relevant operation (pytest-benchmark) and
*assert the shape* the paper reports (who wins, by roughly what factor), printing the
rows/series for EXPERIMENTS.md.

World construction is shared with the test suite and the differential
harness via :mod:`repro.testcheck.worlds`; ``build_fig4_world`` is
re-exported here for the bench modules that import it.
"""

from __future__ import annotations

from repro.testcheck.worlds import build_fig4_world

__all__ = ["build_fig4_world", "print_table"]


def print_table(title: str, header: list[str], rows: list[tuple]) -> None:
    """Print one experiment's result table (captured into bench output)."""
    print(f"\n## {title}")
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows
        else len(str(header[i]))
        for i in range(len(header))
    ]
    print("  " + " | ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    print("  " + "-+-".join("-" * w for w in widths))
    for row in rows:
        print(
            "  " + " | ".join(str(v).ljust(w) for v, w in zip(row, widths))
        )
