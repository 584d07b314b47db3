"""Entry point, both as ``python -m benchmarks.layers`` and as the plain
script ``BENCHMARK.json`` names.  Either way the repository root and
``src/`` are put on the path first, so no PYTHONPATH is needed."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

if __name__ == "__main__":
    from benchmarks.layers.cli import main

    sys.exit(main())
