"""The wall-clock benchmark: five workloads, end-to-end metrics with
tracing off, and a separate traced pass that gives per-layer spans.

Run it from the repository root::

    python3 benchmarks/layers/__main__.py --workload pool_warm --seed 11 \
        --seconds 20 --trace 0
    PYTHONPATH=src:. python -m benchmarks.layers set --out /tmp/set.json
    PYTHONPATH=src:. python -m benchmarks.layers compare A.json B.json

See ``README.md`` beside this file for what every metric means.
"""
