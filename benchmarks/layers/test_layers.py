"""Self-test of the benchmark (not part of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/layers -q

Every workload is smoke-run — one round per pass — through the same
functions the command uses.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.layers import cli, harness, layers, sets, spans
from benchmarks.layers.workloads import WORKLOADS

SPEC = json.loads((sets.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DETERMINISTIC = ("net_bytes_per_op", "net_round_trips_per_op")


@pytest.fixture(scope="module", autouse=True)
def two_setups_per_run():
    """Smoke runs need no steady ``setup_s``; the repeats are the bulk
    of their time."""
    saved = harness.SETUP_REPEATS_MIN, harness.SETUP_BUDGET_S
    harness.SETUP_REPEATS_MIN, harness.SETUP_BUDGET_S = 2, 0.0
    yield
    harness.SETUP_REPEATS_MIN, harness.SETUP_BUDGET_S = saved


@pytest.fixture(scope="module")
def untraced():
    return {name: harness.run_untraced(WORKLOADS[name](11), 0.0) for name in WORKLOADS}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("spans")
    return {
        name: harness.run_traced(
            WORKLOADS[name](11), 0.0, out / f"spans-{name}.jsonl"
        )
        for name in WORKLOADS
    }, out


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == (
        harness.END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.units()
    assert SPEC["paths"] == ["benchmarks/layers"]


def test_every_end_to_end_metric_is_reported_and_nonzero(untraced):
    for name, result in untraced.items():
        assert result["failed"] == 0, name
        assert set(result["metrics"]) == set(harness.END_TO_END_UNITS)
        for metric, value in result["metrics"].items():
            assert value > 0, (name, metric)


def test_every_per_layer_metric_is_reported(traced):
    results, __ = traced
    seen_nonzero = set()
    for name, result in results.items():
        assert result["failed"] == 0, name
        assert result["info"]["unresolved_spans"] == []
        assert set(result["metrics"]) == set(layers.units())
        for metric, value in result["metrics"].items():
            assert value is not None, (name, metric)
            if value:
                seen_nonzero.add(metric)
    # every layer shows up on at least one workload
    never = set(layers.units()) - seen_nonzero
    assert never <= {"governor.wait_ms_per_op",
                     "execution.op.PhysicalSort_self_us_per_op"}, never


def test_layers_sit_where_the_readme_says(traced):
    results, __ = traced
    for name, result in results.items():
        m = result["metrics"]
        dtc = [v for k, v in m.items() if k.startswith("dtc.")]
        if name == "pv_neworder":
            assert all(v > 0 for v in dtc)
            assert m["execution.startup_filters_skipped_per_op"] == 3
        else:
            assert dtc == [0] * len(dtc), name
    assert results["pool_warm"]["metrics"]["optimizer.optimize_calls_per_op"] == 0
    assert results["pv_scan"]["metrics"]["optimizer.optimize_calls_per_op"] == 0
    assert results["pool_warm"]["metrics"]["plancache.hit_share"] == 1
    assert results["pool_adhoc"]["metrics"]["plancache.hit_share"] == 0
    assert results["pool_adhoc"]["metrics"]["plancache.evictions_per_op"] == 1
    assert results["fig4_cold"]["metrics"]["stats.build_rows_per_op"] == 1100


def test_span_self_times_close_on_the_op_time(traced):
    results, out = traced
    for name, result in results.items():
        closure = result["metrics"]["trace.closure_share"]
        assert abs(1 - closure) <= harness.CLOSURE_TOLERANCE, (name, closure)
        rows = [
            json.loads(line)
            for line in (out / f"spans-{name}.jsonl").read_text().splitlines()
        ]
        assert len(rows) == result["info"]["spans"]
        by_id = {row["id"]: row for row in rows}
        for row in rows:
            assert 0 <= row["self_ns"] <= row["busy_ns"]
            assert row["busy_ns"] <= row["end_ns"] - row["start_ns"]
            if row["parent"] >= 0:
                assert by_id[row["parent"]]["op"] == row["op"]


def test_simulated_network_metrics_repeat_exactly(untraced):
    for name in WORKLOADS:
        again = harness.run_untraced(WORKLOADS[name](11), 0.0)
        for metric in DETERMINISTIC:
            assert again["metrics"][metric] == untraced[name]["metrics"][metric]


def test_seed_changes_the_inputs():
    for name in ("pool_warm", "pool_adhoc", "pv_scan"):
        a, b = WORKLOADS[name](11), WORKLOADS[name](12)
        assert a._texts != b._texts, name
        assert sorted(a._texts) == sorted(WORKLOADS[name](11)._texts)
    a, b = WORKLOADS["pv_neworder"](11), WORKLOADS["pv_neworder"](12)
    assert a.transactions != b.transactions
    a, b = WORKLOADS["fig4_cold"](11), WORKLOADS["fig4_cold"](12)
    a.setup()
    b.setup()
    assert a.world.rows["customer"] != b.world.rows["customer"]


def test_a_corrupted_expected_row_is_caught():
    workload = WORKLOADS["pv_scan"](11)
    workload.setup()
    assert workload.verify_setup() == 0
    key = next(iter(workload._expected))
    workload._expected[key] = workload._expected[key][:-1] + [("corrupt",)]
    assert workload.verify_setup() == 1
    assert harness.measure(workload, 0.0).failed == 1

    orders = WORKLOADS["pv_neworder"](11)
    orders.setup()
    orders._expected_tables["orders_2"].pop()
    assert harness.measure(orders, 0.0).failed == 1


def test_a_failed_check_makes_the_command_exit_nonzero(monkeypatch, capsys):
    from benchmarks.layers import check

    monkeypatch.setattr(check, "same_rows", lambda *a, **k: False)
    code = cli.main(["--workload", "pv_scan", "--seconds", "0", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and last["correct"] is False and last["failed"] > 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_an_unresolved_target_reads_null_and_does_not_crash():
    targets = tuple(t for t in spans.TARGETS if t[2] != "dtc.commit") + (
        ("repro.sql.parser", "no_such_function", "sql.gone"),
        ("repro.no_such_module", "f", "sql.gone"),
        ("repro.dtc.coordinator", "TransactionCoordinator.renamed",
         "dtc.commit"),
    )
    tracer = spans.Tracer()
    workload = WORKLOADS["pool_warm"](11)
    workload.setup()
    measured = harness.Pass()
    with spans.installed(tracer, targets):
        harness.run_round(workload, measured, tracer=tracer)
    assert measured.failed == 0
    assert "repro.sql.parser:no_such_function" in tracer.unresolved
    assert "dtc.commit" in spans.unresolved_spans(tracer, targets)
    assert tracer.spans  # the targets that do resolve still record


def test_wrappers_are_removed_afterwards():
    from repro import engine
    from repro.sql import parser

    before = (engine.ServerInstance.execute, engine.parse_sql,
              parser.tokenize_sql)
    with spans.installed(spans.Tracer()):
        assert engine.parse_sql is not before[1]
    assert (engine.ServerInstance.execute, engine.parse_sql,
            parser.tokenize_sql) == before


def _results_file(path: Path, ops_per_s: list[float]) -> str:
    def entry(values, unit):
        return {"unit": unit, "values": values,
                "median": sorted(values)[len(values) // 2]}

    end_to_end = {
        m["name"]: entry([1.0, 1.0, 1.0], m["unit"]) for m in SPEC["end_to_end"]
    }
    end_to_end["ops_per_s"] = entry(ops_per_s, "1/s")
    path.write_text(json.dumps(
        {"workloads": {"pool_warm": {"end_to_end": end_to_end}}}
    ))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    base = _results_file(tmp_path / "a.json", [100.0, 101.0, 102.0])
    slower = _results_file(tmp_path / "b.json", [70.0, 70.5, 71.0])
    noisy = _results_file(tmp_path / "c.json", [60.0, 100.0, 140.0])
    assert sets.compare(base, base) == 0
    assert "worse" not in capsys.readouterr().out
    assert sets.compare(base, slower) == 1
    assert "ops_per_s" in [
        line.split()[1] for line in capsys.readouterr().out.splitlines()
        if line.rstrip().endswith("worse [1/s]")
    ]
    assert sets.compare(slower, base) == 0
    assert "better" in capsys.readouterr().out
    assert sets.compare(base, noisy) == 0
    assert "unresolved" in capsys.readouterr().out


def test_smoke_set_cannot_touch_the_results_directory(capsys):
    code = cli.main(["set", "--smoke"])
    assert code == 2
    code = cli.main(
        ["set", "--smoke", "--out", str(sets.RESULTS / "baseline.json")]
    )
    assert code == 2


def test_calibration_loop_reads_a_time():
    assert sets.calibration_ms() > 0
