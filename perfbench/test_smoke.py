"""Smoke test of the benchmark's own code at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = workloads.DEFAULT_SEED + 1  # the reference holds full-size outputs only

TINY = {
    "solve-extract": functools.partial(workloads.solve_extract, per_shape=2),
    "verdict-large": functools.partial(workloads.verdict_large, n=40),
    "audit-sweep": functools.partial(workloads.audit_sweep, readme_count=2,
                                     threshold_count=1),
    "verify-battery": workloads.verify_battery,
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "WORKLOADS", dict(TINY))
    return workloads.WORKLOADS


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert BENCHMARK["command"][1:] == ["perfbench/run.py"]


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(tiny, tmp_path, capsys, name, trace):
    result = run.run(name, SEED, 0.01, trace, tmp_path)
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    assert "error_rate 0 " in capsys.readouterr().out


def test_layer_map_names_only_benchmark_metrics():
    names = {m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    layer_map = json.loads((HERE / "layers.json").read_text())
    assert set(layer_map["workloads"]) == set(workloads.WORKLOADS)
    for row in layer_map["predictions"]:
        assert set(row["layer_metrics"]) <= names, row
        assert set(row["should_move"]) <= names, row
        assert set(row["workloads"]) <= set(workloads.WORKLOADS), row


def test_mutated_bc_is_counted_as_failure(tiny, tmp_path, capsys):
    tiny["verify-battery"] = functools.partial(
        workloads.verify_battery, argv=("verify", "--quick", "--mutate-bc"))
    result = run.run("verify-battery", SEED, 0.01, False, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert "error_rate 1 " in capsys.readouterr().out


def test_reference_mismatch_is_counted_as_failure(tmp_path):
    modules = run.import_satprop(run.ROOT)
    workload = TINY["solve-extract"](SEED, tmp_path)
    runner = run.Runner(modules, reference=[{"engine_verdict": "other"}])
    runner.run(workload.ops[0], index=0)
    assert runner.failed == 1
    assert "differs from the reference" in runner.failures[0]


def test_corrupted_output_is_counted_as_failure(tmp_path):
    modules = run.import_satprop(run.ROOT)
    op = TINY["verdict-large"](SEED, tmp_path).ops[0]
    runner = run.Runner(modules, reference=None)
    real_main = runner.cli.main

    def main_then_corrupt(argv):
        code = real_main(argv)
        out = Path(argv[argv.index("--out") + 1])
        doc = json.loads(out.read_text())
        doc["final_cubes"][0]["mask"] = "0xFF"  # wider than the clause allows
        out.write_text(json.dumps(doc))
        return code

    runner.cli = type("Cli", (), {"main": staticmethod(main_then_corrupt)})
    runner.run(op)
    assert runner.failed == 1 and "not within initial" in runner.failures[0]


def test_tail_level():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 1.0)
    samples = [float(i) for i in range(100)]
    assert run.tail(samples) == (89.0, 0.9)  # ten samples lie beyond 89


def test_spans_nest_and_self_time_excludes_children(tmp_path):
    modules = run.import_satprop(run.ROOT)
    workload = TINY["solve-extract"](SEED, tmp_path)
    runner = run.Runner(modules, reference=None)
    spans = tracer.Tracer()
    wall = sum(runner.round(workload, spans))
    metrics = spans.metrics(wall, wall)
    assert runner.cli.main.__name__ == "main"  # originals restored
    assert metrics["propagate.extract_fixpoint_calls"] > 0
    assert metrics["propagate.extract_total_s"] > metrics["propagate.extract_s"]
    assert abs(metrics["cli.total_s"] - wall) < 0.05 * wall
    layer_self = sum(metrics[name] for name in tracer.SELF_TIMES)
    assert layer_self == pytest.approx(metrics["cli.total_s"], rel=1e-6)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-battery",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
