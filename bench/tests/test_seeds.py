"""Seed behaviour of the workloads, the traced run's invariants, the
result line's shape and the agreement between run.py and BENCHMARK.json."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS

ROOT = Path(run.__file__).resolve().parents[1]
COUNT_METRICS = [k for k, unit in run.PER_LAYER.items() if unit == "count"]


@pytest.fixture(autouse=True)
def _in_checkout(monkeypatch):
    monkeypatch.chdir(ROOT)


def _traced(name, seed, tmp_path):
    loops, metrics, details = run.run_traced(WORKLOADS[name], seed, tmp_path)
    return loops, metrics, details


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_seeds_same_shape_and_both_pass(name, tmp_path):
    runs = [_traced(name, seed, tmp_path) for seed in (3, 4)]
    for loops, metrics, details in runs:
        for loop in loops:
            assert loop.failures == []
        assert details["problems"] == []
    (l3, m3, _), (l4, m4, _) = runs
    assert set(m3) == set(m4)
    assert set(run.PER_LAYER) <= set(m3)
    assert [l.ops for l in l3] == [l.ops for l in l4]
    assert [len(l.round_s) for l in l3] == [len(l.round_s) for l in l4]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_result_and_counts_repeat(name, tmp_path):
    (ref, traced), first, _ = _traced(name, 5, tmp_path)
    assert traced.digest.hexdigest() == ref.digest.hexdigest()
    _, second, _ = _traced(name, 5, tmp_path)
    assert {k: first[k] for k in COUNT_METRICS} == {k: second[k] for k in COUNT_METRICS}
    for layer in spans.LAYERS + (spans.BENCH,):
        assert first[f"{layer}.self_s"] >= 0
    total = sum(first[f"{layer}.self_s"] for layer in spans.LAYERS + (spans.BENCH,))
    assert total == pytest.approx(first["trace.wall_s"], rel=1e-9)


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_untraced_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "7",
         "--seconds", "0.2", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "trajectory", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
