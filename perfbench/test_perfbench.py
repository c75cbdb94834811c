"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

They run every workload for one pass untraced and one pass traced, twice,
so they take a few minutes; the package's own suite under tests/ does not
collect them.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hjparisi  # noqa: E402
import workloads  # noqa: E402
from run import chance_of_at_least, judge  # noqa: E402
from tracing import EXACT_COUNTS, PER_LAYER  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload, trace, root=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=900)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (_result(_run(workload, 1)) for _ in range(2))
    assert set(first["metrics"]) == set(PER_LAYER)
    assert [m["name"] for m in BENCH["per_layer"]] == list(PER_LAYER)
    for key in EXACT_COUNTS:
        assert first["metrics"][key] == second["metrics"][key], key
    assert first["metrics"]["trace.coverage"]["value"] >= 0.95


def test_untraced_run_reports_every_end_to_end_metric():
    result = _result(_run("crosscheck", 0))
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("crosscheck", 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_chance_of_at_least():
    assert chance_of_at_least([0.5, 0.5], 0) == pytest.approx(1.0)
    assert chance_of_at_least([0.5, 0.5], 1) == pytest.approx(0.75)
    assert chance_of_at_least([0.5, 0.5], 2) == pytest.approx(0.25)
    assert chance_of_at_least([0.1], 2) == 0.0


def _task(battery, prefix):
    return next(t for t in battery.tasks if t.name.startswith(prefix))


def test_nan_results_fail_deterministically(monkeypatch, tmp_path):
    nan = float("nan")
    monkeypatch.setattr(hjparisi.onebody, "psi_mc", lambda *a, **k:
                        SimpleNamespace(value=nan, error_estimate=0.01))
    monkeypatch.setattr(hjparisi.variational, "parisi_std",
                        lambda *a, **k: nan)
    crosscheck = workloads.build_crosscheck(3, str(tmp_path))
    solve = workloads.build_solve(3, str(tmp_path))
    for task in (_task(crosscheck, "path_"), _task(solve, "parisi_std")):
        msg = task.run()
        assert msg is not None, task.name
        assert not isinstance(msg, workloads.Miss), task.name


def test_only_statistical_misses_within_chance_are_forgiven():
    battery = SimpleNamespace(tasks=[SimpleNamespace(false_alarm=0.05)] * 4)
    miss = {"pass": 0, "error": "m", "statistical": True}
    fault = {"pass": 0, "error": "exit code 2", "statistical": False}
    assert judge(battery, [miss]) == ([], [miss])
    assert judge(battery, [fault, miss]) == ([fault], [miss])
    # four misses of 5% checks in one pass: chance 6e-6, below ALPHA
    assert judge(battery, [miss] * 4) == ([miss] * 4, [])
    assert math.isclose(chance_of_at_least([0.05] * 4, 4), 0.05 ** 4)
