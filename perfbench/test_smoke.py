"""Smoke test of the benchmark at tiny sizes (a few seconds in all).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(workload, trace, cwd=ROOT, bench=HERE):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _metric_names(key):
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]]


@pytest.mark.parametrize("workload", ["mc_large", "analytic_csv", "reproduce"])
def test_workload_passes_its_checks_and_reports_every_metric(workload):
    # --trace 1 runs an untraced pass and a traced one, so both paths are covered.
    proc = run_bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == _metric_names("per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cli.errors"] == 0 and metrics["montecarlo.errors"] == 0
    # Each workload reaches the layers it was chosen for.
    if workload == "analytic_csv":
        assert metrics["analytic.cells"] > 0 and metrics["montecarlo.calls"] == 0
    else:
        assert metrics["montecarlo.realizations"] > 0 and metrics["montecarlo.fit_calls"] > 0
    if workload == "reproduce":
        assert metrics["optimize.calls"] == 6 and metrics["core.configs"] > 0
    record = json.loads((HERE / "results" / f"{workload}-seed5-trace1.json").read_text())
    assert {"nproc", "python", "numpy", "load_before", "load_after"} <= set(record["machine"])


def test_untraced_run_reports_end_to_end_metrics():
    proc = run_bench("reproduce", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert list(result["metrics"]) == _metric_names("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("reproduce", 0, cwd=tmp_path, bench=tmp_path / "perfbench")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
