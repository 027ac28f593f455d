"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

Smoke runs use ``--size tiny``; they check the result line's shape and
every metric's name and unit against ``BENCHMARK.json``, not timings.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        harness.END_TO_END
    )
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == [metric[:3] for metric in harness.LAYER_METRICS]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", str(trace), "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_worst_ttr_counts_as_failure(monkeypatch):
    """A runner answer one slot off its oracle must fail the operation."""
    from repro.sim import runner as runner_module

    measure_instance = runner_module.SweepRunner.measure_instance

    def off_by_one(self, *args, **kwargs):
        pairs = measure_instance(self, *args, **kwargs)
        return [p.__class__(p.algorithm, p.pair, p.worst_ttr + 1, p.stats) for p in pairs]

    monkeypatch.setattr(runner_module.SweepRunner, "measure_instance", off_by_one)
    outcome = harness.run_workload("table1_grid", 3, 0.2, False, "tiny")
    assert outcome.failed > 0
    assert outcome.failed / outcome.attempted > 0


def test_wrong_cache_source_counts_as_failure():
    query = harness.Query("paper", (1, 2), (2, 3))
    answer = {"exit": 0, "worst_ttr": 5, "source": "computed"}
    outcome = harness.Outcome("serve_mix", 0, 1.0, False, "tiny")
    harness.check_serve(
        outcome,
        [(query, "computed", answer), (query, "cache hit", answer)],
        {query: 5},
    )
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert "planned 'cache hit'" in outcome.failures[0]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(
        "--workload", "table1_grid", "--seed", "1", "--seconds", "1", cwd=tmp_path
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
