"""Smoke test of the benchmark itself, on its two smallest cases.

    python3 -m pytest -q bench/test_smoke.py

It is kept out of the Tier-1 suite (pytest collects only ``tests/``).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_reports_every_declared_metric(trace, section):
    code, lines = run_bench("smoke", trace)
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        # the wrappers must sit where solver and bimaps look the kernels up
        metrics = result["metrics"]
        assert metrics["solver.assemble.residual_calls"]["value"] > 0
        assert metrics["algebra.bracket.calls"]["value"] > 0
        assert metrics["poly.mul.calls"]["value"] > 0


def test_wrong_expected_dimension_fails_the_run():
    code, lines = run_bench("smoke-wrong-answer", 0)
    result = json.loads(lines[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["pass_ratio"]["value"] == 0


def test_without_program_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = run_bench("verify", 0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
