"""Smoke test of the benchmark itself, at a tiny ``--scale``.

    python -m pytest bench/test_bench.py -q

Runs all four workloads traced and untraced, checks the emitted metric
names against ``BENCHMARK.json``, that a wrong reference digest fails
operations, and that seeds change the inputs but not the metric set.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = "0.02"


def run_bench(*args: str) -> list[dict]:
    """The result lines of one ``run.py`` invocation at tiny scale."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--scale", SCALE, "--seconds", "0.2", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def spec_units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize(
    ("trace", "section"), [("0", "end_to_end"), ("1", "per_layer")]
)
def test_metric_names_match_benchmark_json(trace, section):
    lines = run_bench("--trace", trace)
    assert len(lines) == len(workloads.WORKLOADS)
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        units = {name: m["unit"] for name, m in line["metrics"].items()}
        assert units == spec_units(section)


def test_wrong_reference_digest_fails_ops(tmp_path):
    workload = workloads.SweepStockWorkload(0, float(SCALE), tmp_path)
    workload.ref = workload.compute_oracle()
    assert workloads.run_rounds(workload, 0, min_rounds=1).failed == 0
    workload.ref["sweep"] = "0" * 64
    rounds = workloads.run_rounds(workload, 0, min_rounds=1)
    assert rounds.failed == 2  # explore and resweep; count and asym pass
    assert rounds.attempted == len(workload.kinds)


def test_seeds_change_inputs_not_metric_set(tmp_path):
    a = workloads.ComputePoolWorkload(0, float(SCALE), tmp_path)
    b = workloads.ComputePoolWorkload(1, float(SCALE), tmp_path)
    assert a.fractions != b.fractions and a.mc_seed != b.mc_seed
    names = [
        set(run_bench("--workload", "sweep_stock", "--seed", seed)[0]["metrics"])
        for seed in ("0", "1")
    ]
    assert names[0] == names[1] == set(spec_units("end_to_end"))
