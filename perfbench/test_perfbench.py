"""Smoke test of the benchmark itself: tiny inputs, every workload, both modes.

Checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit, that the output checks pass (recorded digests included), and that the
traced layer self times plus the residual add up to the traced wall.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    completed = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "0", "--seconds", "0",
            "--trace", str(trace), "--smoke",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    report = next(line for line in lines if line.startswith("report: "))
    return json.loads(lines[-1]), json.loads(report[len("report: "):])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_and_passes_checks(workload):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result, report = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, report["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert report["digests_recorded"], "no recorded digests for the smoke seed"
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            metric["name"]: metric["unit"] for metric in declared
        }
        if trace:
            layers = report["layers"]
            wall = layers["wall_s"]
            named = sum(s for layer, s in layers["self_s"].items() if layer != "simulation")
            residual = result["metrics"]["simulation.residual_frac"]["value"] * wall
            assert named + residual == pytest.approx(wall, rel=1e-9)
            assert result["metrics"]["fleet.supervisor.retries"]["value"] == 0
            assert result["metrics"]["fleet.supervisor.recoveries"]["value"] == 0
