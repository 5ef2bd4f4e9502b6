"""Smoke test of the benchmark at a tiny size.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: per-layer self times; together they cover every traced span exactly once
SELF_TIMES = (
    "stencils.self_s", "perturb.sample_s", "perturb.scaling_s",
    "oracle.self_s", "oracle.objective_s", "oracle.noise_s",
    "estimators.self_s", "newton.run_self_s", "newton.step_self_s",
    "newton.solve_s", "cubic.run_self_s", "cubic.step_self_s",
    "cubic.subproblem_s", "harness.self_s", "harness.csv_s",
)


def _run(*args: str, cwd: Path = ROOT, script: Path = RUN) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0

    declared = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert math.isfinite(metrics[m["name"]]["value"]), m["name"]
    if trace:
        self_sum = sum(metrics[name]["value"] for name in SELF_TIMES)
        assert 0 < self_sum <= metrics["trace.wall_s"]["value"]
    else:
        assert all(metrics[m["name"]]["value"] > 0 for m in declared)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = _run(
        "--workload", "newton-table", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "perfbench" / "run.py",
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_trace_skips_names_that_no_longer_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    gone = ("grdsa.newton", "renamed_away", "newton.renamed_away", None)
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (gone,))
    with tracer.Tracer() as t:
        import grdsa.newton

        assert hasattr(grdsa.newton.newton_step, "__wrapped__")
    assert t.skipped == ["grdsa.newton.renamed_away"]
    assert not hasattr(grdsa.newton.newton_step, "__wrapped__")
