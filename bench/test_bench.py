"""Self-tests of the refinement-study bench, on reduced-level smoke runs.

Run from the repository root:  python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import layer_metrics, self_times, tail
from workloads import ERROR_RTOL, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--seconds", "1", "--levels", "2", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc, json.loads(last) if last.startswith("{") else None


def test_spec_lists_the_workloads_and_layer_predictions():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    layers = json.loads((BENCH / "layers.json").read_text())
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert set(layers["predictions"]) <= per_layer
    for pred in layers["predictions"].values():
        assert set(pred["moves"]) <= end_to_end
        assert set(pred["on"]) <= set(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_emits_every_end_to_end_metric(workload):
    proc, result = run_bench("--workload", workload, "--seed", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert all(result["metrics"][k]["value"] > 0 for k in ("study_s", "setup_s", "peak_rss_mb"))


def test_traced_smoke_emits_every_layer_metric_and_checks_coverage():
    proc, result = run_bench("--workload", "cd_gmres", "--seed", "4", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    record = json.loads((BENCH / "out" / "cd_gmres-seed4-trace1.json").read_text())
    assert record["coverage_ok"]
    assert [p["kind"] for p in record["samples"]["passes"]][:2] == ["untraced", "traced"]
    spans = json.loads((BENCH / "out" / "cd_gmres-seed4-spans.json").read_text())
    assert spans["passes"] and spans["passes"][0]["spans"]
    m = result["metrics"]
    assert m["sparse.ilu_apply_calls"]["value"] > 0
    assert m["sparse.fallbacks"]["value"] == 0
    assert m["sparse.max_residual"]["value"] <= 1e-10


def test_perturbed_reference_error_fails_the_gate(tmp_path):
    ref = json.loads((BENCH / "reference.json").read_text())
    key = "convection_diffusion/tp3/p2/dt0.5/gmres"
    ref["studies"][key]["errors"][1] *= 1.0 + 10 * ERROR_RTOL
    perturbed = tmp_path / "reference.json"
    perturbed.write_text(json.dumps(ref))
    proc, result = run_bench(
        "--workload", "cd_gmres", "--seed", "5", "--trace", "0", "--reference", str(perturbed)
    )
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert f"{key} level 1" in proc.stdout


def test_runs_without_program_source_exit_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cd_gmres", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_times_partition_the_traced_wall_time():
    # assemble [0, 10] > step [1, 4] > matvec [2, 3]; assemble > eval [5, 6]
    spans = [
        ["operator.assemble", 0.0, 10.0, -1, "s", 0, None],
        ["timeint.step", 1.0, 4.0, 0, "s", 0, None],
        ["sparse.matvec", 2.0, 3.0, 1, "s", 0, None],
        ["basis.eval", 5.0, 6.0, 0, "s", 0, None],
        ["mesh.build", 10.5, 11.0, -1, "s", None, None],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0, 0.5]
    metrics, table = layer_metrics(spans, wall_s=12.0)
    assert table == {"basis.eval": 1.0, "mesh.build": 0.5, "operator.assemble": 6.0,
                     "sparse.matvec": 1.0, "timeint.step": 2.0}
    assert metrics["harness.unaccounted_s"] == pytest.approx(12.0 - 10.5)
    assert metrics["timeint.step_s"] == 3.0
    assert metrics["timeint.step_self_s"] == 2.0
    assert metrics["timeint.steps"] == 1


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert tail(list(range(19))) == (0.0, 0.0)
    assert tail(list(range(20)))[0] == 50.0
    assert tail(list(range(100)))[0] == 90.0
    assert tail(list(range(1000)))[0] == 99.0
