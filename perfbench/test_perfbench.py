"""The benchmark's own tests: tiny smoke runs and the output checker.

    python3 -m pytest perfbench -q
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
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(workload: str, trace: int, seed: int = 3) -> dict:
    proc = _run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)


def test_computed_counts_repeat_between_runs():
    first, second = (_result("cat-purity", 1)["metrics"] for _ in range(2))
    for name in ("propagator.decomp_work", "propagator.recon_work",
                 "observables.chi_eval.nodes", "observables.purity.calls"):
        assert first[name]["value"] == second[name]["value"] > 0


def test_layer_metrics_cover_the_spec():
    names = set(spans.LAYER_METRICS) | {"observables.nodes_per_purity", "cli.bytes_written",
                                        "trace.overhead_frac"}
    assert names == {m["name"] for m in SPEC["per_layer"]}


def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _write(out: Path, name: str, doc) -> None:
    out.mkdir(parents=True, exist_ok=True)
    text = doc if isinstance(doc, str) else json.dumps(doc)
    (out / name).write_text(text)


def _job_dir(tmp_path: Path, artifacts: dict) -> Path:
    out = tmp_path / "job"
    for name, doc in artifacts.items():
        _write(out, name, doc)
    _write(out, "manifest.json", {"artifacts": sorted(artifacts)})
    return out


def test_checker_counts_a_corrupted_sum_rule_as_a_failure(tmp_path):
    good = {"sup_sum_rule_defect": 3e-15, "late_sup_A": 0.01, "late_sup_C": 0.0,
            "recurrence_onset": None}
    out = _job_dir(tmp_path, {"propagate_summary.json": good})
    assert checks.check_job("propagate", 0, out, {}) == []
    _write(out, "propagate_summary.json", dict(good, sup_sum_rule_defect=1e-6))
    assert checks.check_job("propagate", 0, out, {})


def test_checker_counts_bad_exit_purity_and_ensemble_as_failures(tmp_path):
    assert checks.check_job("validate", 3, tmp_path, {})
    out = _job_dir(tmp_path, {"purity.csv": "t,purity\n0,1.0000000000000011\n1,0.7\n"})
    assert checks.check_job("purity", 0, out, {}) == []
    _write(out, "purity.csv", "t,purity\n0,1.01\n")
    assert checks.check_job("purity", 0, out, {})

    summary = {"kind": "number", "equilibrium_var_x": 1.0, "predicted_var_of_var_x": 0.1,
               "mean_var_x": {"estimate": 1.02, "std_error": 0.01},
               "population_var_of_var_x": {"estimate": 0.1, "std_error": 0.01}}
    out = _job_dir(tmp_path, {"ensemble_summary.json": summary})
    assert checks.check_job("ensemble", 0, out, {}) == []
    summary["mean_var_x"]["estimate"] = 1.05  # five standard errors off
    _write(out, "ensemble_summary.json", summary)
    assert checks.check_job("ensemble", 0, out, {})


def test_checker_counts_missing_artifacts_as_a_failure(tmp_path):
    out = _job_dir(tmp_path, {"validate.json": {"stable": True}})
    assert checks.check_job("validate", 0, out, {}) == []
    (out / "validate.json").unlink()
    assert checks.check_job("validate", 0, out, {})
