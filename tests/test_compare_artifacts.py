"""tools/compare_artifacts.py: artifact trees of two checkouts, file by file."""

import importlib.util
import json
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_artifacts.py"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_artifacts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checkout_compared_with_itself_is_identical():
    # CSV, JSON and the complex128 sidecar, from two sample configs
    out = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT),
         "--config", "propagate-ohmic-pp", "--config", "rwa-compare-squeezed"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[-1] == "4 of 4 data files identical", out.stdout
    assert all(line.endswith(": identical") for line in lines[:-1])
    assert any(line.startswith("configs/propagate-ohmic-pp/propagator_bd.bin") for line in lines)


def test_workload_propagate_jobs_also_write_their_rows(tmp_path, run_python):
    # spectral's propagate configs ask for json alone; the tool's copies add the CSV and
    # the sidecar, so the rows are compared too.  The jobs are listed in a fresh interpreter,
    # as the tool lists them: perfbench's modules stay out of the test process, whose
    # hypothesis examples draw on the constants of the modules loaded there
    listed = run_python(f"""
import importlib.util, json
from pathlib import Path
spec = importlib.util.spec_from_file_location("compare_artifacts", {str(TOOL)!r})
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
jobs = tool._jobs(Path({str(ROOT)!r}), ["propagate-ohmic-pp"], True, Path({str(tmp_path)!r}))
print(json.dumps([(name, json.loads(config.read_text())["outputs"]["formats"])
                  for name, sub, config in jobs if sub == "propagate"]))
""")
    propagate = json.loads(listed)
    assert any(name.startswith("spectral/seed-1/propagate-") for name, _ in propagate)
    for name, formats in propagate:
        assert {"csv", "sidecar"} <= set(formats), name
        if name.startswith("spectral/"):
            assert sorted(formats) == ["csv", "json", "sidecar"]


def test_differing_files_report_their_largest_relative_deviation(tmp_path):
    tool = _tool()
    trees = tmp_path / "a", tmp_path / "b"
    for tree, last in zip(trees, (0.25, 0.25 * (1 + 2e-15))):
        (tree / "job").mkdir(parents=True)
        (tree / "job" / "data.csv").write_text(f"t,x\n0,1\n1,{last!r}\n")
        (tree / "job" / "report.json").write_text(json.dumps({"n": 3, "values": [1.0, last]}))
        (tree / "job" / "side.bin").write_bytes(
            struct.pack("<QQ", 1, 1) + np.array([1 + last * 1j], dtype="<c16").tobytes())
        (tree / "job" / "manifest.json").write_text(json.dumps({"wall_time_s": last}))
    (trees[1] / "job" / "extra.csv").write_text("t\n0\n")
    (trees[1] / "job" / "report.json").write_text(json.dumps({"n": 3, "values": [1.0]}))
    verdicts = dict(tool.compare(*trees))
    assert verdicts.keys() == {"job/data.csv", "job/report.json", "job/side.bin", "job/extra.csv"}
    for name in ("job/data.csv", "job/side.bin"):
        assert verdicts[name].startswith("max relative deviation 1.9"), verdicts
        # the absolute deviation beside it: |0.25 - 0.25 (1 + 2e-15)|, 5e-16 to rounding
        assert verdicts[name].endswith(", max absolute deviation 4.996e-16"), verdicts
    assert verdicts["job/report.json"] == "differs in structure"
    assert verdicts["job/extra.csv"] == "only in B"


def test_rounding_level_zeros_read_small_absolute_deviations(tmp_path):
    # a sum-rule defect or a residual is zero up to rounding: its relative
    # deviation is O(1), its absolute one shows that it is rounding
    tool = _tool()
    trees = tmp_path / "a", tmp_path / "b"
    for tree, defect in zip(trees, (3.1e-15, -3.1e-15)):
        (tree / "job").mkdir(parents=True)
        (tree / "job" / "report.json").write_text(
            json.dumps({"sum_rule_defect": defect, "min_purity": 0.5}))
    verdict = dict(tool.compare(*trees))["job/report.json"]
    assert verdict == "max relative deviation 2.000e+00, max absolute deviation 6.200e-15"


def test_deviations_of_nan_and_infinite_entries():
    tool = _tool()
    same = np.array([np.nan, np.inf, 1.0])
    assert tool._deviations(same, same.copy()) == (0.0, 0.0)
    assert tool._deviations(np.array([np.nan, 1.0]), np.array([1.0, 1.0])) == (np.inf, np.inf)
    assert tool._deviations(np.array([np.inf]), np.array([-np.inf])) == (np.inf, np.inf)
    assert tool._deviations(np.array([0.0, 2.0]), np.array([1e-300, 3.0])) == (1.0, 1.0)
