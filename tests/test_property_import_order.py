"""Property tests give the same verdicts whatever local modules are imported first.

Hypothesis mixes the literal constants of the local modules loaded in the process
into its draws, so the examples of a property test depend on what earlier tests
imported.  This runs the property tests in a fresh interpreter that first imports
every module of src/qbath, tools and perfbench.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

ROOT = Path(__file__).resolve().parents[1]
PROPERTY_FILES = [Path(__file__).with_name(name)
                  for name in ("test_propagator_properties.py", "test_config_fuzz.py")]

IMPORT_EVERYTHING = f"""
import importlib, sys
from pathlib import Path
root = Path({str(ROOT)!r})
sys.path[:0] = [str(root / "src"), str(root / "tools"), str(root / "perfbench")]
for path in sorted((root / "src" / "qbath").glob("*.py")):
    importlib.import_module("qbath" if path.stem == "__init__" else "qbath." + path.stem)
for folder in ("tools", "perfbench"):
    for path in sorted((root / folder).glob("*.py")):
        if not path.stem.startswith("test_"):
            importlib.import_module(path.stem)
import pytest
sys.exit(pytest.main([*{[str(path) for path in PROPERTY_FILES]!r}, "-q", "-rA",
                      "-p", "no:cacheprovider"]))
"""


def test_property_tests_pass_after_every_local_module_is_imported():
    tests = {f"{path.name}::{node.name}" for path in PROPERTY_FILES
             for node in ast.parse(path.read_text()).body
             if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}
    out = subprocess.run([sys.executable, "-c", IMPORT_EVERYTHING], capture_output=True,
                         text=True, cwd=ROOT, timeout=600)
    verdicts = {Path(line.split()[1]).name: line.split()[0] for line in out.stdout.splitlines()
                if line.startswith(("PASSED", "FAILED", "ERROR", "SKIPPED"))}
    assert verdicts == dict.fromkeys(tests, "PASSED"), out.stdout[-3000:]
