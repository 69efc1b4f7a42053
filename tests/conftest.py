import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qbath import TimeGrid, compute_propagator, stock_model
from qbath.propagator import plateau_window

try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without hypothesis
    pass
else:
    # fixed examples and no example database keep the suite deterministic
    settings.register_profile("qbath", derandomize=True, database=None, max_examples=100,
                              deadline=None)
    settings.load_profile("qbath")

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def load_sample_config(name):
    """A fresh copy of the run-config document configs/<name>.json."""
    return json.loads((CONFIG_DIR / f"{name}.json").read_text())


@pytest.fixture
def sample_config():
    return load_sample_config


@pytest.fixture
def sample_config_names():
    return sorted(path.stem for path in CONFIG_DIR.glob("*.json"))


@pytest.fixture
def run_python():
    """Standard output of code run by a fresh interpreter that imports this qbath."""
    import qbath

    src = str(Path(qbath.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def run(code: str) -> str:
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env,
            timeout=120,
        )
        return out.stdout.strip()

    return run


@pytest.fixture(scope="session")
def rwa_n1():
    # grid step 0.05 keeps the generator singularity t = pi/0.7 off-grid
    return compute_propagator(stock_model("rwa-n1-resonant"), TimeGrid.linspace(9.0, 180))


@pytest.fixture(scope="session")
def ohmic_rwa():
    return compute_propagator(stock_model("ohmic-rwa-n64"), TimeGrid.linspace(40.0, 100))


@pytest.fixture(scope="session")
def ohmic_pp():
    return compute_propagator(stock_model("ohmic-pp-n64"), TimeGrid.linspace(40.0, 100))


@pytest.fixture(scope="session")
def flat_custom():
    return compute_propagator(stock_model("flat-custom-n128"), TimeGrid.linspace(100.0, 500))


@pytest.fixture(scope="session")
def plateau_index():
    def pick(p):
        i0, i1 = plateau_window(p)
        sup = np.maximum(np.abs(p.A[i0 : i1 + 1]), np.abs(p.C[i0 : i1 + 1]))
        return i0 + int(np.argmin(sup))

    return pick
