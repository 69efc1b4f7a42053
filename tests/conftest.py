import json
import math
import os
import subprocess
import sys
from pathlib import Path

# qbath first: it pins the BLAS thread count, which OpenBLAS reads when numpy loads
import qbath
import numpy as np
import pytest

from qbath import TimeGrid, compute_propagator, load_config, propagator
from qbath.model import ModelSpec, dynamical_matrix
from qbath.propagator import decay_report

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


# The sample configs whose models are the stock models, one per coupling family and
# spectral recipe, each strictly stable:
#   validate-decoupled     zero coupling; pure phase rotation, no decay
#   purity-cat-vacuum      one resonant RWA mode, u = 0.35; closed-form coefficients,
#                          periodic revivals, generator singular at u t = pi/2
#   ensemble-number        narrow Ohmic band around resonance, RWA; the small |B_k|^4
#                          participation keeps finite-N ensemble statistics close to
#                          their N -> infinity limits
#   propagate-ohmic-pp     wide Ohmic band, position-position (v = u); C, D nonzero
#   propagate-flat-custom  128-mode flat band with explicit complex v_k; the densest
#                          spectrum and the latest recurrence
# The three N >= 64 models decay to a plateau well before their recurrence onset
# 2 pi / delta omega.
STOCK_CONFIGS = (
    "validate-decoupled",
    "purity-cat-vacuum",
    "ensemble-number",
    "propagate-ohmic-pp",
    "propagate-flat-custom",
)


def load_sample_config(name):
    """A fresh copy of the run-config document configs/<name>.json."""
    return json.loads((CONFIG_DIR / f"{name}.json").read_text())


def load_sample_model(name):
    """The validated model of the run config configs/<name>.json."""
    return load_config(CONFIG_DIR / f"{name}.json").model


@pytest.fixture
def sample_config():
    return load_sample_config


@pytest.fixture
def sample_config_names():
    return sorted(path.stem for path in CONFIG_DIR.glob("*.json"))


@pytest.fixture
def run_python():
    """Standard output of code run by a fresh interpreter that imports this qbath."""
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
def unstable_model():
    # strong position-position coupling to a soft mode drives the form negative
    return ModelSpec(1.0, omegas=[0.04], u=[0.35 + 0j], v=[0.35 + 0j], coupling_family="Custom")


@pytest.fixture
def no_cholesky(monkeypatch):
    """np.linalg.cholesky fails, as it does for a K that is positive-definite only in rounding."""

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)


@pytest.fixture(scope="session")
def eig_route_rows():
    """Reference rows e_a^T V exp(diag(lambda) t) V^{-1} from the general eig of M.

    It needs neither Hermitian structure nor stability, so it checks all
    three routes of compute_propagator independently; the t = 0 row is set
    to the exact identity, as there.
    """

    def rows(m, grid):
        lam, vecs = np.linalg.eig(dynamical_matrix(m))
        out = (np.exp(np.multiply.outer(grid.t, lam)) * vecs[0, :]) @ np.linalg.inv(vecs)
        out[0, :] = 0.0
        out[0, 0] = 1.0
        return out

    return rows


@pytest.fixture(scope="session")
def one_shot_phases():
    """The whole (T, n) phase table exp(i E t) of the grid times t, as one array.

    The reference of the propagator kernel's block fill, which must match it
    bit for bit: on a uniform grid, t[:-1] == arange(T - 1) * t[1] exactly,
    of at least PHASE_TABLE_MIN entries T n, cos and sin of b = ceil(sqrt(T))
    offsets and ceil((T - 1) / b) anchors, every row q b + r before the last
    the anchor t[q b] times the offset t[r], and the last row direct; on
    other grids and smaller tables, cos and sin of every phase.
    """

    def direct(t, freqs, table):
        phase = np.multiply.outer(t, freqs)
        np.cos(phase, out=table.real)
        np.sin(phase, out=table.imag)

    def phases(t, freqs):
        table = np.empty((t.size, freqs.size), dtype=complex)
        head = t.size - 1
        if table.size < propagator.PHASE_TABLE_MIN or not np.array_equal(
                t[:head], np.arange(head) * t[1:2]):
            direct(t, freqs, table)
            return table
        span = math.isqrt(head) + 1
        offsets = np.empty((min(span, head), freqs.size), dtype=complex)
        direct(t[: offsets.shape[0]], freqs, offsets)
        anchors = np.empty(((head + span - 1) // span, freqs.size), dtype=complex)
        direct(t[:head:span], freqs, anchors)
        full = head // span
        if full:
            np.multiply(anchors[:full, None], offsets,
                        out=table[: full * span].reshape(full, span, freqs.size))
        np.multiply(anchors[full:], offsets[: head - full * span], out=table[full * span : head])
        direct(t[head:], freqs, table[head:])
        return table

    return phases


@pytest.fixture(scope="session")
def one_shot_rows(one_shot_phases):
    """Rows of the propagator kernel's (n, 2, W) stack by one product over the whole table.

    A real stack [R_c,k; R_s,k] takes one real product each into the rows'
    real and imaginary parts, a complex stack [R_c,k; i R_s,k] one real
    product of the table's interleaved float view.
    """

    def rows(t, freqs, stack):
        table = one_shot_phases(t, freqs)
        out = np.empty((t.size, stack.shape[-1]), dtype=complex)
        if np.iscomplexobj(stack):
            np.matmul(table.view(np.float64), stack.reshape(2 * freqs.size, -1).view(np.float64),
                      out=out.view(np.float64))
        else:
            np.matmul(table.real, stack[:, 0], out=out.real)
            np.matmul(table.imag, stack[:, 1], out=out.imag)
        return out

    return rows


@pytest.fixture(scope="session")
def squeezed_reference_check():
    """Check purities against rwa.purity_squeezed_rwa within the reference's own conditioning.

    |pur - ref| <= 4 eps ref / min(s, 1 - s) on the rows with min(s, 1 - s) >=
    1e-3, s = |A|^2: the reference forms 1 - s, which carries the rounding of s
    relative to itself, so next to a revival (s = 1) it loses every digit.
    """

    def check(absA2, pur, ref):
        spread = np.minimum(absA2, 1.0 - absA2)
        rows = spread >= 1e-3
        assert rows.sum() > absA2.size // 2
        bound = 4.0 * np.finfo(float).eps / spread[rows] * ref[rows]
        assert np.all(np.abs(pur - ref)[rows] <= bound)

    return check


@pytest.fixture(scope="session")
def keyed_rng():
    """A fixed, independent generator for each (seed, k): a source of test draws.

    It is numpy's default_rng(SeedSequence(seed, spawn_key=(k,))), so tests
    that draw one bath per k keep their data whatever the ensemble samplers
    do (those draw every member from one default_rng(seed)).
    """

    def stream(seed, k):
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))

    return stream


@pytest.fixture(scope="session")
def rwa_n1():
    # grid step 0.05 keeps the generator singularity t = pi/0.7 off-grid
    return compute_propagator(load_sample_model("purity-cat-vacuum"), TimeGrid.linspace(9.0, 180))


@pytest.fixture(scope="session")
def ohmic_rwa():
    return compute_propagator(load_sample_model("ensemble-number"), TimeGrid.linspace(40.0, 100))


@pytest.fixture(scope="session")
def ohmic_pp():
    return compute_propagator(load_sample_model("propagate-ohmic-pp"),
                              TimeGrid.linspace(40.0, 100))


@pytest.fixture(scope="session")
def flat_custom():
    return compute_propagator(load_sample_model("propagate-flat-custom"),
                              TimeGrid.linspace(100.0, 500))


@pytest.fixture(scope="session")
def plateau_index():
    return lambda p: decay_report(p).probe
