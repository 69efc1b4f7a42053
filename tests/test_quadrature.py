"""Gauss-Hermite purity quadrature against a plain fixed-square midpoint reference."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import eval_laguerre

from qbath import observables as obs
from qbath.baths import (
    EquilibriumBath,
    NumberStateBath,
    sample_number_states,
)
from qbath.states import CatState, SqueezedDisplaced

SQUEEZED = SqueezedDisplaced(disp=0.5 - 0.1j, r=0.6, phi=0.3)
CAT = CatState(alpha=1.3 + 0.4j, beta=-0.8 - 0.6j)
EARLY = (2, 5)  # t = 0.8 and 2.0 on the 40 / 100 grids


def _midpoint_purity(p, i, bath, s, radius=12.0, n=320):
    """(1/pi) h^2 sum |chi|^2 over the n x n midpoint square [-radius, radius]^2.

    A number-state bath enters as the zero-temperature chi times
    prod_k L_{n_k}(|eta B_k^* - eta^* D_k|^2)^2.  Also returns the largest
    |chi|^2 on the outermost ring of cells, which must be negligible.
    """
    h = 2.0 * radius / n
    axis = -radius + (np.arange(n) + 0.5) * h
    eta = (axis[None, :] + 1j * axis[:, None]).ravel()
    if isinstance(bath, NumberStateBath):
        # independent of qbath.laguerre: scipy's Laguerre values, multiplied mode by mode
        chi2 = np.abs(obs.chi_eval(p, i, EquilibriumBath(math.inf), s, eta)) ** 2
        for k in np.nonzero(bath.n)[0]:
            x = np.abs(eta * np.conj(p.B[i, k]) - np.conj(eta) * p.D[i, k]) ** 2
            chi2 = chi2 * eval_laguerre(int(bath.n[k]), x) ** 2
    else:
        chi2 = np.abs(obs.chi_eval(p, i, bath, s, eta)) ** 2
    edge = np.maximum(np.abs(eta.real), np.abs(eta.imag)) > radius - h
    return float(chi2.sum() * h * h / math.pi), float(chi2[edge].max())


def _singly_occupied(p):
    occ = np.zeros(p.n_modes, dtype=int)
    occ[::5] = 1
    return NumberStateBath(occ)


def _sampled(p):
    return NumberStateBath(sample_number_states(1.0, p.model, 3, 1).n[0])


CASES = {
    "squeezed-number": (_singly_occupied, SQUEEZED),
    "squeezed-thermal": (lambda p: EquilibriumBath(1.0), SQUEEZED),
    "cat-thermal": (lambda p: EquilibriumBath(1.0), CAT),
    "cat-sampled-number": (_sampled, CAT),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("model", ["ohmic_rwa", "ohmic_pp"])
def test_gauss_hermite_matches_midpoint_reference(request, plateau_index, model, case):
    p = request.getfixturevalue(model)
    make_bath, s = CASES[case]
    bath = make_bath(p)
    for i in (*EARLY, plateau_index(p)):
        ref, edge = _midpoint_purity(p, i, bath, s)
        assert edge < 1e-20
        assert abs(obs.purity(p, i, bath, s, method="quadrature") - ref) < 1e-12, i


def test_gaussian_state_rule_is_exact_at_the_degree_count(ohmic_rwa, ohmic_pp, plateau_index):
    # prod_k L_{n_k}^2 has degree 4 sum_k n_k, so 2 sum_k n_k + 1 nodes integrate it exactly
    for p in (ohmic_rwa, ohmic_pp):
        occ = np.zeros(p.n_modes, dtype=int)
        occ[::9] = 2
        occ[3] = 3
        occs = occ[None]
        zero_t = EquilibriumBath(math.inf)
        exact = 2 * int(occ.sum()) + 1
        for i in (*EARLY, plateau_index(p)):
            whiten, scale = obs._whitened(p, i, SQUEEZED, zero_t)
            at, above = (
                obs._level(p, i, SQUEEZED, zero_t, whiten, n, occs)(slice(None))[0] * scale
                for n in (exact, exact + 8)
            )
            assert abs(at - above) < 1e-13
            assert abs(obs.purity(p, i, NumberStateBath(occ), SQUEEZED) - at) < 1e-13


def test_empty_number_bath_equals_closed_zero_temperature_purity(ohmic_rwa, ohmic_pp):
    for p in (ohmic_rwa, ohmic_pp):
        empty = NumberStateBath(np.zeros(p.n_modes, dtype=int))
        zero_t = EquilibriumBath(math.inf)
        for i in (0, *EARLY, 60, -1):
            closed = obs.purity(p, i, zero_t, SQUEEZED, method="closed")
            assert abs(obs.purity(p, i, empty, SQUEEZED) - closed) < 1e-14
            # a cat against the empty bath is the cat against the zero-temperature bath
            assert obs.purity(p, i, empty, CAT) == obs.purity(p, i, zero_t, CAT)


def test_node_table_at_the_cap_is_finite_and_normalized():
    y, wt = obs._hermite_table(obs.MAX_NODES)
    assert obs.MAX_NODES == 256 and y.shape == wt.shape == (256,)
    assert np.isfinite(y).all() and np.isfinite(wt).all() and (wt > 0.0).all()
    assert abs(np.sum(wt * np.exp(-y * y)) - math.sqrt(math.pi)) < 1e-13
    assert obs._hermite_table(obs.MAX_NODES) is obs._hermite_table(obs.MAX_NODES)


def test_import_leaves_numpy_polynomial_unloaded():
    # the node table imports hermgauss on first use, not at import
    import qbath

    src = str(Path(qbath.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, qbath; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env,
        timeout=120,
    )
    assert out.stdout.strip() == "False"


def test_level_rows_equal_one_member_levels_bitwise(ohmic_rwa, ohmic_pp, plateau_index):
    # a member's level sum does not depend on the members it is summed with
    zero_t = EquilibriumBath(math.inf)
    for p in (ohmic_rwa, ohmic_pp):
        i = plateau_index(p)
        occs = sample_number_states(1.0, p.model, 21, 40).n
        occs[5] = 0
        whiten, _ = obs._whitened(p, i, SQUEEZED, zero_t)
        level = obs._level(p, i, SQUEEZED, zero_t, whiten, 33, occs)
        whole = level(slice(None))
        assert np.isfinite(whole).all()
        for m in range(occs.shape[0]):
            alone = obs._level(p, i, SQUEEZED, zero_t, whiten, 33, occs[m : m + 1])
            assert whole[m] == level([m])[0] == alone(slice(None))[0], m


def test_member_purities_memory_does_not_grow_with_members(ohmic_rwa, plateau_index):
    p = ohmic_rwa
    i = plateau_index(p)
    peaks = []
    for count in (100, 800):
        members = sample_number_states(2.0, p.model, 5, count)
        tracemalloc.start()
        try:
            obs.member_purities(p, i, members, SQUEEZED)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks
