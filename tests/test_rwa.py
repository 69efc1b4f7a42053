"""Closed-form purity references for number-conserving couplings."""

import math
from pathlib import Path

import numpy as np
import pytest

from qbath import rwa
from qbath.baths import EquilibriumBath
from qbath.errors import ParameterError
from qbath.observables import purity
from qbath.states import CatState, SqueezedDisplaced, coherent_overlap

from conftest import load_sample_model


def test_squeezed_reference_values():
    # half survival at r = 1: 1 / sqrt(1 + sinh(1)^2) = 1 / cosh(1)
    assert rwa.purity_squeezed_rwa(0.5, 1.0) == pytest.approx(
        1.0 / math.cosh(1.0), abs=1e-15
    )
    assert rwa.purity_squeezed_rwa(0.5, 1.0) == pytest.approx(0.6480542736638855, abs=1e-15)
    assert rwa.purity_squeezed_rwa(0.0, 1.7) == 1.0
    assert rwa.purity_squeezed_rwa(1.0, 1.7) == 1.0
    assert rwa.purity_squeezed_rwa(0.3, 0.0) == 1.0


def test_squeezed_symmetry_and_monotonicity():
    for s in np.linspace(0.0, 1.0, 41):
        assert rwa.purity_squeezed_rwa(s, 0.8) == pytest.approx(
            rwa.purity_squeezed_rwa(1.0 - s, 0.8), abs=1e-15
        )
    # purity decreases with squeezing and bottoms out at s = 1/2
    vals_r = [rwa.purity_squeezed_rwa(0.4, r) for r in (0.0, 0.5, 1.0, 2.0)]
    assert all(a > b for a, b in zip(vals_r, vals_r[1:]))
    vals_s = [rwa.purity_squeezed_rwa(s, 1.0) for s in (0.5, 0.35, 0.2, 0.05)]
    assert all(a < b for a, b in zip(vals_s, vals_s[1:]))


def test_cat_reference_shape():
    a, b = 1.1 + 0.3j, -0.9 + 0.1j
    for s in np.linspace(0.0, 1.0, 41):
        val = rwa.purity_cat_rwa(s, a, b)
        assert val >= 0.5 - 1e-9
        assert val <= 1.0 + 1e-12
        assert val == pytest.approx(rwa.purity_cat_rwa(1.0 - s, a, b), abs=1e-14)
    assert rwa.purity_cat_rwa(0.0, a, b) == pytest.approx(1.0, abs=1e-14)
    assert rwa.purity_cat_rwa(1.0, a, b) == pytest.approx(1.0, abs=1e-14)
    # identical components: an ordinary coherent state stays pure
    assert rwa.purity_cat_rwa(0.37, 0.8j, 0.8j) == pytest.approx(1.0, abs=1e-13)
    # well-separated components approach the statistical-mixture floor
    assert rwa.purity_cat_rwa(0.5, 4.0, -4.0) == pytest.approx(0.5, abs=1e-4)


def test_cat_half_survival_overlap_form():
    # at s = 1/2: P = 1 - (1 - R)^2 / (2 (1 + R cos phi)^2), with <alpha|beta> = R e^{i phi}
    for a, b in ((1.1 + 0.3j, -0.9 + 0.1j), (0.6, 0.6 + 1.2j), (2.0, -1.0 + 0.5j)):
        ov = coherent_overlap(a, b)
        r, phi = abs(ov), math.atan2(ov.imag, ov.real)
        expected = 1.0 - (1.0 - r) ** 2 / (2.0 * (1.0 + r * math.cos(phi)) ** 2)
        assert rwa.purity_cat_rwa(0.5, a, b) == pytest.approx(expected, abs=1e-13)


def test_survival_argument_validation():
    for bad in (-0.01, 1.01, math.nan):
        with pytest.raises(ParameterError):
            rwa.purity_squeezed_rwa(bad, 1.0)
        with pytest.raises(ParameterError):
            rwa.purity_cat_rwa(bad, 1.0, -1.0 + 0.2j)
    for alpha, beta in ((1e155, 0.0), (0.0, 1e155j), (1e154, -1e154)):
        with pytest.raises(ParameterError, match="float range"):
            rwa.purity_cat_rwa(0.5, alpha, beta)


def test_pipeline_matches_squeezed_reference(rwa_n1):
    # vacuum bath, number-conserving coupling: quadrature purity along the
    # trajectory against the closed form in s = |A(t)|^2
    p = rwa_n1
    s_state = SqueezedDisplaced(disp=0.4 - 0.3j, r=0.9, phi=0.7)
    bath = EquilibriumBath(math.inf)
    for i in (0, 12, 31, 50, 70):
        absA2 = abs(p.A[i]) ** 2
        closed = purity(p, i, bath, s_state, method="closed")
        assert abs(closed - rwa.purity_squeezed_rwa(absA2, 0.9)) < 1e-12
        quad = purity(p, i, bath, s_state, method="quadrature", tol=1e-9)
        assert abs(quad - rwa.purity_squeezed_rwa(absA2, 0.9)) < 1e-7


@pytest.mark.parametrize("r", [6.0, 9.0, 9.25, 12.0, 20.0])
def test_closed_purity_of_strong_squeezing_matches_squeezed_reference(rwa_n1, r,
                                                                      squeezed_reference_check):
    # the carried a and |g| grow as e^{2r}: a^2 - 4|g|^2 formed from them cancelled to
    # rounding, lost digits from r ~ 5 and was not positive from r = 9.25
    p = rwa_n1
    s_state = SqueezedDisplaced(disp=0.7 - 0.4j, r=r, phi=1.1)
    pur = purity(p, slice(None), EquilibriumBath(math.inf), s_state)
    absA2 = np.abs(p.A) ** 2
    ref = np.array([rwa.purity_squeezed_rwa(min(s, 1.0), r) for s in absA2])
    squeezed_reference_check(absA2, pur, ref)


def test_pipeline_matches_cat_reference(rwa_n1):
    p = rwa_n1
    cat = CatState(1.3 + 0.4j, -0.8 - 0.6j)
    bath = EquilibriumBath(math.inf)
    for i in (0, 12, 31, 50, 70):
        absA2 = abs(p.A[i]) ** 2
        quad = purity(p, i, bath, cat, tol=1e-9)
        assert abs(quad - rwa.purity_cat_rwa(absA2, cat.alpha, cat.beta)) < 1e-7


def test_min_purity_check_on_trajectory(rwa_n1):
    p = rwa_n1
    absA2 = np.abs(p.A) ** 2
    pur = np.array([rwa.purity_squeezed_rwa(s, 1.0) for s in absA2])
    report = rwa.min_purity_check(pur, absA2)
    # minimum sits at |A|^2 = 1/2 up to grid resolution in s
    ds = float(np.max(np.abs(np.diff(absA2))))
    assert abs(report.absA2_min - 0.5) <= ds
    assert report.purity_min == pytest.approx(1.0 / math.cosh(1.0), abs=1e-4)
    # interpolation-limited on this grid; exact mirror pairs are checked below
    assert report.symmetry_defect < 1e-5
    assert report.index_min == int(np.argmin(pur))


def test_symmetry_exact_on_mirrored_grid():
    # cos^2(u t) and cos^2(pi/2 - u t) sum to one, so a grid symmetric about
    # u t = pi/4 pairs every survival value with its mirror exactly
    from qbath import TimeGrid, compute_propagator

    m = load_sample_model("purity-cat-vacuum")
    u = float(np.real(m.u[0]))
    p = compute_propagator(m, TimeGrid.linspace(math.pi / (2.0 * u), 80))
    absA2 = np.abs(p.A) ** 2
    assert np.max(np.abs(absA2 + absA2[::-1] - 1.0)) < 1e-12
    pur = np.array([rwa.purity_squeezed_rwa(s, 1.3) for s in absA2])
    assert np.max(np.abs(pur - pur[::-1])) < 1e-12


def test_min_purity_check_constant_series():
    pur = np.full(7, 0.83)
    report = rwa.min_purity_check(pur, np.full(7, 0.6))
    assert report.symmetry_defect == 0.0
    assert report.purity_min == 0.83
    with pytest.raises(ParameterError):
        rwa.min_purity_check(np.ones(3), np.ones(4))


def test_import_leaves_scipy_interpolate_unloaded(run_python):
    code = "import sys, qbath; print('scipy.interpolate' in sys.modules)"
    assert run_python(code) == "False"


def test_rwa_compare_leaves_scipy_interpolate_unloaded(tmp_path, run_python):
    # min_purity_check interpolates with its own monotone cubic, not scipy's
    config = Path(__file__).resolve().parents[1] / "configs" / "rwa-compare-squeezed.json"
    code = (
        "import sys; from qbath.cli import main; "
        f"rc = main(['rwa-compare', '--config', {str(config)!r}, '--out', {str(tmp_path)!r}]); "
        "print(rc, 'scipy.interpolate' in sys.modules)"
    )
    assert run_python(code) == "0 False"
    assert (tmp_path / "rwa_compare_report.json").exists()


@pytest.mark.parametrize("seed", range(6))
def test_monotone_cubic_matches_scipy_pchip(seed):
    from scipy.interpolate import PchipInterpolator

    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    x = np.cumsum(rng.uniform(0.01, 1.0, n))
    for y in (
        np.cumsum(rng.uniform(0.0, 1.0, n)),  # monotone, with flat steps below
        np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 1.0, n)).cumsum(),
        rng.normal(size=n),  # not monotone
        np.sin(3.0 * x),
    ):
        s = np.concatenate([rng.uniform(x[0], x[-1], 200), x, [x[0] - 0.1, x[-1] + 0.1]])
        ref = PchipInterpolator(x, y)(s)
        assert np.max(np.abs(rwa._pchip(x, y, s) - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_first_min_index_takes_the_first_of_tied_minima():
    low = 0.6977946411003325
    tied = np.array([1.0, low, 0.9, low, 1.0])
    assert rwa.first_min_index(tied) == 1
    # round-off one ulp below the first minimum must not move the index
    later_lower = np.array([1.0, low, 0.9, np.nextafter(low, 0.0), 1.0])
    assert int(np.argmin(later_lower)) == 3
    assert rwa.first_min_index(later_lower) == 1
    surv = np.array([1.0, 0.5, 0.7, 0.5, 1.0])
    assert rwa.min_purity_check(later_lower, surv).index_min == 1
    # a value above the tolerance band is not a tie
    apart = np.array([1.0, low + 1e-9, 0.9, low, 1.0])
    assert rwa.first_min_index(apart) == 3
