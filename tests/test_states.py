"""Initial oscillator states: moments, characteristic functions, derivatives."""

import math
import warnings

import numpy as np
import pytest

from qbath import states
from qbath.errors import ParameterError, PhysicalityError

SQUEEZED = states.SqueezedDisplaced(disp=0.5 - 0.1j, r=0.6, phi=0.3)
CAT = states.CatState(alpha=1.3 + 0.4j, beta=-0.8 - 0.6j)


def _grid():
    re, im = np.meshgrid(np.linspace(-1.5, 1.5, 11), np.linspace(-1.5, 1.5, 11))
    return (re + 1j * im).ravel()


def test_gaussian_physicality_guard():
    states.GaussianMoments(0.0, 0.2, 0.0)
    with pytest.raises(PhysicalityError):
        states.GaussianMoments(0.0, -0.1, 0.0)
    # |c_aa| exceeds sqrt((n_c+1/2)^2 - 1/4) for the stated occupation
    with pytest.raises(PhysicalityError):
        states.GaussianMoments(0.0, 0.2, 0.5 - 0.04j)
    # boundary case (pure squeezed) passes: |c_aa|^2 = (n_c+1/2)^2 - 1/4
    sh, ch = math.sinh(0.4), math.cosh(0.4)
    states.GaussianMoments(0.0, sh * sh, sh * ch)
    # same central moments pass once the mean is shifted out
    states.GaussianMoments(0.3, 0.09 + 0.2, 0.09)
    with pytest.raises(ParameterError):
        states.SqueezedDisplaced(r=-0.2)
    # overlap -1 within rounding: |alpha - beta| tiny with phase pi accumulated
    with pytest.raises(ParameterError):
        states.CatState(math.pi * 1e8, math.pi * 1e8 + 1e-8j)


def test_pure_squeezed_states_pass_the_bound_at_every_r():
    # a pure state sits on the covariance bound, whose rounding grows with
    # (n_c + 1/2)^2 ~ exp(4 r) / 16: the check is relative to it
    for r in np.linspace(0.0, 40.0, 4001):
        states.SqueezedDisplaced(disp=0.3 + 0.1j, r=float(r), phi=0.7)
    # a state a relative 1e-9 inside the bound is still refused
    sh, ch = math.sinh(20.0), math.cosh(20.0)
    with pytest.raises(PhysicalityError):
        states.GaussianMoments(0.0, sh * sh, sh * ch * (1.0 + 1e-9))


@pytest.mark.parametrize("r", [200.0, 400.0, 800.0])
def test_squeezing_whose_moments_overflow_is_refused(r):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="overflow"):
            states.SqueezedDisplaced(disp=0.3 + 0.1j, r=r, phi=0.7)
    with pytest.raises(ParameterError, match="overflow"):
        states.GaussianMoments(1e160, 1e200, 0.0)


@pytest.mark.parametrize("alpha, beta", [
    (1e200, 0.0),  # |alpha|^2 past the float range
    (1.5e308 + 1.5e308j, 0.0),  # |alpha| itself past it
    (1e154, -1e154),  # |alpha|^2 finite, |alpha - beta|^2 not
    (math.nan, 0.0),
])
def test_cat_lobes_past_the_float_range_are_refused(alpha, beta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="float range"):
            states.CatState(alpha, beta)
    assert states.CatState(1e153, -1e153).norm_sq == 2.0  # far apart, in range


@pytest.mark.parametrize("disp", [
    1.4e154,  # |disp|^2 past the float range
    1e300j,
    1.5e308 + 1.5e308j,  # |disp| itself past it
    math.nan,
])
def test_displacement_past_the_float_range_is_refused(disp):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="displacement past the float range"):
            states.SqueezedDisplaced(disp=disp, r=0.6, phi=0.3)
    assert states.SqueezedDisplaced(disp=1e154, r=0.6).moments.mean_a == 1e154  # in range


def test_vacuum_chi0():
    w = _grid()
    vac = states.vacuum_state()
    assert np.max(np.abs(states.chi0_eval(vac, w) - np.exp(-0.5 * np.abs(w) ** 2))) < 1e-14


def test_chi0_frozen_values():
    # brute-force Fock-space expectations of the displacement operator
    got = states.chi0_eval(SQUEEZED, np.array([0.37 - 0.21j]))[0]
    assert abs(got - (8.4812903580868160e-01 - 1.1606199363949921e-01j)) < 1e-12
    got = states.chi0_eval(CAT, np.array([-0.15 + 0.62j]))[0]
    assert abs(got - (1.3604259828097703e-01 + 3.1754181781184401e-02j)) < 1e-12


def test_cat_frozen_moments():
    mean_a, n_ex, aa = states.initial_moments(CAT)
    assert abs(mean_a - (2.3599565405390771e-01 - 7.0590873513205643e-02j)) < 1e-13
    assert abs(n_ex - 1.2591970395874594e+00) < 1e-13
    assert abs(aa - (9.0387965232431311e-01 + 1.0175054324326160e+00j)) < 1e-13


def test_chi0_bounded_and_hermitian():
    w = _grid()
    for s in (SQUEEZED, CAT, states.GaussianMoments(0.2 + 0.1j, 0.4, 0.02j)):
        vals = states.chi0_eval(s, w)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12
        flipped = states.chi0_eval(s, -w)
        assert np.max(np.abs(flipped - np.conj(vals))) < 1e-13
        assert states.chi0_eval(s, np.array([0.0j]))[0] == pytest.approx(1.0, abs=1e-14)


SAMPLE_CAT = states.CatState(alpha=1.36, beta=np.exp(2.8j))  # configs/purity-cat-vacuum.json


def _disc(radius, count=4000):
    """w = 0 and count points drawn uniformly from the disc |w| <= radius."""
    rng = np.random.default_rng(round(radius))
    w = radius * np.sqrt(rng.uniform(size=count)) * np.exp(2j * np.pi * rng.uniform(size=count))
    return np.append(w, 0.0)


def _four_exponentials(s, w):
    """A cat's chi0 as four complex exponentials, and the sum of their moduli."""
    total, moduli = 0.0, 0.0
    for g in (s.alpha, s.beta):
        for d in (s.alpha, s.beta):
            term = states.coherent_overlap(g, d) * np.exp(
                -0.5 * np.abs(w) ** 2 + np.conj(g) * w - d * np.conj(w))
            total, moduli = total + term, moduli + np.abs(term)
    return total / s.norm_sq, moduli / s.norm_sq


def test_cat_chi0_is_hermitian_and_equals_four_exponentials():
    for s in (CAT, SAMPLE_CAT):
        for radius in (1.0, 5.0, 10.0, 20.0, 30.0):
            w = _disc(radius)
            vals = states.chi0_eval(s, w)
            # chi0(0) = 1 is the largest modulus
            assert np.max(np.abs(states.chi0_eval(s, -w) - np.conj(vals))) <= 1e-15
            # the terms can cancel, so the scale is the sum of their moduli; the real
            # exponent is summed in the reference's order, which far out sets the last bits
            ref, moduli = _four_exponentials(s, w)
            assert np.max(np.abs(vals - ref) / moduli) <= 1e-14, radius


def test_cat_chi0_far_out_is_finite_and_quiet():
    w = 40.0 * np.exp(2j * np.pi * np.linspace(0.0, 1.0, 1001))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for s in (CAT, SAMPLE_CAT):
            for out in (states.chi0_eval(s, w), *states.chi0_wirtinger(s, w)):
                assert np.isfinite(out).all()


def test_degenerate_cat_is_coherent():
    cat = states.CatState(0.7 - 0.2j, 0.7 - 0.2j)
    w = _grid()
    coh = states.GaussianMoments(0.7 - 0.2j, abs(0.7 - 0.2j) ** 2, (0.7 - 0.2j) ** 2)
    assert np.max(np.abs(states.chi0_eval(cat, w) - states.chi0_eval(coh, w))) < 1e-13
    mean_a, n_ex, aa = states.initial_moments(cat)
    assert mean_a == pytest.approx(0.7 - 0.2j, abs=1e-14)
    assert n_ex == pytest.approx(abs(0.7 - 0.2j) ** 2, abs=1e-14)


def test_coherent_overlap():
    g, d = 0.9 + 0.3j, -0.4 + 1.1j
    ov = states.coherent_overlap(g, d)
    assert abs(ov) == pytest.approx(math.exp(-0.5 * abs(g - d) ** 2), rel=1e-13)
    assert states.coherent_overlap(g, g) == pytest.approx(1.0, abs=1e-14)


def test_squeezed_moments_closed_form():
    mom = SQUEEZED.to_gaussian_moments()
    sh, ch = math.sinh(0.6), math.cosh(0.6)
    assert mom.mean_a == 0.5 - 0.1j
    assert mom.n_ex == pytest.approx(abs(0.5 - 0.1j) ** 2 + sh**2, rel=1e-14)
    assert mom.aa == pytest.approx((0.5 - 0.1j) ** 2 - np.exp(0.6j) * sh * ch, rel=1e-14)
    # pure state sits exactly on the covariance bound
    n_c, c_aa = states.central_moments(SQUEEZED)
    assert (n_c + 0.5) ** 2 == pytest.approx(0.25 + abs(c_aa) ** 2, rel=1e-12)


def test_squeezed_state_keeps_its_central_moments_at_any_displacement():
    # n_ex - |disp|^2 and aa - disp^2 cancel for a large displacement; the state keeps
    # sinh^2 r and -e^{2 i phi} sinh r cosh r, and the bound is checked on them
    sh, ch = math.sinh(0.9), math.cosh(0.9)
    central = (sh * sh, -complex(math.cos(2.2), math.sin(2.2)) * sh * ch)
    for size in (0.0, 1.0, 1e2, 1e3, 1e4, 1e5, 1e6, 1e8):
        s = states.SqueezedDisplaced(disp=size * (0.6 + 0.8j), r=0.9, phi=1.1)
        assert states.central_moments(s) == central, size
        assert states.gaussian_chi_params(s)[1:] == (central[0] + 0.5, central[1] / 2.0), size


def test_raw_moments_are_centered_by_subtraction():
    mean = 0.3 + 0.2j
    mom = states.GaussianMoments(mean_a=mean, n_ex=1.5 + 0.13, aa=mean**2 + 0.4j)
    assert states.central_moments(mom) == (1.5 + 0.13 - abs(mean) ** 2, mean**2 + 0.4j - mean**2)


def test_wirtinger_derivatives_match_finite_differences():
    w0 = np.array([0.31 - 0.47j, -0.62 + 0.18j])
    h = 1e-6
    for s in (SQUEEZED, CAT):
        val, dw, dwb = states.chi0_wirtinger(s, w0)
        assert np.max(np.abs(val - states.chi0_eval(s, w0))) < 1e-14
        # Wirtinger: d/dw = (d/dx - i d/dy)/2, d/dw* = (d/dx + i d/dy)/2
        fx = (states.chi0_eval(s, w0 + h) - states.chi0_eval(s, w0 - h)) / (2 * h)
        fy = (states.chi0_eval(s, w0 + 1j * h) - states.chi0_eval(s, w0 - 1j * h)) / (2 * h)
        assert np.max(np.abs(dw - 0.5 * (fx - 1j * fy))) < 1e-8
        assert np.max(np.abs(dwb - 0.5 * (fx + 1j * fy))) < 1e-8


@pytest.mark.parametrize("r", [0.0, 0.9, 9.25, 40.0])
def test_gaussian_chi_discriminant_of_a_pure_state_is_a_quarter(r):
    # a0^2 - 4|g0|^2 from the moments cancels to rounding in e^{4r}; the state gives it exactly
    s = states.SqueezedDisplaced(disp=0.7 - 0.4j, r=r, phi=1.1)
    assert states.gaussian_chi_discriminant(s) == 0.25


def test_gaussian_chi_discriminant_of_moments():
    thermal = states.GaussianMoments(mean_a=0.3 + 0.2j, n_ex=1.5 + 0.13, aa=(0.3 + 0.2j) ** 2)
    assert states.gaussian_chi_discriminant(thermal) == pytest.approx(2.0**2, rel=1e-15)
    assert states.gaussian_chi_discriminant(states.vacuum_state()) == 0.25
    mixed = states.GaussianMoments(n_ex=2.0, aa=1.5)
    assert states.gaussian_chi_discriminant(mixed) == pytest.approx(2.5**2 - 1.5**2, rel=1e-15)


def test_gaussian_chi_params_rejects_cat():
    with pytest.raises(ParameterError):
        states.gaussian_chi_params(CAT)
    assert states.is_gaussian(SQUEEZED)
    assert not states.is_gaussian(CAT)
