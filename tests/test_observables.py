"""Reduced-state observables: frozen references, moment identities, purity paths."""

import math

import numpy as np
import pytest
from scipy.special import eval_laguerre, i0e

from qbath import mastereq as me
from qbath import observables as obs
from qbath.baths import (
    CoherentStateBath,
    EquilibriumBath,
    NumberStateBath,
    bath_sums,
    occupation,
    sample_coherent_states,
    sample_number_states,
    delta_correlations,
)
from qbath.errors import ParameterError
from qbath.model import ModelSpec
from qbath.propagator import TimeGrid, compute_propagator, row_slice
from qbath.states import CatState, SqueezedDisplaced, chi0_eval, vacuum_state

from conftest import load_sample_model

ETAS = np.array([0.5 + 0.2j, -0.3 + 0.7j])
SQUEEZED = SqueezedDisplaced(disp=0.5 - 0.1j, r=0.6, phi=0.3)
CAT = CatState(alpha=1.3 + 0.4j, beta=-0.8 - 0.6j)

# frozen references from a dense-Fock-basis evolution of oscillator plus mode,
# chi = Tr[rho_osc D(eta)] with the bath traced out
CASE1_CHI = np.array(
    [
        7.202585773550810e-01 + 4.123047507097496e-01j,
        5.001475281121617e-01 + 2.530429174464351e-02j,
    ]
)
CASE2_CHI = np.array(
    [
        5.356254556722860e-01 + 1.298333942749565e-01j,
        3.598220428740465e-01 + 1.482072569362153e-02j,
    ]
)
CASE2_PURITY = 4.424650687653134e-01
CASE3_CHI = np.array(
    [
        7.506283854342132e-01 + 3.739528624173561e-01j,
        5.040758873800636e-01 - 8.589346016791084e-02j,
    ]
)
CASE4_CHI = np.array(
    [
        6.885470778027576e-01 + 4.003464580402513e-01j,
        5.289928169810468e-01 + 6.955144628064121e-02j,
    ]
)
CASE4_PURITY = 9.791840321917805e-01


def test_chi_frozen_thermal_bath(rwa_n1):
    got = obs.chi_eval(rwa_n1, 18, EquilibriumBath(1.3), SQUEEZED, ETAS)
    assert np.max(np.abs(got - CASE1_CHI)) < 1e-11


def test_chi_and_purity_frozen_number_bath(rwa_n1):
    bath = NumberStateBath([2])
    got = obs.chi_eval(rwa_n1, 18, bath, CAT, ETAS)
    assert np.max(np.abs(got - CASE2_CHI)) < 1e-11
    pur = obs.purity(rwa_n1, 18, bath, CAT, tol=1e-9)
    assert abs(pur - CASE2_PURITY) < 1e-9


def test_chi_frozen_coherent_bath(rwa_n1):
    got = obs.chi_eval(rwa_n1, 18, CoherentStateBath([0.4 - 0.3j]), SQUEEZED, ETAS)
    assert np.max(np.abs(got - CASE3_CHI)) < 1e-11


def test_chi_and_purity_frozen_pair_coupling():
    m = ModelSpec(
        nu=1.0,
        omegas=np.array([1.3]),
        u=np.array([0.25 + 0j]),
        v=np.array([0.15 * np.exp(0.5j)]),
        coupling_family="Custom",
    )
    p = compute_propagator(m, TimeGrid.linspace(0.8, 16))
    bath = EquilibriumBath(2.0)
    got = obs.chi_eval(p, 16, bath, SQUEEZED, ETAS)
    assert np.max(np.abs(got - CASE4_CHI)) < 1e-11
    assert abs(obs.purity(p, 16, bath, SQUEEZED) - CASE4_PURITY) < 1e-11


def test_moments_match_characteristic_function_derivatives(ohmic_pp):
    # chi(i v) generates x moments, chi(u) generates p moments
    p = ohmic_pp
    i = 30
    amps = sample_coherent_states(1.5, p.model, np.random.default_rng(11), 1).amps[0]
    bath = CoherentStateBath(amps)
    mx, mp_ = obs.mean_xp(p, i, bath, CAT)
    vx, vp = obs.variances(p, i, bath, CAT)
    u = p.model.units
    x_scale = math.sqrt(u.hbar / (2.0 * u.mass * p.model.nu))
    p_scale = math.sqrt(u.hbar * u.mass * p.model.nu / 2.0)
    h = 1e-3

    def chi(e):
        return obs.chi_eval(p, i, bath, CAT, np.array([e]))[0]

    mx_fd = x_scale * np.real((chi(1j * h) - chi(-1j * h)) / (2j * h))
    d2x = (-chi(2j * h) + 16 * chi(1j * h) - 30 * chi(0) + 16 * chi(-1j * h) - chi(-2j * h)) / (
        12 * h * h
    )
    vx_fd = -x_scale**2 * np.real(d2x) - mx_fd**2
    mp_fd = p_scale * np.real((chi(h) - chi(-h)) / (-2j * h))
    d2p = (-chi(2 * h) + 16 * chi(h) - 30 * chi(0) + 16 * chi(-h) - chi(-2 * h)) / (12 * h * h)
    vp_fd = -p_scale**2 * np.real(d2p) - mp_fd**2
    assert abs(mx - mx_fd) < 1e-4
    assert abs(mp_ - mp_fd) < 1e-4
    assert abs(vx - vx_fd) < 1e-4
    assert abs(vp - vp_fd) < 1e-4


def test_closed_and_quadrature_purity_agree(ohmic_rwa, ohmic_pp):
    cases = [
        (ohmic_rwa, 25, EquilibriumBath(1.3), SQUEEZED),
        (
            ohmic_pp,
            40,
            CoherentStateBath(
                sample_coherent_states(1.0, ohmic_pp.model, np.random.default_rng(5), 1).amps[0]
            ),
            SQUEEZED,
        ),
    ]
    for p, i, bath, s in cases:
        closed = obs.purity(p, i, bath, s, method="closed")
        quad = obs.purity(p, i, bath, s, method="quadrature", tol=1e-9)
        assert abs(closed - quad) < 1e-7


@pytest.mark.parametrize("model", ["ohmic_rwa", "ohmic_pp", "flat_custom"])
def test_coherent_bath_purity_is_the_zero_temperature_purity(request, plateau_index, model):
    # A displacement does not change purity, so a coherent bath of any amplitudes gives
    # the zero-temperature purity: cats by quadrature (through the delta phase of
    # gaussian_F_eval), squeezed states in closed form.
    p = request.getfixturevalue(model)
    zero_t = EquilibriumBath(math.inf)
    phases = np.exp(2j * np.pi * np.random.default_rng(7).uniform(size=p.n_modes))
    for i in (3, p.n_times // 2, plateau_index(p)):
        for s, method in ((CAT, "quadrature"), (SQUEEZED, "closed")):
            ref = obs.purity(p, i, zero_t, s, method=method)
            for size in (0.1, 1.0, 5.0, 30.0):
                got = obs.purity(p, i, CoherentStateBath(size * phases), s, method=method)
                assert abs(got - ref) <= 1e-14 * ref, (i, method, size)


@pytest.mark.parametrize("model", ["rwa_n1", "ohmic_pp"])
def test_closed_purity_does_not_depend_on_the_displacement(request, model):
    # a displacement leaves the central moments, and so the purity, as they are
    p = request.getfixturevalue(model)
    bath = EquilibriumBath(1.0)
    ref = obs.purity(p, slice(None), bath, SqueezedDisplaced(r=0.9, phi=1.1))
    eps = np.finfo(float).eps
    for size in (1e-3, 1.0, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8):
        s = SqueezedDisplaced(disp=size * (0.6 + 0.8j), r=0.9, phi=1.1)
        got = obs.purity(p, slice(None), bath, s)
        assert np.max(np.abs(got - ref) / ref) <= 4 * eps, size


def test_purity_method_dispatch(rwa_n1):
    with pytest.raises(ParameterError):
        obs.purity(rwa_n1, 10, EquilibriumBath(1.0), SQUEEZED, method="fancy")
    # closed form undefined for a cat state or a number bath
    with pytest.raises(ParameterError):
        obs.purity(rwa_n1, 10, EquilibriumBath(1.0), CAT, method="closed")
    with pytest.raises(ParameterError):
        obs.purity(rwa_n1, 10, NumberStateBath([1]), SQUEEZED, method="closed")
    auto = obs.purity(rwa_n1, 10, EquilibriumBath(1.0), SQUEEZED)
    closed = obs.purity(rwa_n1, 10, EquilibriumBath(1.0), SQUEEZED, method="closed")
    assert auto == closed


SCALAR_CALLS = {
    "purity": lambda p, i: obs.purity(p, i, EquilibriumBath(1.0), SQUEEZED),
    "purity-quadrature": lambda p, i: obs.purity(p, i, EquilibriumBath(1.0), CAT),
    "mean_xp": lambda p, i: obs.mean_xp(p, i, EquilibriumBath(1.0), SQUEEZED),
    "variances": lambda p, i: obs.variances(p, i, EquilibriumBath(1.0), SQUEEZED),
    "asymptotic_variances": lambda p, i: obs.asymptotic_variances(p, i, EquilibriumBath(1.0)),
    "asymptotic_purity": lambda p, i: obs.asymptotic_purity(p, i, EquilibriumBath(1.0)),
    "purity-members": lambda p, i: obs.purity(
        p, row_slice(p, i), NumberStateBath([[1]]), SQUEEZED, tol=obs.ENSEMBLE_TOL),
    "chi_eval": lambda p, i: obs.chi_eval(p, i, NumberStateBath([1]), SQUEEZED, ETAS),
    "bath_sums": lambda p, i: bath_sums(p, i, EquilibriumBath(1.0)),
    "number_variance_of_variance": lambda p, i: obs.number_variance_of_variance(p, i, 1.0),
    "displaced_vacuum_check": lambda p, i: obs.displaced_vacuum_check(p, i, [0.3j], SQUEEZED),
    "delta_correlations-i": lambda p, i: delta_correlations(p, i, 0, 1.0),
    "delta_correlations-j": lambda p, i: delta_correlations(p, 0, i, 1.0),
    "generator_coefficients": lambda p, i: me.generator_coefficients(p, i, EquilibriumBath(1.0)),
    "generator_residual": lambda p, i: me.generator_residual(p, i, EquilibriumBath(1.0), CAT),
    "chi_time_derivative": lambda p, i: me.chi_time_derivative(
        p, i, NumberStateBath([1]), SQUEEZED, ETAS),
    "general_generator_apply": lambda p, i: me.general_generator_apply(
        p, i, NumberStateBath([1]), SQUEEZED, ETAS),
    "general_generator_residual": lambda p, i: me.general_generator_residual(
        p, i, NumberStateBath([1]), SQUEEZED),
}


REFUSALS = [(call, i, f"grid index {i} is outside the grid of 21 points")
            for call in sorted(SCALAR_CALLS) for i in (21, -22)]


@pytest.mark.parametrize("call, i, message", REFUSALS)
def test_scalar_entry_points_refuse_what_the_grid_does_not_hold(call, i, message):
    p = compute_propagator(load_sample_model("purity-cat-vacuum"), TimeGrid.linspace(2.0, 20))
    with pytest.raises(ParameterError, match=message):
        SCALAR_CALLS[call](p, i)
    if i > 0:
        SCALAR_CALLS[call](p, i - 1)  # the last index is held


# baths the one-mode model does not hold, each met by the entry points of BATH_CALLS
BAD_BATHS = {
    "no members": NumberStateBath(np.zeros((0, 1), dtype=int)),
    "two modes": NumberStateBath([1, 2]),
}
BATH_CALLS = {
    "purity-members": lambda p, bath: obs.purity(
        p, row_slice(p, 5), bath, SQUEEZED, tol=obs.ENSEMBLE_TOL),
    "mean_xp": lambda p, bath: obs.mean_xp(p, 5, bath, SQUEEZED),
    "mean_xp-rows": lambda p, bath: obs.mean_xp(p, slice(None), bath, SQUEEZED),
    "variances": lambda p, bath: obs.variances(p, 5, bath, SQUEEZED),
    "purity": lambda p, bath: obs.purity(p, 5, bath, SQUEEZED),
    "observable_series": lambda p, bath: obs.observable_series(p, bath, SQUEEZED),
    "bath_sums-rows": lambda p, bath: bath_sums(p, slice(None), bath),
}
BATH_REFUSALS = [("purity-members", "no members", "at least one member")]
BATH_REFUSALS += [(call, "two modes", "expected 1 occupations per member")
                  for call in sorted(BATH_CALLS)]


@pytest.mark.parametrize("call, bath, message", BATH_REFUSALS)
def test_entry_points_refuse_a_bath_the_model_does_not_hold(call, bath, message):
    p = compute_propagator(load_sample_model("purity-cat-vacuum"), TimeGrid.linspace(2.0, 20))
    with pytest.raises(ParameterError, match=message):
        BATH_CALLS[call](p, BAD_BATHS[bath])


def test_means_independent_of_zero_drift_bath(ohmic_pp):
    p = ohmic_pp
    i = 45
    ref = obs.mean_xp(p, i, EquilibriumBath(0.7), SQUEEZED)
    for bath in (
        EquilibriumBath(3.0),
        NumberStateBath(np.arange(p.n_modes) % 3),
        CoherentStateBath(np.zeros(p.n_modes)),
    ):
        got = obs.mean_xp(p, i, bath, SQUEEZED)
        assert got == pytest.approx(ref, abs=1e-14)


def test_variances_independent_of_coherent_amplitudes(ohmic_pp):
    p = ohmic_pp
    i = 45
    rng = np.random.default_rng(21)
    a1 = sample_coherent_states(0.8, p.model, rng, 1).amps[0]
    a2 = 10.0 * sample_coherent_states(0.8, p.model, rng, 1).amps[0]
    v1 = obs.variances(p, i, CoherentStateBath(a1), SQUEEZED)
    v2 = obs.variances(p, i, CoherentStateBath(a2), SQUEEZED)
    assert v1 == v2
    # and both equal the zero-temperature equilibrium values
    v0 = obs.variances(p, i, EquilibriumBath(math.inf), SQUEEZED)
    assert v1 == pytest.approx(v0, rel=1e-14)


def test_plateau_variances_and_purity_reach_asymptotics(ohmic_rwa, plateau_index):
    p = ohmic_rwa
    i = plateau_index(p)
    bath = EquilibriumBath(1.0)
    vx, vp = obs.variances(p, i, bath, SQUEEZED)
    ax, ap = obs.asymptotic_variances(p, i, bath)
    assert abs(vx / ax - 1.0) < 0.01
    assert abs(vp / ap - 1.0) < 0.01
    pur = obs.purity(p, i, bath, SQUEEZED)
    assert abs(pur / obs.asymptotic_purity(p, i, bath) - 1.0) < 0.01
    # the initial state is forgotten: cat and squeezed purities coincide
    pur_cat = obs.purity(p, i, bath, CAT, tol=1e-8)
    assert abs(pur_cat - pur) < 0.01


def test_high_temperature_variance_doubling(ohmic_rwa, plateau_index):
    p = ohmic_rwa
    i = plateau_index(p)
    vac = vacuum_state()
    v_half, _ = obs.variances(p, i, EquilibriumBath(0.01), vac)
    v_full, _ = obs.variances(p, i, EquilibriumBath(0.02), vac)
    assert abs(v_half / v_full - 2.0) < 0.01


def test_heisenberg_and_purity_bounds(ohmic_pp, ohmic_rwa):
    hbar = ohmic_pp.model.units.hbar
    rng = np.random.default_rng(9)
    for p in (ohmic_pp, ohmic_rwa):
        for i in (0, 7, 33, 80):
            for bath in (
                EquilibriumBath(0.5),
                NumberStateBath(rng.integers(0, 3, size=p.n_modes)),
                CoherentStateBath(sample_coherent_states(1.0, p.model, rng, 1).amps[0]),
            ):
                for s in (SQUEEZED, vacuum_state()):
                    vx, vp = obs.variances(p, i, bath, s)
                    assert vx * vp >= 0.25 * hbar**2 * (1.0 - 1e-9)
                    pur = obs.purity(p, i, bath, s, tol=1e-7)
                    assert 0.0 < pur <= 1.0 + 1e-9


def test_number_ensemble_variance_mean_and_spread(ohmic_rwa, plateau_index, keyed_rng):
    # var x is linear in the occupations: its P_n mean is the thermal value and
    # its P_n variance is (hbar/m nu)^2 sum |B + D^*|^4 nbar (nbar + 1)
    p = ohmic_rwa
    i = plateau_index(p)
    beta = 2.0
    n_samples = 2000
    vals = np.empty(n_samples)
    for k in range(n_samples):
        bath = NumberStateBath(sample_number_states(beta, p.model, keyed_rng(314, k), 1).n[0])
        vals[k], _ = obs.variances(p, i, bath, vacuum_state())
    thermal, _ = obs.variances(p, i, EquilibriumBath(beta), vacuum_state())
    summary = obs.summarize(vals, seed=314)
    assert abs(summary.estimate - thermal) < 4.0 * summary.std_error
    pred_var = obs.number_variance_of_variance(p, i, beta)
    sample_var = float(vals.var(ddof=1))
    # relative error of a sample variance is ~ sqrt(2/(S-1)) for light tails
    assert abs(sample_var - pred_var) < 4.0 * pred_var * math.sqrt(2.0 / (n_samples - 1))


def test_coherent_ensemble_mean_square_drift(ohmic_pp, keyed_rng):
    p = ohmic_pp
    i = 40
    beta = 1.5
    n_samples = 2000
    mx2 = np.empty(n_samples)
    mp2 = np.empty(n_samples)
    for k in range(n_samples):
        amps = sample_coherent_states(beta, p.model, keyed_rng(271, k), 1).amps[0]
        bath = CoherentStateBath(amps)
        mx, mp_ = obs.mean_xp(p, i, bath, vacuum_state())
        mx2[k], mp2[k] = mx * mx, mp_ * mp_
    corr = delta_correlations(p, i, i, beta)
    u = p.model.units
    xq = u.hbar / (2.0 * u.mass * p.model.nu)
    pq = u.hbar * u.mass * p.model.nu / 2.0
    pred_x = xq * (2.0 * corr.c1.real + 2.0 * corr.c2.real)
    pred_p = pq * (2.0 * corr.c1.real - 2.0 * corr.c2.real)
    for vals, pred in ((mx2, pred_x), (mp2, pred_p)):
        s = obs.summarize(vals, seed=271)
        assert abs(s.estimate - pred) < 4.0 * s.std_error


def test_geometric_laguerre_square_identity():
    # E_n[L_n(x)^2] under P(n) = (1-q) q^n has a closed form with a Bessel
    # factor; the ensemble-averaged purity oracle below relies on it
    for q, x in ((0.6, 0.8), (0.25, 2.3), (0.45, 0.05)):
        nbar = q / (1.0 - q)
        brute = sum((1.0 - q) * q**n * eval_laguerre(n, x) ** 2 for n in range(400))
        arg = 2.0 * x * math.sqrt(nbar * (nbar + 1.0))
        closed = math.exp(-2.0 * nbar * x + arg) * i0e(arg)
        assert abs(brute - closed) < 1e-13


def _exact_averaged_purity(p, i, beta, s, radius=6.0, n=400):
    """P_n expectation of the purity via the closed per-mode Laguerre average."""
    h = 2.0 * radius / n
    axis = -radius + (np.arange(n) + 0.5) * h
    re, im = np.meshgrid(axis, axis)
    eta = (re + 1j * im).ravel()
    zeta = eta * np.conj(p.A[i]) - np.conj(eta) * p.C[i]
    chi0_sq = np.abs(chi0_eval(s, zeta)) ** 2
    zt = bath_sums(p, i, EquilibriumBath(math.inf))
    log_env = 2.0 * (-zt.alpha * np.abs(eta) ** 2 + 2.0 * np.real(zt.gamma * np.conj(eta) ** 2))
    nbar = occupation(beta, p.model.omegas)
    xs = np.abs(np.outer(eta, np.conj(p.B[i])) - np.outer(np.conj(eta), p.D[i])) ** 2
    arg = 2.0 * xs * np.sqrt(nbar * (nbar + 1.0))
    log_corr = (-2.0 * xs) @ nbar + np.sum(np.log(i0e(arg)) + arg, axis=1)
    return float(np.sum(chi0_sq * np.exp(log_env + log_corr)) * h * h / math.pi)


def test_averaged_purity_matches_exact_ensemble_mean(ohmic_rwa, plateau_index):
    p = ohmic_rwa
    i = plateau_index(p)
    beta = 2.0
    vac = vacuum_state()
    exact = _exact_averaged_purity(p, i, beta, vac)
    mc = obs.averaged_purity_number_ensemble(p, i, beta, vac, 200, 99)
    assert abs(mc.estimate - exact) < 4.0 * mc.std_error
    # finite mode count keeps the ensemble mean strictly above the thermal value
    thermal = obs.purity(p, i, EquilibriumBath(beta), vac)
    assert exact > thermal
    assert exact - thermal < 0.01


def test_displaced_vacuum_defect(ohmic_rwa, plateau_index):
    p = ohmic_rwa
    i = plateau_index(p)
    amps = sample_coherent_states(1.0, p.model, np.random.default_rng(3), 1).amps[0]
    # vacuum oscillator: the factorization is exact at every time
    assert obs.displaced_vacuum_check(p, i, amps, vacuum_state()) < 1e-12
    assert obs.displaced_vacuum_check(p, 5, amps, vacuum_state()) < 1e-12
    # non-vacuum initial data is forgotten as the propagator decays
    early = obs.displaced_vacuum_check(p, 5, amps, SQUEEZED)
    late = obs.displaced_vacuum_check(p, i, amps, SQUEEZED)
    assert late < early / 10.0


def test_observable_series_wiring(rwa_n1):
    bath = EquilibriumBath(1.3)
    series = obs.observable_series(rwa_n1, bath, SQUEEZED)
    n_t = rwa_n1.n_times
    for key in ("t", "mean_x", "mean_p", "var_x", "var_p", "purity"):
        assert series[key].shape == (n_t,)
    for i in (0, 18, 60):
        assert series["mean_x"][i] == obs.mean_xp(rwa_n1, i, bath, SQUEEZED)[0]
        assert series["var_p"][i] == obs.variances(rwa_n1, i, bath, SQUEEZED)[1]
        assert series["purity"][i] == pytest.approx(
            obs.purity(rwa_n1, i, bath, SQUEEZED), abs=1e-12
        )


def test_square_eta_grid():
    g = obs.square_eta_grid(2.0, 5)
    assert g.shape == (25,)
    assert g[0] == -2.0 - 2.0j
    assert g[-1] == 2.0 + 2.0j
    assert 0.0 + 0.0j in g
