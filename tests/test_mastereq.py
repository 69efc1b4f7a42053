"""Time-local generator: closed forms, residuals on the exact solution, limits."""

import itertools
import math

import numpy as np
import pytest

from qbath import laguerre, stock_model
from qbath import mastereq as me
from qbath.baths import (
    CoherentStateBath,
    EquilibriumBath,
    NumberStateBath,
    bath_sums,
    sample_coherent_state,
    sample_number_state,
)
from qbath.errors import ParameterError, SingularGeneratorError
from qbath.observables import summarize, square_eta_grid
from qbath.propagator import TimeGrid, compute_propagator, row_slice
from qbath.states import (
    CatState,
    SqueezedDisplaced,
    gaussian_exponent,
    gaussian_exponent_wirtinger,
    vacuum_state,
)

SQUEEZED = SqueezedDisplaced(disp=0.5 - 0.1j, r=0.6, phi=0.3)
CAT = CatState(alpha=1.3 + 0.4j, beta=-0.8 - 0.6j)


def test_single_mode_drift_closed_form(rwa_n1):
    # A = exp(-i nu t) cos(u t) gives xi = -i nu - u tan(u t) and zeta = 0
    p = rwa_n1
    nu, u = p.model.nu, float(np.real(p.model.u[0]))
    for i in range(p.n_times):
        t = p.grid.t[i]
        if math.cos(u * t) ** 2 <= me.DENOM_FLOOR:
            continue
        xi, zeta, denom = me.xi_zeta(p, i)
        expected = -1j * nu - u * math.tan(u * t)
        assert abs(xi - expected) <= 1e-9 * max(1.0, abs(expected))
        assert zeta == 0.0
        assert denom == pytest.approx(math.cos(u * t) ** 2, abs=1e-12)


def test_singular_generator_raises():
    # |A|^2 - |C|^2 = cos^2(u t) vanishes at u t = pi/2 on resonance
    m = stock_model("rwa-n1-resonant")
    u = float(np.real(m.u[0]))
    t_sing = math.pi / (2.0 * u)
    p = compute_propagator(m, TimeGrid(np.array([0.0, 0.5 * t_sing, t_sing])))
    me.xi_zeta(p, 1)
    with pytest.raises(SingularGeneratorError):
        me.xi_zeta(p, 2)
    with pytest.raises(SingularGeneratorError):
        me.gaussian_generator(p, 2, me.f_series_for(p, EquilibriumBath(1.0)))
    # series form flags instead of raising
    series = me.generator_series(p, me.f_series_for(p, EquilibriumBath(1.0)))
    assert series["valid"][1]
    assert not series["valid"][2]
    assert np.isnan(series["xi"][2])
    assert np.isfinite(series["xi"][1])


def test_near_floor_denominator_not_regularized():
    m = stock_model("rwa-n1-resonant")
    u = float(np.real(m.u[0]))
    # cos^2(u t) = 100 * floor: close to singular but still valid
    t_near = (math.pi / 2.0 - math.sqrt(100.0 * me.DENOM_FLOOR)) / u
    p = compute_propagator(m, TimeGrid(np.array([0.0, t_near])))
    xi, zeta, denom = me.xi_zeta(p, 1)
    assert denom == pytest.approx(100.0 * me.DENOM_FLOOR, rel=1e-4)
    # |xi| ~ u / sqrt(denom): genuinely large, not clipped
    assert abs(xi) > 0.9 * u / math.sqrt(100.0 * me.DENOM_FLOOR)
    assert math.isfinite(abs(xi))


def test_equilibrium_generator_shape(ohmic_rwa):
    p = ohmic_rwa
    fs = me.f_series_for(p, EquilibriumBath(1.3))
    series = me.generator_series(p, fs)
    valid = series["valid"]
    assert np.all(valid)
    # no drive: sigma vanishes identically, kappa is real
    assert np.all(series["sigma"] == 0.0)
    assert np.max(np.abs(series["kappa"].imag)) < 1e-12
    # grid start: memory kernels vanish with B(0) = D(0) = 0
    assert series["kappa"][0] == 0.0
    assert series["mu"][0] == 0.0
    assert series["xi"][0] == pytest.approx(-1j * p.model.nu, abs=1e-14)
    assert series["zeta"][0] == 0.0


def test_initial_sigma_matches_coupling_row(ohmic_pp):
    p = ohmic_pp
    amps = sample_coherent_state(1.0, p.model, np.random.default_rng(17)).amps
    fs = me.f_series_for(p, CoherentStateBath(amps))
    g0 = me.gaussian_generator(p, 0, fs)
    assert g0.kappa == 0.0
    assert g0.mu == 0.0
    expected = -1j * (p.model.u @ amps + p.model.v @ np.conj(amps))
    assert abs(g0.sigma - expected) < 1e-13


def test_generator_residual_gaussian_baths(ohmic_rwa, ohmic_pp):
    # pair coupling drives |A|^2 - |C|^2 through zero deep in the plateau, so
    # the late index is only checked where the generator exists
    for p, indices in ((ohmic_rwa, (3, 17, 48, 90)), (ohmic_pp, (3, 17, 48))):
        amps = sample_coherent_state(1.5, p.model, np.random.default_rng(23)).amps
        for bath in (EquilibriumBath(1.3), CoherentStateBath(amps)):
            for s in (SQUEEZED, vacuum_state()):
                for i in indices:
                    assert me.generator_residual(p, i, bath, s) < 1e-8


def test_generator_residual_cat_state(ohmic_rwa):
    # non-Gaussian oscillator state exercises the chi0-Wirtinger left side
    p = ohmic_rwa
    for i in (5, 40, 77):
        assert me.generator_residual(p, i, EquilibriumBath(2.0), CAT) < 1e-8


def test_general_residual_number_bath(ohmic_rwa, keyed_rng):
    p = ohmic_rwa
    occs = sample_number_state(2.0, p.model, keyed_rng(55, 0)).n
    bath = NumberStateBath(occs)
    for i in (4, 33, 66, 95):
        report = me.general_generator_residual(p, i, bath, SQUEEZED)
        assert report.max_residual < 1e-8
        assert report.n_flagged < report.n_nodes // 10
    with pytest.raises(ParameterError):
        me.generator_residual(p, 10, bath, SQUEEZED)


def _logF_derivs_per_mode(p, i, bath, eta):
    """Reference for me._logF_derivs: the vacuum Gaussian plus one Laguerre mode at a time."""
    fs = bath_sums(p, row_slice(i), EquilibriumBath(math.inf), derivs=True)[0]
    d_eta, d_etab = gaussian_exponent_wirtinger(fs.delta, fs.alpha, fs.gamma, eta)
    d_t = gaussian_exponent(fs.ddelta, fs.dalpha, fs.dgamma, eta)
    ok = np.ones(eta.shape, dtype=bool)
    b, d, db, dd = p.B[i], p.D[i], p.dB[i], p.dD[i]
    for k in np.nonzero(bath.n)[0]:
        zk = eta * np.conj(b[k]) - np.conj(eta) * d[k]
        zk_c = np.conj(zk)
        ratio, ok_k = laguerre.log_derivative(int(bath.n[k]), np.abs(zk) ** 2)
        dzk_t = eta * np.conj(db[k]) - np.conj(eta) * dd[k]
        d_eta = d_eta + ratio * (np.conj(b[k]) * zk_c - np.conj(d[k]) * zk)
        d_etab = d_etab + ratio * (b[k] * zk - d[k] * zk_c)
        d_t = d_t + ratio * 2.0 * np.real(dzk_t * zk_c)
        ok &= ok_k
    return d_eta, d_etab, d_t, ok


def test_log_derivatives_match_the_per_mode_loop(ohmic_rwa, ohmic_pp):
    # orders 1-5, three modes each; D_k = 0 under RWA, so the pair-term model
    # checks the D terms; the wide grid reaches Laguerre zeros on both models
    occs = np.zeros(64, dtype=int)
    occs[np.arange(0, 60, 4)] = np.repeat(np.arange(1, 6), 3)
    bath = NumberStateBath(occs)
    flat = square_eta_grid(6.0, 21)
    flagged = 0
    for p, eta in itertools.product((ohmic_rwa, ohmic_pp), (flat, flat.reshape(21, 21))):
        for i in (4, 40, 90):
            got = me._logF_derivs(p, i, bath, eta)
            ref = _logF_derivs_per_mode(p, i, bath, eta)
            for a, b in zip(got[:3], ref[:3]):
                assert a.shape == eta.shape
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
            assert got[3].shape == eta.shape
            assert np.array_equal(got[3], ref[3])
            flagged += int((~ref[3]).sum())
    assert flagged > 0


def test_general_path_agrees_with_gaussian_path(ohmic_pp):
    p = ohmic_pp
    i = 42
    bath = EquilibriumBath(0.9)
    eta = square_eta_grid(2.0, 15)
    rhs_general, ok = me.general_generator_apply(p, i, bath, SQUEEZED, eta)
    assert np.all(ok)
    lhs, ok2 = me.chi_time_derivative(p, i, bath, SQUEEZED, eta)
    assert np.all(ok2)
    assert np.max(np.abs(lhs - rhs_general)) < 1e-10


def test_normalization_is_preserved(ohmic_pp):
    # chi(0, t) = 1 for all t: the time derivative at eta = 0 vanishes
    p = ohmic_pp
    amps = sample_coherent_state(1.0, p.model, np.random.default_rng(8)).amps
    for bath in (EquilibriumBath(1.0), CoherentStateBath(amps)):
        for i in (0, 25, 70):
            dchi, ok = me.chi_time_derivative(p, i, bath, CAT, np.array([0.0j]))
            assert ok[0]
            assert abs(dchi[0]) < 1e-13
            rhs, _ = me.general_generator_apply(p, i, bath, CAT, np.array([0.0j]))
            assert abs(rhs[0]) < 1e-13


def test_time_derivative_hermiticity(ohmic_pp):
    p = ohmic_pp
    eta = square_eta_grid(2.0, 9)
    bath = EquilibriumBath(1.1)
    plus, _ = me.chi_time_derivative(p, 31, bath, CAT, eta)
    minus, _ = me.chi_time_derivative(p, 31, bath, CAT, -eta)
    assert np.max(np.abs(minus - np.conj(plus))) < 1e-13


def test_sigma_is_linear_in_amplitudes(ohmic_pp):
    # sigma = sum_k P_k beta_k + Q_k beta_k^* with coefficients fixed by the
    # drift pair and the propagator row derivatives
    p = ohmic_pp
    i = 30
    xi, zeta, _ = me.xi_zeta(p, i)
    b, d, db, dd = p.B[i], p.D[i], p.dB[i], p.dD[i]
    P = zeta * np.conj(d) - xi * b + db
    Q = zeta * np.conj(b) - xi * d + dd
    rng = np.random.default_rng(61)
    for _ in range(20):
        amps = rng.normal(size=p.n_modes) + 1j * rng.normal(size=p.n_modes)
        sigma = me.gaussian_generator(p, i, me.f_series_for(p, CoherentStateBath(amps))).sigma
        assert abs(sigma - (P @ amps + Q @ np.conj(amps))) < 1e-12


def test_sigma_ensemble_statistics(ohmic_pp):
    # over the coherent ensemble sigma has zero mean and covariance fixed by
    # the same linear map; checked against direct sampling
    p = ohmic_pp
    i = 30
    beta = 1.5
    xi, zeta, _ = me.xi_zeta(p, i)
    P = zeta * np.conj(p.D[i]) - xi * p.B[i] + p.dB[i]
    Q = zeta * np.conj(p.B[i]) - xi * p.D[i] + p.dD[i]
    nbar = 1.0 / np.expm1(beta * p.model.omegas)
    pred_abs = np.sum((np.abs(P) ** 2 + np.abs(Q) ** 2) * nbar)
    pred_sq = 2.0 * np.sum(P * Q * nbar)
    rng = np.random.default_rng(71)
    n_samples = 20000
    scale = np.sqrt(nbar / 2.0)
    amps = rng.normal(size=(n_samples, p.n_modes)) * scale + 1j * (
        rng.normal(size=(n_samples, p.n_modes)) * scale
    )
    sigma = amps @ P + np.conj(amps) @ Q
    for part in (np.real, np.imag):
        s = summarize(part(sigma), seed=71)
        assert abs(s.estimate) < 4.0 * s.std_error
    s = summarize(np.abs(sigma) ** 2, seed=71)
    assert abs(s.estimate - np.real(pred_abs)) < 4.0 * s.std_error
    for part in (np.real, np.imag):
        s = summarize(part(sigma**2), seed=71)
        assert abs(s.estimate - part(pred_sq)) < 4.0 * s.std_error


def test_f_series_validation(ohmic_rwa):
    p = ohmic_rwa
    with pytest.raises(ParameterError):
        me.f_series_for(p, NumberStateBath(np.zeros(p.n_modes, dtype=int)))
    with pytest.raises(ParameterError):
        me.f_series_for(p, CoherentStateBath(np.zeros(3, dtype=complex)))
    fs = me.f_series_for(p, EquilibriumBath(0.9))
    assert fs.alpha.shape == (p.n_times,)
    assert np.all(fs.delta == 0.0)
