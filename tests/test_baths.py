"""Bath preparations: occupations, influence functions, samplers, correlators."""

import math

import numpy as np
import pytest

from qbath import baths
from qbath.errors import DataError, ParameterError
from qbath.observables import summarize


def test_occupation_values():
    assert baths.occupation(1.0, 1.0) == pytest.approx(1.0 / math.expm1(1.0), rel=1e-14)
    assert baths.occupation(0.5, np.array([2.0]))[0] == pytest.approx(
        1.0 / math.expm1(1.0), rel=1e-14
    )
    # hbar enters only through beta*hbar*omega
    assert baths.occupation(1.0, 3.0, hbar=2.0) == pytest.approx(
        baths.occupation(2.0, 3.0), rel=1e-14
    )
    # large-argument branch avoids expm1 overflow
    assert baths.occupation(701.0, 1.0) == pytest.approx(math.exp(-701.0), rel=1e-12)
    assert baths.occupation(math.inf, 1.7) == 0.0


def test_beta_validation():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ParameterError):
            baths.occupation(bad, 1.0)
        with pytest.raises(ParameterError):
            baths.EquilibriumBath(bad)
    assert baths.EquilibriumBath(math.inf).beta == math.inf
    with pytest.raises(ParameterError):
        baths.NumberStateBath([1, -2])
    with pytest.raises(ParameterError):
        baths.NumberStateBath([0.5])
    with pytest.raises(DataError):
        baths.CoherentStateBath([1.0, math.inf + 0j])


def test_equilibrium_params_match_direct_sums(ohmic_pp):
    p = ohmic_pp
    i = 37
    beta = 1.3
    params = baths.equilibrium_F_params(p, i, beta)
    nbar = baths.occupation(beta, p.model.omegas)
    b, d = p.B[i], p.D[i]
    alpha = np.sum((np.abs(b) ** 2 + np.abs(d) ** 2) * (nbar + 0.5))
    gamma = np.sum(b * d * (nbar + 0.5))
    assert params.delta == 0.0
    assert params.alpha == pytest.approx(alpha, rel=1e-14)
    assert params.gamma == pytest.approx(gamma, rel=1e-14)


def test_ground_state_number_equals_zero_temperature(ohmic_pp):
    p = ohmic_pp
    i = 52
    eta = np.array([0.3 - 0.4j, 1.1 + 0.2j, -0.7 + 0.9j])
    zero_t = baths.gaussian_F_eval(baths.equilibrium_F_params(p, i, math.inf), eta)
    from_number = baths.number_F_eval(p, i, np.zeros(p.n_modes, dtype=int), eta)
    assert np.max(np.abs(from_number - zero_t)) < 1e-13


def test_thermal_number_average_single_mode_exact(rwa_n1):
    # sum_n (1-q) q^n L_n(x) = exp(-nbar x): geometric average of number-state
    # influences reproduces the thermal influence exactly
    p = rwa_n1
    i = 90
    beta = 0.8
    q = math.exp(-beta * p.model.omegas[0])
    eta = np.array([0.45 + 0.3j, -0.9 + 0.6j])
    acc = np.zeros(eta.shape, dtype=float)
    for n in range(200):
        acc += (1.0 - q) * q**n * baths.number_F_eval(p, i, [n], eta)
    thermal = baths.gaussian_F_eval(baths.equilibrium_F_params(p, i, beta), eta).real
    assert np.max(np.abs(acc - thermal)) < 1e-12


def test_thermal_number_average_monte_carlo(ohmic_rwa):
    p = ohmic_rwa
    i = 40
    beta = 2.0
    eta = 0.6 - 0.3j
    n_samples = 3000
    vals = np.empty(n_samples)
    for s in range(n_samples):
        bath = baths.sample_number_state(beta, p.model, baths.member_rng(411, s))
        vals[s] = baths.number_F_eval(p, i, bath.n, np.array([eta]))[0]
    summary = summarize(vals, seed=411)
    thermal = baths.gaussian_F_eval(
        baths.equilibrium_F_params(p, i, beta), np.array([eta])
    )[0].real
    assert abs(summary.estimate - thermal) < 4.0 * summary.std_error


def test_coherent_params(ohmic_pp):
    p = ohmic_pp
    i = 61
    rng = np.random.default_rng(7)
    amps = rng.normal(size=p.n_modes) + 1j * rng.normal(size=p.n_modes)
    params = baths.coherent_F_params(p, i, amps)
    b, d = p.B[i], p.D[i]
    delta = np.sum(b * amps + d * np.conj(amps))
    assert params.delta == pytest.approx(delta, rel=1e-14)
    zero_t = baths.equilibrium_F_params(p, i, math.inf)
    assert params.alpha == pytest.approx(zero_t.alpha, rel=1e-14)
    assert params.gamma == pytest.approx(zero_t.gamma, rel=1e-14)
    quiet = baths.coherent_F_params(p, i, np.zeros(p.n_modes, dtype=complex))
    assert quiet.delta == 0.0
    with pytest.raises(ParameterError):
        baths.coherent_F_params(p, i, amps[:-1])
    with pytest.raises(ParameterError):
        baths.number_F_eval(p, i, np.zeros(3, dtype=int), np.array([0.1 + 0.1j]))
    with pytest.raises(ParameterError):
        baths.bath_f_params(p, i, baths.NumberStateBath(np.zeros(p.n_modes, dtype=int)))


def test_member_rng_streams():
    a = baths.member_rng(5, 3).integers(0, 1 << 30, size=8)
    b = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(3,))).integers(
        0, 1 << 30, size=8
    )
    assert np.array_equal(a, b)
    assert np.array_equal(a, baths.member_rng(5, 3).integers(0, 1 << 30, size=8))
    assert not np.array_equal(a, baths.member_rng(5, 4).integers(0, 1 << 30, size=8))
    assert not np.array_equal(a, baths.member_rng(6, 3).integers(0, 1 << 30, size=8))


def test_number_sampler_moments(ohmic_rwa):
    m = ohmic_rwa.model
    beta = 2.0
    nbar = baths.occupation(beta, m.omegas)
    n_samples = 1500
    draws = np.empty((n_samples, m.n_modes))
    for s in range(n_samples):
        draws[s] = baths.sample_number_state(beta, m, baths.member_rng(787, s)).n
    mean_res = summarize((draws - nbar).ravel(), seed=787)
    assert abs(mean_res.estimate) < 4.0 * mean_res.std_error
    var_res = summarize(((draws - nbar) ** 2 - nbar * (nbar + 1.0)).ravel(), seed=787)
    assert abs(var_res.estimate) < 4.0 * var_res.std_error
    vacuum = baths.sample_number_state(math.inf, m, baths.member_rng(787, 0))
    assert np.all(vacuum.n == 0)


def test_zero_temperature_number_draw_leaves_the_generator(ohmic_rwa):
    # a generator shared with later draws gives them the same values at beta = inf
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    baths.sample_number_state(math.inf, ohmic_rwa.model, rng)
    assert rng.bit_generator.state == state


def test_coherent_sampler_moments(ohmic_rwa):
    m = ohmic_rwa.model
    beta = 2.0
    nbar = baths.occupation(beta, m.omegas)
    n_samples = 2000
    amps = np.empty((n_samples, m.n_modes), dtype=complex)
    for s in range(n_samples):
        amps[s] = baths.sample_coherent_state(beta, m, baths.member_rng(788, s)).amps
    mag = summarize((np.abs(amps) ** 2 - nbar).ravel(), seed=788)
    assert abs(mag.estimate) < 4.0 * mag.std_error
    for part in (np.real, np.imag):
        sq = summarize(part(amps**2).ravel(), seed=788)
        assert abs(sq.estimate) < 4.0 * sq.std_error


def test_delta_correlations_against_sampler(ohmic_pp):
    p = ohmic_pp
    i, j = 25, 60
    beta = 1.5
    pred = baths.delta_correlations(p, i, j, beta)
    assert pred.c2 != 0.0  # pair coupling makes the anomalous correlator nonzero
    nbar = baths.occupation(beta, p.model.omegas)
    rng = np.random.default_rng(2024)
    n_samples = 20000
    scale = np.sqrt(nbar / 2.0)
    amps = rng.normal(size=(n_samples, p.n_modes)) * scale + 1j * (
        rng.normal(size=(n_samples, p.n_modes)) * scale
    )
    di = amps @ p.B[i] + np.conj(amps) @ p.D[i]
    dj = amps @ p.B[j] + np.conj(amps) @ p.D[j]
    for pred_val, prod in ((pred.c1, di * np.conj(dj)), (pred.c2, di * dj)):
        for part in (np.real, np.imag):
            s = summarize(part(prod), seed=2024)
            assert abs(s.estimate - part(pred_val)) < 4.0 * s.std_error


def test_rwa_anomalous_correlator_vanishes(ohmic_rwa):
    pred = baths.delta_correlations(ohmic_rwa, 30, 55, 1.0)
    assert pred.c2 == 0.0
    assert pred.c1 != 0.0
