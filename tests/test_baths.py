"""Bath preparations: occupations, influence functions, samplers, correlators."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qbath import baths
from qbath.errors import DataError, ParameterError
from qbath.observables import summarize
from qbath.states import gaussian_exponent


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
    with pytest.raises(ParameterError, match="integer range"):
        baths.NumberStateBath([10**30, 0])  # an object array numpy cannot cast
    with pytest.raises(DataError):
        baths.CoherentStateBath([1.0, math.inf + 0j])


def test_equilibrium_params_match_direct_sums(ohmic_pp):
    p = ohmic_pp
    i = 37
    beta = 1.3
    params = baths.bath_sums(p, i, baths.EquilibriumBath(beta))
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
    zero_t = baths.gaussian_F_eval(baths.bath_sums(p, i, baths.EquilibriumBath(math.inf)), eta)
    ground = baths.NumberStateBath(np.zeros(p.n_modes, dtype=int))
    from_number = baths.bath_F_eval(p, i, ground, eta)
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
        acc += (1.0 - q) * q**n * baths.bath_F_eval(p, i, baths.NumberStateBath([n]), eta)
    thermal = baths.bath_F_eval(p, i, baths.EquilibriumBath(beta), eta).real
    assert np.max(np.abs(acc - thermal)) < 1e-12


def test_thermal_number_average_monte_carlo(ohmic_rwa, keyed_rng):
    p = ohmic_rwa
    i = 40
    beta = 2.0
    eta = 0.6 - 0.3j
    n_samples = 3000
    vals = np.empty(n_samples)
    for s in range(n_samples):
        occs = baths.sample_number_states(beta, p.model, keyed_rng(411, s), 1).n[0]
        bath = baths.NumberStateBath(occs)
        vals[s] = baths.bath_F_eval(p, i, bath, np.array([eta]))[0]
    summary = summarize(vals, seed=411)
    thermal = baths.gaussian_F_eval(
        baths.bath_sums(p, i, baths.EquilibriumBath(beta)), np.array([eta])
    )[0].real
    assert abs(summary.estimate - thermal) < 4.0 * summary.std_error


def test_gaussian_influence_in_real_arithmetic_matches_the_complex_exponential():
    # exp(Re Q) cis(Im Q) against exp(Q) of the complex exponent: both round the terms of Q,
    # so they agree to a few eps of |F| per unit of those terms' size, the condition of exp
    rng = np.random.default_rng(12)
    eps = np.finfo(float).eps
    for _ in range(200):
        alpha = rng.uniform(0.1, 3.0, size=(3, 1))
        gamma = 0.5 * alpha * rng.uniform(size=(3, 1)) * np.exp(2j * np.pi * rng.uniform(size=(3, 1)))
        delta = rng.normal(size=(3, 1)) + 1j * rng.normal(size=(3, 1))
        eta = rng.normal(size=(3, 40)) + 1j * rng.normal(size=(3, 40))
        rows = baths.GaussianFSeries(delta, alpha, gamma)  # (R, 1) params against an (R, P) eta
        for fs, at in ((rows, eta), (rows[0, 0], eta[0])):  # and one row's scalars
            got = baths.gaussian_F_eval(fs, at)
            ref = np.exp(gaussian_exponent(fs.delta, fs.alpha, fs.gamma, at))
            size = (fs.alpha + 2.0 * np.abs(fs.gamma)) * np.abs(at) ** 2 + 2.0 * np.abs(
                fs.delta * at)
            assert got.shape == ref.shape
            assert np.all(np.abs(got - ref) <= 4.0 * eps * np.abs(ref) * (1.0 + size))


def test_gaussian_influence_without_drive_is_real_and_underflows_quietly(ohmic_pp, plateau_index):
    p = ohmic_pp
    rows = np.arange(p.n_times)
    eta = np.exp(1j * np.linspace(0.0, 6.0, 7)) * np.linspace(0.1, 3.0, 7)
    grid_eta = np.broadcast_to(eta, (p.n_times, eta.size))
    amps = 0.4 * np.exp(1j * np.arange(p.n_modes))
    undriven = [baths.EquilibriumBath(1.0), baths.EquilibriumBath(math.inf),
                baths.CoherentStateBath(np.zeros(p.n_modes))]
    for bath in undriven:
        f = baths.bath_F_eval(p, rows, bath, grid_eta)
        assert f.shape == grid_eta.shape and np.all(np.imag(f) == 0.0)
        assert not np.iscomplexobj(f)  # one real exp: no cos or sin
    assert np.any(np.imag(baths.bath_F_eval(p, rows, baths.CoherentStateBath(amps), grid_eta)))
    i = plateau_index(p)
    far = 1e4 * eta
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bath in [*undriven, baths.CoherentStateBath(amps)]:
            assert np.all(baths.bath_F_eval(p, i, bath, far) == 0.0)


def test_laguerre_arguments_equal_the_squared_mode_args(ohmic_pp):
    # the real form |eta|^2 (|b|^2 + |d|^2) - 2 Re(eta^2 b^* d^*) against |z|^2 of the complex z
    # on one row (any eta shape, flattened) and on a row set of two rows
    rng = np.random.default_rng(3)
    eta = rng.normal(size=(7, 9)) + 1j * rng.normal(size=(7, 9))
    b, d = ohmic_pp.B[[40, 7]], ohmic_pp.D[[40, 7]]
    n = ohmic_pp.n_modes
    one_row = (baths._mode_args_squared(b[0], d[0], eta), (n, 63), b[:1], d[:1], eta.reshape(1, -1))
    row_set = (baths._mode_args_squared(b, d, eta[:2]), (n, 2, 9), b, d, eta[:2])
    for got, shape, b, d, eta in (one_row, row_set):
        want = np.abs(baths._mode_args(b, d, eta)) ** 2  # (modes, rows, nodes)
        scale = (np.abs(b) ** 2 + np.abs(d) ** 2).T[..., None] * np.abs(eta) ** 2
        assert got.shape == shape and np.all(got >= 0.0)
        assert np.max(np.abs(got.reshape(want.shape) - want) / scale) < 1e-14


def test_coherent_params(ohmic_pp):
    p = ohmic_pp
    i = 61
    rng = np.random.default_rng(7)
    amps = rng.normal(size=p.n_modes) + 1j * rng.normal(size=p.n_modes)
    params = baths.bath_sums(p, i, baths.CoherentStateBath(amps))
    b, d = p.B[i], p.D[i]
    delta = np.sum(b * amps + d * np.conj(amps))
    assert params.delta == pytest.approx(delta, rel=1e-14)
    zero_t = baths.bath_sums(p, i, baths.EquilibriumBath(math.inf))
    assert params.alpha == pytest.approx(zero_t.alpha, rel=1e-14)
    assert params.gamma == pytest.approx(zero_t.gamma, rel=1e-14)
    quiet = baths.bath_sums(p, i, baths.CoherentStateBath(np.zeros(p.n_modes, dtype=complex)))
    assert quiet.delta == 0.0
    with pytest.raises(ParameterError):
        baths.bath_sums(p, i, baths.CoherentStateBath(amps[:-1]))
    with pytest.raises(ParameterError):
        short = baths.NumberStateBath(np.zeros(3, dtype=int))
        baths.bath_F_eval(p, i, short, np.array([0.1 + 0.1j]))
    # a number bath has the second-moment sums of its occupations, and no drive
    n = np.arange(p.n_modes) % 3
    number = baths.bath_sums(p, i, baths.NumberStateBath(n))
    assert number.delta == 0.0
    weighted = np.sum((np.abs(b) ** 2 + np.abs(d) ** 2) * (n + 0.5))
    assert number.alpha == pytest.approx(weighted, rel=1e-14)
    assert number.gamma == pytest.approx(np.sum(b * d * (n + 0.5)), rel=1e-14)


SEEDS = (0, 31, 2**64 + 5)


def _oracle_rows(beta, m, seed, count):
    """Members drawn one row at a time from default_rng(seed); amplitudes formed as x + 1j * y."""
    n = m.n_modes
    if math.isinf(beta):  # nothing is drawn at zero temperature
        return np.zeros((count, n), dtype=int), np.zeros((count, n), dtype=complex)
    rng = np.random.default_rng(seed)
    number = np.array([rng.geometric(1.0 - np.exp(-beta * m.omegas)) - 1 for _ in range(count)])
    rng, scale = np.random.default_rng(seed), np.sqrt(baths.occupation(beta, m.omegas) / 2.0)
    zs = [rng.normal(size=2 * n) for _ in range(count)]  # N real parts, then N imaginary parts
    return number, np.array([z[:n] * scale + 1j * (z[n:] * scale) for z in zs])


def test_member_matrix_is_one_stream(ohmic_rwa):
    m, block = ohmic_rwa.model, baths._BLOCK
    sizes = (1, block - 1, block, block + 1, 3 * block + 7)
    for beta in (0.7, 2.0, math.inf):
        for seed in SEEDS:
            number = baths.sample_number_states(beta, m, seed, sizes[-1]).n
            coherent = baths.sample_coherent_states(beta, m, seed, sizes[-1]).amps
            want_n, want_a = _oracle_rows(beta, m, seed, sizes[-1])
            assert number.tobytes() == want_n.tobytes(), (beta, seed)
            assert coherent.tobytes() == want_a.tobytes(), (beta, seed)
            # the prefix property: row k of M members is row k of any larger draw,
            # across the sampler's block edges
            for size in sizes[:-1]:
                rows = baths.sample_number_states(beta, m, seed, size).n
                assert rows.tobytes() == number[:size].tobytes(), (beta, seed, size)
                rows = baths.sample_coherent_states(beta, m, seed, size).amps
                assert rows.tobytes() == coherent[:size].tobytes(), (beta, seed, size)
            # a Generator draws the rows of default_rng(seed), and a generator shared by
            # one-member draws gives them the rows in turn
            for sample, field, want in ((baths.sample_number_states, "n", number),
                                        (baths.sample_coherent_states, "amps", coherent)):
                rows = getattr(sample(beta, m, np.random.default_rng(seed), sizes[-1]), field)
                assert (rows.dtype, rows.tobytes()) == (want.dtype, want.tobytes()), (beta, seed)
                rng = np.random.default_rng(seed)
                for k in range(3):
                    row = getattr(sample(beta, m, rng, 1), field)[0]
                    assert row.tobytes() == want[k].tobytes(), (beta, seed, k)


def test_member_matrix_is_determined_by_its_seed(ohmic_rwa):
    m = ohmic_rwa.model
    for sample, field in ((baths.sample_number_states, "n"),
                          (baths.sample_coherent_states, "amps")):
        draw = lambda seed: getattr(sample(1.0, m, seed, 40), field)
        assert draw(5).tobytes() == draw(5).tobytes()
        assert not np.array_equal(draw(5), draw(6))
        assert not np.array_equal(draw(5), draw(2**64 + 5))
        assert getattr(sample(1.0, m, 5, 0), field).shape == (0, m.n_modes)


def test_seed_and_count_refused_before_allocation(ohmic_rwa):
    # checked before any member array exists, whatever the count asks for
    tracemalloc.start()
    try:
        for sample in (baths.sample_number_states, baths.sample_coherent_states):
            for seed, count in ((-1, 10**12), (0, -1), (-1, 3), (np.random.default_rng(0), -1)):
                with pytest.raises(ParameterError):
                    sample(1.0, ohmic_rwa.model, seed, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_coherent_member_matrix_memory(ohmic_rwa):
    # no member-sized temporaries: the output plus fixed-size blocks
    m = ohmic_rwa.model
    baths.sample_coherent_states(1.0, m, 9, 10)
    tracemalloc.start()
    try:
        amps = baths.sample_coherent_states(1.0, m, 9, 4000).amps
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= amps.nbytes + (1 << 19)


def test_number_sampler_moments(ohmic_rwa, keyed_rng):
    m = ohmic_rwa.model
    beta = 2.0
    nbar = baths.occupation(beta, m.omegas)
    n_samples = 1500
    draws = np.empty((n_samples, m.n_modes))
    for s in range(n_samples):
        draws[s] = baths.sample_number_states(beta, m, keyed_rng(787, s), 1).n[0]
    mean_res = summarize((draws - nbar).ravel(), seed=787)
    assert abs(mean_res.estimate) < 4.0 * mean_res.std_error
    var_res = summarize(((draws - nbar) ** 2 - nbar * (nbar + 1.0)).ravel(), seed=787)
    assert abs(var_res.estimate) < 4.0 * var_res.std_error
    vacuum = baths.sample_number_states(math.inf, m, keyed_rng(787, 0), 1)
    assert vacuum.n.shape == (1, m.n_modes) and np.all(vacuum.n == 0)


def test_zero_temperature_number_draw_leaves_the_generator(ohmic_rwa):
    # a generator shared with later draws gives them the same values at beta = inf
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    assert not baths.sample_number_states(math.inf, ohmic_rwa.model, rng, 1).n[0].any()
    assert not baths.sample_coherent_states(math.inf, ohmic_rwa.model, rng, 1).amps[0].any()
    assert rng.bit_generator.state == state


def test_coherent_sampler_moments(ohmic_rwa, keyed_rng):
    m = ohmic_rwa.model
    beta = 2.0
    nbar = baths.occupation(beta, m.omegas)
    n_samples = 2000
    amps = np.empty((n_samples, m.n_modes), dtype=complex)
    for s in range(n_samples):
        amps[s] = baths.sample_coherent_states(beta, m, keyed_rng(788, s), 1).amps[0]
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
