"""Time-local generator: closed forms, residuals on the exact solution, limits."""

import itertools
import math

import numpy as np
import pytest

from qbath import laguerre
from qbath import mastereq as me
from qbath.baths import (
    CoherentStateBath,
    EquilibriumBath,
    NumberStateBath,
    bath_sums,
    sample_coherent_states,
    sample_number_states,
)
from qbath.errors import ParameterError, SingularGeneratorError
from qbath.observables import summarize, square_eta_grid
from qbath.propagator import TimeGrid, compute_propagator
from qbath.states import (
    CatState,
    SqueezedDisplaced,
    gaussian_exponent,
    gaussian_exponent_wirtinger,
    vacuum_state,
)

from conftest import load_sample_model

SQUEEZED = SqueezedDisplaced(disp=0.5 - 0.1j, r=0.6, phi=0.3)
CAT = CatState(alpha=1.3 + 0.4j, beta=-0.8 - 0.6j)


def _drift(p, i):
    """(xi, zeta, denom) at grid index i; the drift does not depend on the bath."""
    c = me.generator_coefficients(p, i, EquilibriumBath(1.0))
    return c["xi"], c["zeta"], c["denom"]


def test_single_mode_drift_closed_form(rwa_n1):
    # A = exp(-i nu t) cos(u t) gives xi = -i nu - u tan(u t) and zeta = 0
    p = rwa_n1
    nu, u = p.model.nu, float(np.real(p.model.u[0]))
    for i in range(p.n_times):
        t = p.grid.t[i]
        if math.cos(u * t) ** 2 <= me.DENOM_FLOOR:
            continue
        xi, zeta, denom = _drift(p, i)
        expected = -1j * nu - u * math.tan(u * t)
        assert abs(xi - expected) <= 1e-9 * max(1.0, abs(expected))
        assert zeta == 0.0
        assert denom == pytest.approx(math.cos(u * t) ** 2, abs=1e-12)


def test_singular_generator_raises():
    # |A|^2 - |C|^2 = cos^2(u t) vanishes at u t = pi/2 and 3 pi/2 on resonance
    m = load_sample_model("purity-cat-vacuum")
    u = float(np.real(m.u[0]))
    t_sing = math.pi / (2.0 * u)
    p = compute_propagator(m, TimeGrid(t_sing * np.array([0.0, 0.5, 1.0, 1.5, 3.0])))
    bath = EquilibriumBath(1.0)
    me.generator_coefficients(p, 1, bath)
    for call in (lambda p, i: me.generator_coefficients(p, i, bath),
                 lambda p, i: me.general_generator(p, i, bath, CAT, np.array([0.3j])),
                 lambda p, i: me.general_generator_residual(p, i, bath, CAT)):
        with pytest.raises(SingularGeneratorError, match=f"at grid index 2, t = {p.grid.t[2]}"):
            call(p, 2)
    # a row set is refused at its first singular row in row order
    for rows, first in (([3, 4, 1, 2], 4), (slice(None), 2), (np.array([0, 1, 0, 2, 4]), 2),
                        (np.array([False, True, True, True, True]), 2), (-1, 4)):
        with pytest.raises(SingularGeneratorError, match=f"at grid index {first}, t = "):
            me.generator_residual(p, rows, bath, SQUEEZED)
    assert np.all(me.generator_residual(p, [0, 1, 3], bath, SQUEEZED) < 1e-8)
    for rows in (1, [0, 1, 3], slice(None)):
        with pytest.raises(ParameterError, match="number-state"):
            me.generator_residual(p, rows, NumberStateBath([1]), SQUEEZED)
    # a row set of generator coefficients flags instead of raising
    series = me.generator_coefficients(p, slice(None), bath)
    assert series["valid"][1]
    assert not series["valid"][2]
    assert np.isnan(series["xi"][2])
    assert np.isfinite(series["xi"][1])
    rows = me.generator_coefficients(p, [3, 4, 1, 2], bath)
    assert rows["valid"].tolist() == [True, False, True, False]
    assert np.isnan(rows["xi"][[1, 3]]).all() and np.isfinite(rows["xi"][[0, 2]]).all()


def test_near_floor_denominator_not_regularized():
    m = load_sample_model("purity-cat-vacuum")
    u = float(np.real(m.u[0]))
    # cos^2(u t) = 100 * floor: close to singular but still valid
    t_near = (math.pi / 2.0 - math.sqrt(100.0 * me.DENOM_FLOOR)) / u
    p = compute_propagator(m, TimeGrid(np.array([0.0, t_near])))
    xi, zeta, denom = _drift(p, 1)
    assert denom == pytest.approx(100.0 * me.DENOM_FLOOR, rel=1e-4)
    # |xi| ~ u / sqrt(denom): genuinely large, not clipped
    assert abs(xi) > 0.9 * u / math.sqrt(100.0 * me.DENOM_FLOOR)
    assert math.isfinite(abs(xi))


def test_equilibrium_generator_shape(ohmic_rwa):
    p = ohmic_rwa
    series = me.generator_coefficients(p, slice(None), EquilibriumBath(1.3))
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
    amps = sample_coherent_states(1.0, p.model, np.random.default_rng(17), 1).amps[0]
    g0 = me.generator_coefficients(p, 0, CoherentStateBath(amps))
    assert g0["kappa"] == 0.0
    assert g0["mu"] == 0.0
    expected = -1j * (p.model.u @ amps + p.model.v @ np.conj(amps))
    assert abs(g0["sigma"] - expected) < 1e-13


def test_generator_residual_gaussian_baths(ohmic_rwa, ohmic_pp):
    # pair coupling drives |A|^2 - |C|^2 through zero deep in the plateau, so
    # the late index is only checked where the generator exists
    for p, indices in ((ohmic_rwa, (3, 17, 48, 90)), (ohmic_pp, (3, 17, 48))):
        amps = sample_coherent_states(1.5, p.model, np.random.default_rng(23), 1).amps[0]
        for bath in (EquilibriumBath(1.3), CoherentStateBath(amps)):
            for s in (SQUEEZED, vacuum_state()):
                for i in indices:
                    assert me.generator_residual(p, i, bath, s) < 1e-8


def test_generator_residual_cat_state(ohmic_rwa):
    # non-Gaussian oscillator state exercises the chi0-Wirtinger left side
    p = ohmic_rwa
    for i in (5, 40, 77):
        assert me.generator_residual(p, i, EquilibriumBath(2.0), CAT) < 1e-8


def _row_selectors(p):
    """A slice, an integer array with negative and repeated indices, and a mask; all rows
    before pair coupling drives |A|^2 - |C|^2 through zero."""
    early = np.arange(p.n_times) < 60
    return (slice(2, 60, 11), np.array([-p.n_times, 48, 3, 48, 17]),
            early & (np.arange(p.n_times) % 13 == 5))


def test_generator_residual_row_sets_equal_one_index_calls_bitwise(ohmic_rwa, ohmic_pp):
    for p in (ohmic_rwa, ohmic_pp):
        amps = sample_coherent_states(1.5, p.model, np.random.default_rng(23), 1).amps[0]
        for bath in (EquilibriumBath(1.3), CoherentStateBath(amps)):
            for s, sel in itertools.product((SQUEEZED, vacuum_state(), CAT), _row_selectors(p)):
                got = me.generator_residual(p, sel, bath, s)
                indices = np.arange(p.n_times)[sel]
                assert got.shape == indices.shape and np.all(got < 1e-8)
                for r, i in enumerate(indices):
                    assert got[r] == me.generator_residual(p, int(i), bath, s), (s, i)


def test_number_bath_slices_keep_their_values(ohmic_rwa, ohmic_pp):
    # frozen values of d chi/dt for a number bath at three nodes, and the flag counts
    # and residual of the general generator on nodes wide enough to reach Laguerre zeros
    frozen = (
        (ohmic_rwa, [-0.0009002620978348164 - 0.020457177528299883j,
                     -0.0010910009008005379 - 0.033006399057433286j,
                     0.0014974157875700855 + 0.004523117976699825j]),
        (ohmic_pp, [-0.0025692315792484287 - 0.00144661667091463j,
                    0.0005966235241729814 - 0.0014635755451904648j,
                    -0.010464601114728384 + 0.004414041242600038j]),
    )
    eta = np.array([0.5 + 0.2j, -0.3 + 0.7j, 1.1 - 0.4j])
    for p, want in frozen:
        occs = np.zeros(p.n_modes, dtype=int)
        occs[::7], occs[3] = 2, 5
        _, dchi, _, ok = me.general_generator(p, 33, NumberStateBath(occs), SQUEEZED, eta)
        assert np.all(ok) and np.max(np.abs(dchi - want) / np.abs(want)) < 1e-13
    occs = np.zeros(64, dtype=int)
    occs[np.arange(0, 60, 4)] = np.repeat(np.arange(1, 6), 3)
    for p, i, n_flagged in ((ohmic_rwa, 90, 16), (ohmic_pp, 4, 2)):
        chi, lhs, rhs, ok = me.general_generator(p, i, NumberStateBath(occs), SQUEEZED,
                                                 square_eta_grid(6.0, 21))
        assert (int((~ok).sum()), ok.size) == (n_flagged, 441)
        assert np.max(np.abs(lhs - rhs)[ok]) / np.max(np.abs(chi)) < 1e-8


def test_general_residual_number_bath(ohmic_rwa, keyed_rng):
    p = ohmic_rwa
    occs = sample_number_states(2.0, p.model, keyed_rng(55, 0), 1).n[0]
    bath = NumberStateBath(occs)
    nodes = square_eta_grid(2.5, 21)  # the nodes of general_generator_residual
    for i in (4, 33, 66, 95):
        assert me.general_generator_residual(p, i, bath, SQUEEZED) < 1e-8
        *_, ok = me.general_generator(p, i, bath, SQUEEZED, nodes)
        assert int((~ok).sum()) < ok.size // 10
    with pytest.raises(ParameterError):
        me.generator_residual(p, 10, bath, SQUEEZED)


def test_general_residual_reduces_general_generator_on_its_nodes(ohmic_rwa):
    p, bath = ohmic_rwa, NumberStateBath([3] + [0] * (ohmic_rwa.model.n_modes - 1))
    nodes = square_eta_grid(2.5, 21)
    for i in (4, 66):
        chi, lhs, rhs, ok = me.general_generator(p, i, bath, SQUEEZED, nodes)
        want = np.max(np.abs(lhs - rhs)[ok]) / np.max(np.abs(chi))
        assert me.general_generator_residual(p, i, bath, SQUEEZED) == want


def test_general_residual_skips_flagged_nodes_and_is_nan_when_all_are(ohmic_rwa, monkeypatch):
    p, bath = ohmic_rwa, NumberStateBath([1] + [0] * (ohmic_rwa.model.n_modes - 1))
    chi, lhs, rhs, ok = me.general_generator(p, 4, bath, SQUEEZED, square_eta_grid(2.5, 21))
    assert ok.all()
    bad, ok_but_one = rhs.copy(), ok.copy()
    bad[100] += 1e6  # a node the residual must not read once flagged
    ok_but_one[100] = False
    sides = {"one": (chi, lhs, bad, ok_but_one), "all": (chi, lhs, rhs, np.zeros_like(ok))}
    monkeypatch.setattr(me, "general_generator", lambda *args: sides[flags])
    flags = "one"
    want = np.max(np.abs(lhs - rhs)[ok_but_one]) / np.max(np.abs(chi))
    assert me.general_generator_residual(p, 4, bath, SQUEEZED) == want < 1e-8
    flags = "all"
    assert math.isnan(me.general_generator_residual(p, 4, bath, SQUEEZED))


def test_mastereq_public_names():
    import inspect

    import qbath

    assert sorted(me.__all__) == sorted(["DENOM_FLOOR", "generator_coefficients",
                                         "generator_residual", "general_generator",
                                         "general_generator_residual"])
    for gone in ("chi_time_derivative", "general_generator_apply", "GeneralResidualReport"):
        assert not hasattr(me, gone) and not hasattr(qbath, gone)
    for residual in (me.generator_residual, me.general_generator_residual):
        assert "eta" not in inspect.signature(residual).parameters


def _logF_derivs_per_mode(p, i, bath, eta):
    """Reference for me._logF_derivs: the vacuum Gaussian plus one Laguerre mode at a time."""
    fs = bath_sums(p, i, EquilibriumBath(math.inf), derivs=True)
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
    # checks the D terms; the wide grid reaches Laguerre zeros on both models.
    # One row-set call takes three grid rows, on the same nodes and on
    # scaled nodes, one row of nodes per grid row.
    occs = np.zeros(64, dtype=int)
    occs[np.arange(0, 60, 4)] = np.repeat(np.arange(1, 6), 3)
    bath = NumberStateBath(occs)
    rows = np.array([4, 40, 90])
    flagged = 0
    for p, scale in itertools.product((ohmic_rwa, ohmic_pp), ([1.0] * 3, [1.0, 0.9, 1.1])):
        eta = np.array(scale)[:, None] * square_eta_grid(6.0, 21)
        got = me._logF_derivs(p, rows, bath, eta)
        for r, i in enumerate(rows):
            ref = _logF_derivs_per_mode(p, i, bath, eta[r])
            for a, b in zip(got[:3], ref[:3]):
                assert a.shape == eta.shape
                assert np.max(np.abs(a[r] - b)) <= 1e-13 * np.max(np.abs(b))
            assert got[3].shape == eta.shape
            assert np.array_equal(got[3][r], ref[3])
            flagged += int((~ref[3]).sum())
    assert flagged > 0


def test_index_slices_keep_the_shape_of_eta(ohmic_rwa, ohmic_pp):
    # a 2-D eta gives the flat call's values in eta's shape
    occs = np.zeros(64, dtype=int)
    occs[np.arange(0, 60, 4)] = np.repeat(np.arange(1, 6), 3)
    flat = square_eta_grid(6.0, 21)
    for p, bath in itertools.product((ohmic_rwa, ohmic_pp),
                                     (NumberStateBath(occs), EquilibriumBath(1.3))):
        for i in (4, 40):
            got = me.general_generator(p, i, bath, SQUEEZED, flat.reshape(21, 21))
            for a, b in zip(got, me.general_generator(p, i, bath, SQUEEZED, flat)):
                assert a.shape == (21, 21)
                assert a.tobytes() == b.reshape(21, 21).tobytes()


def test_general_path_agrees_with_gaussian_path(ohmic_pp):
    p = ohmic_pp
    i = 42
    bath = EquilibriumBath(0.9)
    eta = square_eta_grid(2.0, 15)
    _, lhs, rhs_general, ok = me.general_generator(p, i, bath, SQUEEZED, eta)
    assert np.all(ok)
    assert np.max(np.abs(lhs - rhs_general)) < 1e-10


def test_normalization_is_preserved(ohmic_pp):
    # chi(0, t) = 1 for all t: the time derivative at eta = 0 vanishes
    p = ohmic_pp
    amps = sample_coherent_states(1.0, p.model, np.random.default_rng(8), 1).amps[0]
    for bath in (EquilibriumBath(1.0), CoherentStateBath(amps)):
        for i in (0, 25, 70):
            _, dchi, rhs, ok = me.general_generator(p, i, bath, CAT, np.array([0.0j]))
            assert ok[0]
            assert abs(dchi[0]) < 1e-13
            assert abs(rhs[0]) < 1e-13


def test_time_derivative_hermiticity(ohmic_pp):
    p = ohmic_pp
    eta = square_eta_grid(2.0, 9)
    bath = EquilibriumBath(1.1)
    _, plus, _, _ = me.general_generator(p, 31, bath, CAT, eta)
    _, minus, _, _ = me.general_generator(p, 31, bath, CAT, -eta)
    assert np.max(np.abs(minus - np.conj(plus))) < 1e-13


def test_sigma_is_linear_in_amplitudes(ohmic_pp):
    # sigma = sum_k P_k beta_k + Q_k beta_k^* with coefficients fixed by the
    # drift pair and the propagator row derivatives
    p = ohmic_pp
    i = 30
    xi, zeta, _ = _drift(p, i)
    b, d, db, dd = p.B[i], p.D[i], p.dB[i], p.dD[i]
    P = zeta * np.conj(d) - xi * b + db
    Q = zeta * np.conj(b) - xi * d + dd
    rng = np.random.default_rng(61)
    for _ in range(20):
        amps = rng.normal(size=p.n_modes) + 1j * rng.normal(size=p.n_modes)
        sigma = me.generator_coefficients(p, i, CoherentStateBath(amps))["sigma"]
        assert abs(sigma - (P @ amps + Q @ np.conj(amps))) < 1e-12


def test_sigma_ensemble_statistics(ohmic_pp):
    # over the coherent ensemble sigma has zero mean and covariance fixed by
    # the same linear map; checked against direct sampling
    p = ohmic_pp
    i = 30
    beta = 1.5
    xi, zeta, _ = _drift(p, i)
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


def test_generator_coefficients_validation(ohmic_rwa):
    p = ohmic_rwa
    number = NumberStateBath(np.zeros(p.n_modes, dtype=int))
    short = CoherentStateBath(np.zeros(3, dtype=complex))
    members = sample_coherent_states(1.3, p.model, 3, 4)
    for rows in (1, slice(None), [0, 2], np.arange(p.n_times) > 5):
        with pytest.raises(ParameterError, match="number-state"):
            me.generator_coefficients(p, rows, number)
        with pytest.raises(ParameterError, match=f"expected {p.n_modes} amplitudes"):
            me.generator_coefficients(p, rows, short)
        with pytest.raises(ParameterError, match="members"):
            me.generator_coefficients(p, rows, members)
    fs = bath_sums(p, slice(None), EquilibriumBath(0.9), derivs=True)
    assert fs.alpha.shape == (p.n_times,)
    assert np.all(fs.delta == 0.0)
