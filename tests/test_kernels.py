"""Scalar entry points are one-row slices of the whole-grid kernels: equal bitwise.

A member matrix on one row equals its members evaluated one at a time, bitwise.
"""

import math

import numpy as np
import pytest

from qbath import TimeGrid, compute_propagator, stock_model
from qbath import mastereq as me
from qbath import observables as obs
from qbath.baths import (
    CoherentStateBath,
    EquilibriumBath,
    NumberStateBath,
    coherent_F_params,
    equilibrium_F_params,
    bath_delta,
    bath_F_eval,
    bath_f_params,
    member_rng,
    number_F_eval,
    sample_coherent_state,
    sample_coherent_states,
    sample_number_state,
    sample_number_states,
)
from qbath.errors import ParameterError, SingularGeneratorError
from qbath.propagator import row_slice
from qbath.states import CatState, SqueezedDisplaced

SQUEEZED = SqueezedDisplaced(disp=0.5 - 0.1j, r=0.6, phi=0.3)
INDICES = (0, 1, 17, 50, -1)
BETAS = (1.3, math.inf)


@pytest.fixture(params=["ohmic_rwa", "ohmic_pp", "flat_custom"])
def prop(request):
    return request.getfixturevalue(request.param)


def _amps(p):
    return sample_coherent_state(2.0, p.model, member_rng(5, 0)).amps


def test_equilibrium_params_equal_series(prop):
    for beta in BETAS:
        fs = me.equilibrium_f_series(prop, beta)
        for i in INDICES:
            f = equilibrium_F_params(prop, i, beta)
            assert f.alpha == fs.alpha[i]
            assert f.gamma == fs.gamma[i]


def test_coherent_delta_equals_series(prop):
    amps = _amps(prop)
    fs = me.coherent_f_series(prop, amps)
    for i in INDICES:
        f = coherent_F_params(prop, i, amps)
        assert f.delta == fs.delta[i]
        assert (f.alpha, f.gamma) == (fs.alpha[i], fs.gamma[i])


def test_gaussian_generator_equals_series(prop):
    for fs in (me.equilibrium_f_series(prop, 1.3), me.coherent_f_series(prop, _amps(prop))):
        series = me.generator_series(prop, fs)
        for i in INDICES:
            if not series["valid"][i]:
                # flat-custom's last point sits past a zero of |A|^2 - |C|^2
                with pytest.raises(SingularGeneratorError):
                    me.gaussian_generator(prop, i, fs)
                continue
            c = me.gaussian_generator(prop, i, fs)
            for key in ("xi", "zeta", "kappa", "mu", "sigma", "denom", "valid"):
                assert getattr(c, key) == series[key][i], key
            xi, zeta, denom = me.xi_zeta(prop, i)
            assert (xi, zeta, denom) == (series["xi"][i], series["zeta"][i], series["denom"][i])


def test_moments_equal_observable_series(prop):
    n = np.zeros(prop.n_modes, dtype=int)
    n[::7] = 2
    baths = (EquilibriumBath(1.3), CoherentStateBath(_amps(prop)), NumberStateBath(n))
    for bath in baths:
        series = obs.observable_series(prop, bath, SQUEEZED, with_purity=False)
        for i in INDICES:
            means = obs.mean_xp(prop, i, bath, SQUEEZED)
            assert means == (series["mean_x"][i], series["mean_p"][i])
            variances = obs.variances(prop, i, bath, SQUEEZED)
            assert variances == (series["var_x"][i], series["var_p"][i])


def test_member_batch_equals_members(prop):
    seed, m = 23, 4
    for beta in BETAS:
        number = sample_number_states(beta, prop.model, seed, m)
        coherent = sample_coherent_states(beta, prop.model, seed, m)
        assert number.n.shape == coherent.amps.shape == (m, prop.n_modes)
        singles = []
        for k in range(m):
            n_k = sample_number_state(beta, prop.model, member_rng(seed, k))
            a_k = sample_coherent_state(beta, prop.model, member_rng(seed, k))
            assert np.array_equal(number.n[k], n_k.n) and number.n.dtype == n_k.n.dtype
            assert np.array_equal(coherent.amps[k], a_k.amps)
            singles.append((n_k, a_k))
        for i in INDICES:
            rows = row_slice(i)
            for batch, member in ((number, 0), (coherent, 1)):
                # members share what their preparation does not enter: a number batch's
                # means and delta, a coherent batch's variances
                mx, mp, vx, vp, delta = (np.broadcast_to(v, (m,)) for v in (
                    *obs.mean_rows(prop, rows, batch, SQUEEZED),
                    *obs.variance_rows(prop, rows, batch, SQUEEZED),
                    bath_delta(prop, rows, batch)))
                for k in range(m):
                    bath = singles[k][member]
                    assert obs.mean_xp(prop, i, bath, SQUEEZED) == (mx[k], mp[k])
                    assert obs.variances(prop, i, bath, SQUEEZED) == (vx[k], vp[k])
                    assert bath_delta(prop, rows, bath)[0] == delta[k]


def test_drive_blocks_equal_members(ohmic_pp):
    # more members than one 256-row block of the drive sum, checked across block edges
    batch = sample_coherent_states(1.3, ohmic_pp.model, 8, 600)
    delta = bath_delta(ohmic_pp, row_slice(17), batch)
    assert delta.shape == (600,)
    for k in (0, 255, 256, 511, 512, 599):
        single = CoherentStateBath(batch.amps[k])
        assert delta[k] == bath_delta(ohmic_pp, row_slice(17), single)[0]


def test_member_matrix_needs_one_row_and_a_batch_entry_point(prop):
    # as many members as grid points: broadcasting would pair row t with member t
    number = sample_number_states(1.3, prop.model, 3, prop.n_times)
    coherent = sample_coherent_states(1.3, prop.model, 3, prop.n_times)
    for batch in (number, coherent):
        for rows in (slice(None), [0, 1]):
            with pytest.raises(ParameterError, match="one propagator row"):
                obs.variance_rows(prop, rows, batch, SQUEEZED)
        with pytest.raises(ParameterError):
            obs.observable_series(prop, batch, SQUEEZED, with_purity=False)
        for scalar in (obs.purity, obs.mean_xp, obs.variances):
            with pytest.raises(ParameterError, match="members"):
                scalar(prop, 1, batch, SQUEEZED)
        with pytest.raises(ParameterError, match="members"):
            obs.purity(prop, 1, batch, SQUEEZED, method="quadrature")
        with pytest.raises(ParameterError, match="members"):
            bath_F_eval(prop, 1, batch, np.array([0.3 + 0.1j]))
    for rows in (slice(None), [0, 1]):
        with pytest.raises(ParameterError, match="one propagator row"):
            bath_delta(prop, rows, coherent)
        with pytest.raises(ParameterError, match="one propagator row"):
            obs.mean_rows(prop, rows, coherent, SQUEEZED)
    with pytest.raises(ParameterError, match="members"):
        bath_f_params(prop, 1, coherent)
    with pytest.raises(ParameterError, match="members"):
        number_F_eval(prop, 1, number.n, np.array([0.3 + 0.1j]))


def test_closed_purity_equals_observable_series(prop):
    for bath in (EquilibriumBath(1.3), CoherentStateBath(_amps(prop))):
        series = obs.observable_series(prop, bath, SQUEEZED)
        rows = obs.purity_rows(prop, slice(None), bath, SQUEEZED)
        for i in INDICES:
            assert obs.purity(prop, i, bath, SQUEEZED) == series["purity"][i] == rows[i]


def test_quadrature_purity_rows_equal_purity():
    p = compute_propagator(stock_model("rwa-n1-resonant"), TimeGrid.linspace(2.0, 4))
    bath = EquilibriumBath(1.0)
    cat = CatState(alpha=1.3 + 0.4j, beta=-0.8 - 0.6j)
    rows = obs.purity_rows(p, slice(None), bath, cat)
    assert rows.shape == (p.n_times,)
    for i in range(-1, p.n_times):
        assert obs.purity(p, i, bath, cat) == rows[i]


def test_number_ensemble_member_equals_purity(ohmic_rwa, plateau_index):
    # six members: at most three refine the shared grid, the rest are summed on it
    p, beta, seed, n_samples = ohmic_rwa, 2.0, 11, 6
    for i in (5, plateau_index(p)):
        ens = obs.averaged_purity_number_ensemble(p, i, beta, SQUEEZED, n_samples, seed)
        single = obs.summarize([
            obs.purity(p, i, sample_number_state(beta, p.model, member_rng(seed, k)), SQUEEZED,
                       tol=obs.ENSEMBLE_TOL)
            for k in range(n_samples)
        ], seed)
        assert abs(ens.estimate - single.estimate) <= 1e-12
        assert abs(ens.std_error - single.std_error) <= 1e-12
