"""Scalar entry points are one-row slices of the whole-grid kernels: equal bitwise.

A member matrix on one row equals its members evaluated one at a time, bitwise.
"""

import math

import numpy as np
import pytest

from qbath import TimeGrid, compute_propagator
from qbath import mastereq as me
from qbath import observables as obs
from qbath.baths import (
    CoherentStateBath,
    EquilibriumBath,
    NumberStateBath,
    bath_F_eval,
    bath_sums,
    sample_coherent_states,
    sample_number_states,
)
from qbath.errors import ParameterError, SingularGeneratorError
from qbath.propagator import row_slice
from qbath.states import CatState, SqueezedDisplaced

from conftest import load_sample_model

SQUEEZED = SqueezedDisplaced(disp=0.5 - 0.1j, r=0.6, phi=0.3)
INDICES = (0, 1, 17, 50, -1)
BETAS = (1.3, math.inf)


@pytest.fixture(params=["ohmic_rwa", "ohmic_pp", "flat_custom"])
def prop(request):
    return request.getfixturevalue(request.param)


def _coherent(p, keyed_rng):
    return CoherentStateBath(sample_coherent_states(2.0, p.model, keyed_rng(5, 0), 1).amps[0])


def _bits(fs):
    """The bytes of every field of a GaussianFSeries (None where not computed)."""
    return tuple(None if v is None else np.asarray(v).tobytes() for v in vars(fs).values())


def _slice_equals_series(p, bath):
    """bath_sums at each index, and on each row set, is its rows of the whole-grid call, bitwise."""
    for derivs in (False, True):
        fs = bath_sums(p, slice(None), bath, derivs=derivs)
        for i in INDICES:
            f = bath_sums(p, i, bath, derivs=derivs)
            assert all(np.ndim(v) == 0 for v in vars(f).values() if v is not None)
            assert _bits(f) == _bits(fs[i])
        for rows in _row_sets(p):
            indices = np.arange(p.n_times)[rows]
            sub = bath_sums(p, rows, bath, derivs=derivs)
            assert all(v.shape == indices.shape for v in vars(sub).values() if v is not None)
            assert _bits(sub) == _bits(fs[indices])


def test_equilibrium_params_equal_series(prop):
    for beta in BETAS:
        _slice_equals_series(prop, EquilibriumBath(beta))


def test_coherent_delta_equals_series(prop, keyed_rng):
    _slice_equals_series(prop, _coherent(prop, keyed_rng))


def test_number_sums_equal_series(prop):
    n = np.zeros(prop.n_modes, dtype=int)
    n[::7] = 2
    _slice_equals_series(prop, NumberStateBath(n))


def test_generator_coefficients_equal_each_row(prop, keyed_rng):
    for bath in (EquilibriumBath(1.3), _coherent(prop, keyed_rng)):
        series = me.generator_coefficients(prop, slice(None), bath)
        assert all(v.shape == (prop.n_times,) for v in series.values())
        for i in INDICES:
            if not series["valid"][i]:
                # flat-custom's last point sits past a zero of |A|^2 - |C|^2
                with pytest.raises(SingularGeneratorError):
                    me.generator_coefficients(prop, i, bath)
                continue
            c = me.generator_coefficients(prop, i, bath)
            assert c == {key: v[i].item() for key, v in series.items()}
            assert all(type(v) in (float, complex, bool) for v in c.values())
        for rows in _row_sets(prop):
            indices = np.arange(prop.n_times)[rows]
            sub = me.generator_coefficients(prop, rows, bath)
            for key, v in sub.items():
                # NaN on flagged rows: compare the bits, not the values
                assert v.shape == indices.shape, key
                assert v.tobytes() == series[key][indices].tobytes(), key


def _row_sets(p):
    """A slice, an integer array with negative and repeated indices, and a mask."""
    mask = np.zeros(p.n_times, dtype=bool)
    mask[2::13] = True
    return slice(3, None, 11), np.array([-1, 17, 0, 17, -p.n_times, 50]), mask


def test_moments_equal_observable_series(prop, keyed_rng):
    n = np.zeros(prop.n_modes, dtype=int)
    n[::7] = 2
    baths = (EquilibriumBath(1.3), _coherent(prop, keyed_rng), NumberStateBath(n))
    for bath in baths:
        # the whole grid, as observable_series takes it
        mean_x, mean_p = obs.mean_xp(prop, slice(None), bath, SQUEEZED)
        var_x, var_p = obs.variances(prop, slice(None), bath, SQUEEZED)
        for i in INDICES:
            assert obs.mean_xp(prop, i, bath, SQUEEZED) == (mean_x[i], mean_p[i])
            assert obs.variances(prop, i, bath, SQUEEZED) == (var_x[i], var_p[i])
        for rows in _row_sets(prop):
            indices = np.arange(prop.n_times)[rows]
            moments = (*obs.mean_xp(prop, rows, bath, SQUEEZED),
                       *obs.variances(prop, rows, bath, SQUEEZED))
            assert all(v.shape == indices.shape for v in moments)
            for k, i in enumerate(indices.tolist()):
                assert obs.mean_xp(prop, i, bath, SQUEEZED) == (moments[0][k], moments[1][k])
                assert obs.variances(prop, i, bath, SQUEEZED) == (moments[2][k], moments[3][k])


def test_member_batch_equals_members(prop):
    seed, m = 23, 4
    for beta in BETAS:
        number = sample_number_states(beta, prop.model, seed, m)
        coherent = sample_coherent_states(beta, prop.model, seed, m)
        assert number.n.shape == coherent.amps.shape == (m, prop.n_modes)
        singles = [(NumberStateBath(number.n[k]), CoherentStateBath(coherent.amps[k]))
                   for k in range(m)]
        for i in INDICES:
            rows = row_slice(prop, i)
            for batch, member in ((number, 0), (coherent, 1)):
                # members share what their preparation does not enter: a number batch's
                # means and delta, a coherent batch's variances
                mx, mp, vx, vp, delta = (np.broadcast_to(v, (m,)) for v in (
                    *obs.mean_xp(prop, rows, batch, SQUEEZED),
                    *obs.variances(prop, rows, batch, SQUEEZED),
                    bath_sums(prop, rows, batch).delta))
                for k in range(m):
                    bath = singles[k][member]
                    assert obs.mean_xp(prop, i, bath, SQUEEZED) == (mx[k], mp[k])
                    assert obs.variances(prop, i, bath, SQUEEZED) == (vx[k], vp[k])
                    assert bath_sums(prop, rows, bath).delta[0] == delta[k]


def test_drive_blocks_equal_members(ohmic_pp):
    # more members than one 256-row block of the drive sum, checked across block edges
    batch = sample_coherent_states(1.3, ohmic_pp.model, 8, 600)
    delta = bath_sums(ohmic_pp, row_slice(ohmic_pp, 17), batch).delta
    assert delta.shape == (600,)
    for k in (0, 255, 256, 511, 512, 599):
        single = CoherentStateBath(batch.amps[k])
        assert delta[k] == bath_sums(ohmic_pp, row_slice(ohmic_pp, 17), single).delta[0]


def test_member_matrix_needs_one_row_and_a_batch_entry_point(prop):
    # as many members as grid points: broadcasting would pair row t with member t
    number = sample_number_states(1.3, prop.model, 3, prop.n_times)
    coherent = sample_coherent_states(1.3, prop.model, 3, prop.n_times)
    for batch in (number, coherent):
        for rows in (slice(None), [0, 1]):
            for entry in (obs.mean_xp, obs.variances):
                with pytest.raises(ParameterError, match="one propagator row"):
                    entry(prop, rows, batch, SQUEEZED)
            with pytest.raises(ParameterError, match="one propagator row"):
                bath_sums(prop, rows, batch)
        with pytest.raises(ParameterError):
            obs.observable_series(prop, batch, SQUEEZED)
        for scalar in (obs.purity, obs.mean_xp, obs.variances):
            with pytest.raises(ParameterError, match="members"):
                scalar(prop, 1, batch, SQUEEZED)
        with pytest.raises(ParameterError, match="members"):
            obs.purity(prop, 1, batch, SQUEEZED, method="quadrature")
        with pytest.raises(ParameterError, match="members"):
            bath_F_eval(prop, 1, batch, np.array([0.3 + 0.1j]))
        with pytest.raises(ParameterError, match="members"):
            me.general_generator(prop, 1, batch, SQUEEZED, np.array([0.3 + 0.1j]))
        with pytest.raises(ParameterError, match="members"):
            me.general_generator_residual(prop, 1, batch, SQUEEZED)
    # purity has a member path for number states only, on one row
    for rows in (slice(None), [0, 1]):
        with pytest.raises(ParameterError, match="one propagator row"):
            obs.purity(prop, rows, number, SQUEEZED)
    with pytest.raises(ParameterError, match="members"):
        obs.purity(prop, row_slice(prop, 1), coherent, SQUEEZED)
    # a number bath of the wrong length has no preparation for the model's modes
    short = NumberStateBath([1, 2])
    for rows in (5, slice(None)):
        with pytest.raises(ParameterError, match=f"expected {prop.n_modes} occupations"):
            obs.mean_xp(prop, rows, short, SQUEEZED)
    with pytest.raises(ParameterError, match=f"expected {prop.n_modes} occupations"):
        bath_sums(prop, slice(None), short)
    for batch in (number, coherent):
        with pytest.raises(ParameterError, match="members"):
            bath_sums(prop, 1, batch)
    for rows in (1, [0, 1]):
        with pytest.raises(ParameterError, match="members"):
            me.generator_residual(prop, rows, coherent, SQUEEZED)
    for rows in (1, slice(None)):
        with pytest.raises(ParameterError, match="members"):
            me.generator_coefficients(prop, rows, coherent)


def test_chi_eval_on_a_row_set_equals_each_row_bitwise(prop, keyed_rng):
    # row r of an (R, P) eta is evaluated on the r-th row of the set, as at its index
    rows = np.array([0, 17, 50, -1, 17])
    eta = np.linspace(0.5, 1.5, rows.size)[:, None] * (np.linspace(-1.0, 1.0, 7) + 0.3j)
    occ = np.zeros(prop.n_modes, dtype=int)
    occ[::7] = 2
    cat = CatState(alpha=1.3 + 0.4j, beta=-0.8 - 0.6j)
    for bath in (EquilibriumBath(1.3), _coherent(prop, keyed_rng), NumberStateBath(occ)):
        for s in (SQUEEZED, cat):
            got = obs.chi_eval(prop, rows, bath, s, eta)
            assert got.shape == eta.shape
            for r, i in enumerate(rows):
                want = obs.chi_eval(prop, int(i), bath, s, eta[r])
                assert got[r].tobytes() == want.tobytes(), (type(bath).__name__, i)


def test_closed_purity_equals_observable_series(prop, keyed_rng):
    for bath in (EquilibriumBath(1.3), _coherent(prop, keyed_rng)):
        series = obs.observable_series(prop, bath, SQUEEZED)
        rows = obs.purity(prop, slice(None), bath, SQUEEZED)
        for i in INDICES:
            assert obs.purity(prop, i, bath, SQUEEZED) == series["purity"][i] == rows[i]


def test_quadrature_purity_row_sets_equal_one_index_purity():
    p = compute_propagator(load_sample_model("purity-cat-vacuum"), TimeGrid.linspace(2.0, 4))
    bath = EquilibriumBath(1.0)
    cat = CatState(alpha=1.3 + 0.4j, beta=-0.8 - 0.6j)
    rows = obs.purity(p, slice(None), bath, cat)
    assert rows.shape == (p.n_times,)
    for i in range(-1, p.n_times):
        assert obs.purity(p, i, bath, cat) == rows[i]


@pytest.mark.parametrize("selector", ["slice", "integers", "mask"])
def test_purity_takes_every_row_selector_on_both_paths(selector):
    p = compute_propagator(load_sample_model("purity-cat-vacuum"), TimeGrid.linspace(2.0, 4))
    rows = {
        "slice": slice(1, None, 2),
        "integers": np.array([3, 1, -1]),
        "mask": np.arange(p.n_times) % 2 == 0,
    }[selector]
    bath = EquilibriumBath(1.0)
    closed = obs.purity(p, rows, bath, SQUEEZED, method="closed")
    quad = obs.purity(p, rows, bath, SQUEEZED, method="quadrature")
    assert closed.shape == quad.shape == p.A[rows].shape
    # a Gaussian |chi|^2 is its own envelope: the one-node rule is exact up to rounding
    np.testing.assert_allclose(quad, closed, rtol=1e-14, atol=0.0)
    cat = CatState(alpha=1.3 + 0.4j, beta=-0.8 - 0.6j)
    cat_rows = obs.purity(p, rows, bath, cat)
    assert cat_rows.shape == p.A[rows].shape
    indices = np.arange(p.n_times)[rows]
    assert cat_rows.tolist() == [obs.purity(p, int(i), bath, cat) for i in indices]


def test_number_ensemble_member_equals_purity(ohmic_rwa, plateau_index):
    # six members: at most three refine the shared grid, the rest are summed on it
    p, beta, seed, n_samples = ohmic_rwa, 2.0, 11, 6
    members = sample_number_states(beta, p.model, seed, n_samples).n
    for i in (5, plateau_index(p)):
        ens = obs.averaged_purity_number_ensemble(p, i, beta, SQUEEZED, n_samples, seed)
        single = obs.summarize([
            obs.purity(p, i, NumberStateBath(occ), SQUEEZED, tol=obs.ENSEMBLE_TOL)
            for occ in members
        ], seed)
        assert abs(ens.estimate - single.estimate) <= 1e-12
        assert abs(ens.std_error - single.std_error) <= 1e-12
