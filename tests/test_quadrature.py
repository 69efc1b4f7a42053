"""Gauss-Hermite purity quadrature against a plain fixed-square midpoint reference."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.special import eval_laguerre

from qbath import TimeGrid, baths, compute_propagator, laguerre, states
from qbath import observables as obs
from qbath.baths import (
    CoherentStateBath,
    EquilibriumBath,
    NumberStateBath,
    sample_number_states,
)
from qbath.config import parse_config
from qbath.errors import PhysicalityError
from qbath.propagator import PropagatorCoefficients, row_slice
from qbath.states import CatState, SqueezedDisplaced

from conftest import load_sample_config

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
            rows = np.array([i])
            whiten, scale = obs._whitened(p, rows, SQUEEZED, zero_t)
            at, above = (
                obs._levels(p, rows, SQUEEZED, zero_t, whiten, (n,), occs)(slice(None))[0, 0, 0]
                * scale[0]
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
        rows = np.array([plateau_index(p)])
        occs = sample_number_states(1.0, p.model, 21, 40).n
        occs[5] = 0
        whiten, _ = obs._whitened(p, rows, SQUEEZED, zero_t)
        level = obs._levels(p, rows, SQUEEZED, zero_t, whiten, (33,), occs)
        whole = level(slice(None))[0, :, 0]
        assert np.isfinite(whole).all()
        for m in range(occs.shape[0]):
            alone = obs._levels(p, rows, SQUEEZED, zero_t, whiten, (33,), occs[m : m + 1])
            assert whole[m] == level([m])[0, 0, 0] == alone(slice(None))[0, 0, 0], m


def test_member_purity_memory_does_not_grow_with_members(ohmic_rwa, plateau_index):
    p = ohmic_rwa
    i = plateau_index(p)
    peaks = []
    for count in (100, 800):
        members = sample_number_states(2.0, p.model, 5, count)
        tracemalloc.start()
        try:
            obs.purity(p, row_slice(p, i), members, SQUEEZED, tol=obs.ENSEMBLE_TOL)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


def _full_rule(p, i, s, gauss_bath, whiten, n, occs):
    """Level sums of the members occs on the whole n x n tensor Gauss-Hermite rule.

    chi_eval runs on all n^2 nodes x = whiten y with hermgauss's weights, and
    each member multiplies |chi_g|^2 by scipy's Laguerre factors mode by mode.
    """
    y, w = hermgauss(n)
    wt = w * np.exp(y * y)
    x = whiten @ np.stack(np.broadcast_arrays(y[:, None], y[None, :])).reshape(2, -1)
    eta = x[0] + 1j * x[1]
    weighted = np.outer(wt, wt).ravel() * np.abs(obs.chi_eval(p, i, gauss_bath, s, eta)) ** 2
    sums = []
    for occ in occs:
        f = weighted.copy()
        for k in np.flatnonzero(occ):
            xk = np.abs(eta * np.conj(p.B[i, k]) - np.conj(eta) * p.D[i, k]) ** 2
            f *= eval_laguerre(int(occ[k]), xk) ** 2
        sums.append(f.sum())
    return np.array(sums)


def _half_plane_cases(p):
    """(state, common Gaussian bath, member matrix) of the three quadrature kinds."""
    none = np.zeros((1, p.n_modes), dtype=int)
    amps = 0.4 * np.exp(1j * np.arange(p.n_modes))
    return {
        "cat-thermal": (CAT, EquilibriumBath(1.0), none),
        "cat-coherent": (CAT, CoherentStateBath(amps), none),
        "squeezed-number": (SQUEEZED, EquilibriumBath(math.inf),
                            sample_number_states(1.0, p.model, 9, 12).n),
    }


@pytest.mark.parametrize("n", [16, 25, 32, 33])
def test_half_plane_level_equals_the_full_tensor_rule(ohmic_rwa, ohmic_pp, plateau_index, n):
    # |chi|^2 is even in eta and the nodes pair up exactly, so half of them give the sum.
    # The library's factors L_n(x) come from the upward recurrence, scipy's from another
    # evaluation; the recurrence's relative error in L_n(x)^2 grows like n^2 eps (at most
    # n^2 eps / 4 for x <~ 1/n, where a low-frequency mode's weight sits; less beyond). The
    # node terms are positive, so a member's level sum is off by at most
    #     1e-14 + eps * sum_k n_k^2 / 4    (relative),
    # which is 1e-14 for the cats and the Gaussian baths.
    for p in (ohmic_rwa, ohmic_pp):
        for i in (*EARLY, plateau_index(p)):
            for case, (s, gauss_bath, occs) in _half_plane_cases(p).items():
                rows = np.array([i])
                whiten, _ = obs._whitened(p, rows, s, gauss_bath)
                half = obs._levels(p, rows, s, gauss_bath, whiten, (n,), occs)(slice(None))[0, :, 0]
                full = _full_rule(p, i, s, gauss_bath, whiten[0], n, occs)
                bound = 1e-14 + np.finfo(float).eps * (occs.astype(float) ** 2).sum(axis=1) / 4
                assert np.all(np.abs(half - full) / full <= bound), (case, i)


def test_joined_levels_equal_single_levels_bitwise(ohmic_rwa, ohmic_pp, plateau_index):
    # one chi_eval call on the joined nodes gives each level the bits it has alone
    for p in (ohmic_rwa, ohmic_pp):
        rows = np.array([plateau_index(p)])
        for case, (s, gauss_bath, occs) in _half_plane_cases(p).items():
            whiten, _ = obs._whitened(p, rows, s, gauss_bath)
            joined = obs._levels(p, rows, s, gauss_bath, whiten, obs.LADDER[:2], occs)
            both = joined(slice(None))
            picked = [occs.shape[0] - 1, 0]  # a member subset on one level, as after convergence
            for k, n in enumerate(obs.LADDER[:2]):
                alone = obs._levels(p, rows, s, gauss_bath, whiten, (n,), occs)(slice(None))[0]
                assert both[k].tobytes() == alone.tobytes(), (case, n)
                one_level = joined(picked, slice(k, k + 1))
                assert one_level.shape == (1, 2, 1)
                assert one_level[0].tobytes() == alone[picked].tobytes(), (case, n)


def test_half_plane_visits_the_full_rule_levels_on_half_the_nodes(
    monkeypatch, ohmic_rwa, ohmic_pp, plateau_index
):
    # nodes are counted per level: one chi_eval call may serve several levels
    chi_eval, levels_of = obs.chi_eval, obs._levels
    nodes, levels = [], []

    def counted_chi_eval(p, i, bath, s, eta):
        nodes.append(np.size(eta))
        return chi_eval(p, i, bath, s, eta)

    def full_levels(p, rows, s, gauss_bath, whiten, ns, occs):
        levels.extend(ns)
        sums = np.array([[_full_rule(p, int(i), s, gauss_bath, w, n, occs)
                          for i, w in zip(rows, whiten)] for n in ns])  # (levels, rows, members)
        sums = sums.transpose(0, 2, 1)
        return lambda members, chosen=slice(None): sums[chosen][:, members]

    def half_levels(*args):
        levels.extend(args[5])
        return levels_of(*args)

    def visits(make_levels, run):
        nodes.clear()
        levels.clear()
        with monkeypatch.context() as m:
            m.setattr(obs, "_levels", make_levels)
            values = np.atleast_1d(run())
        return list(levels), list(nodes), values

    monkeypatch.setattr(obs, "chi_eval", counted_chi_eval)
    for p in (ohmic_rwa, ohmic_pp):
        for i in (*EARLY, plateau_index(p)):
            for case, (s, gauss_bath, occs) in _half_plane_cases(p).items():
                if occs.any():
                    bath = NumberStateBath(occs)
                    run = lambda: obs.purity(  # noqa: E731
                        p, row_slice(p, i), bath, s, tol=obs.ENSEMBLE_TOL)
                else:
                    run = lambda: obs.purity(p, i, gauss_bath, s, method="quadrature")  # noqa: E731
                full_levels_seen, _, full = visits(full_levels, run)
                half_levels_seen, half_nodes, half = visits(half_levels, run)
                assert half_levels_seen == full_levels_seen, (case, i)
                assert sum(half_nodes) == sum(n * ((n + 1) // 2) for n in full_levels_seen), case
                assert half.shape == (occs.shape[0],)
                assert np.max(np.abs(half - full) / full) <= 1e-14, (case, i)


def test_cat_row_converging_at_level_24_takes_one_chi_eval_call(monkeypatch, ohmic_rwa,
                                                                plateau_index):
    # the first two rungs share one evaluation, the bath's Gaussian parameters are taken
    # once for the whitening and once for it, and the cat's overlaps were stored when built
    p, i, bath = ohmic_rwa, plateau_index(ohmic_rwa), EquilibriumBath(1.0)
    cat = CatState(alpha=1.3 + 0.4j, beta=-0.8 - 0.6j)
    expected = obs.purity(p, i, bath, cat, method="quadrature")
    calls = {"chi_eval": [], "bath_sums": [], "coherent_overlap": []}

    def spy(module, name):
        real = getattr(module, name)

        def recorded(*args, **kwargs):
            calls[name].append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)

    for module, name in ((obs, "chi_eval"), (obs, "bath_sums"), (baths, "bath_sums"),
                         (states, "coherent_overlap")):
        spy(module, name)
    assert obs.purity(p, i, bath, cat, method="quadrature") == expected
    assert [np.size(args[-1]) for args in calls["chi_eval"]] == [16 * 8 + 24 * 12]
    assert len(calls["bath_sums"]) == 2
    assert calls["coherent_overlap"] == []


def _block_rows(ns, width):
    """Rows per block of the level set ns: rows x half-plane nodes x width <= BLOCK_VALUES.

    width is the number of occupied modes of a number bath, or 32 without a Laguerre table.
    """
    return max(1, laguerre.BLOCK_VALUES // (width * sum(n * ((n + 1) // 2) for n in ns)))


def _exact_block_rows(bath):
    """Rows per block of a number bath whose first level is the exact rule."""
    exact = 2 * int(bath.n.sum()) + 1
    assert exact <= obs.EXACT_FIRST  # the first level is the exact rule
    return _block_rows((exact,), np.count_nonzero(bath.n))


@pytest.mark.parametrize("model", ["ohmic_rwa", "ohmic_pp"])
def test_number_bath_rows_equal_one_row_purity_bitwise(request, model):
    # an index is the one-row call of the driver that a row set runs on row blocks
    p = request.getfixturevalue(model)
    bath = _singly_occupied(p)
    assert 1 < _exact_block_rows(bath) < p.n_times
    grid = obs.purity(p, slice(None), bath, SQUEEZED)
    assert grid.shape == (p.n_times,) and np.all((grid > 0.0) & (grid <= 1.0))
    single = np.array([obs.purity(p, i, bath, SQUEEZED) for i in range(p.n_times)])
    assert single.tobytes() == grid.tobytes()
    assert obs.purity(p, -1, bath, SQUEEZED) == grid[-1]


def test_number_bath_row_selectors_give_the_grid_bits(ohmic_rwa):
    p = ohmic_rwa
    bath = _singly_occupied(p)
    grid = obs.purity(p, slice(None), bath, SQUEEZED)
    selectors = [
        slice(3, 90, 7),
        np.array([5, -1, 5, 0, -40, 99, 5]),  # negative and repeated indices
        np.arange(p.n_times) % 3 == 1,
    ]
    for rows in selectors:
        got = obs.purity(p, rows, bath, SQUEEZED)
        assert got.shape == p.A[rows].shape
        assert got.tobytes() == grid[rows].tobytes(), rows


def test_number_bath_rows_take_one_chi_eval_call_per_block(monkeypatch, ohmic_rwa):
    p = ohmic_rwa
    bath = _singly_occupied(p)
    step = _exact_block_rows(bath)
    exact = 2 * int(bath.n.sum()) + 1
    shapes, orders = [], []
    chi_eval, eval_scaled = obs.chi_eval, laguerre.eval_scaled

    def counted_chi_eval(p, rows, bath, s, eta):
        shapes.append(np.shape(eta))
        return chi_eval(p, rows, bath, s, eta)

    def counted_eval_scaled(n, x):
        orders.append(n)
        return eval_scaled(n, x)

    monkeypatch.setattr(obs, "chi_eval", counted_chi_eval)
    monkeypatch.setattr(laguerre, "eval_scaled", counted_eval_scaled)
    obs.purity(p, slice(None), bath, SQUEEZED)
    blocks = math.ceil(p.n_times / step)
    assert shapes == [(min(step, p.n_times - k * step), exact * ((exact + 1) // 2))
                      for k in range(blocks)]
    assert orders == [1] * blocks  # one Laguerre table per block: every mode holds one quantum


def test_number_bath_rows_memory_does_not_grow_with_the_grid(ohmic_rwa):
    bath = _singly_occupied(ohmic_rwa)
    assert _exact_block_rows(bath) < ohmic_rwa.n_times  # both grids fill whole blocks
    peaks = []
    for steps in (100, 1600):
        p = compute_propagator(ohmic_rwa.model, TimeGrid.linspace(40.0, steps))
        tracemalloc.start()
        try:
            obs.purity(p, slice(None), bath, SQUEEZED)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


def test_non_positive_envelope_names_the_first_bad_row_in_row_order(ohmic_rwa):
    # |A| = |C| with B = D = 0 makes the envelope's a^2 - 4|g|^2 vanish on a row
    p = ohmic_rwa
    rows = p.rows.copy()
    for k in (7, 40):
        rows[k] = 0.0
        rows[k, 0] = rows[k, p.n_modes + 1] = 0.6
    bad = PropagatorCoefficients(p.model, p.grid, rows, p.route, p.cond_bound)
    bath = _singly_occupied(p)
    for selector, first in ((slice(None), 7), (np.array([50, 40, 3, 7]), 40), (-61, 40)):
        with pytest.raises(PhysicalityError, match=f"at grid index {first}:"):
            obs.purity(bad, selector, bath, SQUEEZED)
    with pytest.raises(PhysicalityError, match="at grid index 7:"):
        obs.purity(bad, 7, bath, SQUEEZED)
    assert obs.purity(bad, slice(8, 40), bath, SQUEEZED).tobytes() == (
        obs.purity(p, slice(8, 40), bath, SQUEEZED).tobytes())


def _envelope(a, g):
    return np.array([[2.0 * a - 4.0 * g.real, -4.0 * g.imag], [-4.0 * g.imag, 2.0 * a + 4.0 * g.real]])


def _whiten_one(a, g, disc):
    return obs._whitening(np.array([a]), np.array([g]), np.array([disc]), [0])


def test_closed_form_whitening_diagonalizes_the_envelope():
    rng = np.random.default_rng(4)
    cases = [(1.0, 0j), (0.5, 0.2 + 0j), (0.5, -0.2 + 0j), (0.5, 0.2j), (0.5, -0.2j), (2.0, -0.0j)]
    for _ in range(200):
        a = 10.0 ** rng.uniform(-6.0, 6.0)
        cases.append((a, 0.5 * a * rng.uniform() * np.exp(2j * np.pi * rng.uniform())))
    for a in (1e-3, 1.0, 7.5):  # |g| within 1e-12 of a/2
        cases += [(a, (0.5 * a - 1e-12) * np.exp(1j * phase)) for phase in (0.0, 0.7, np.pi / 2, 3.0)]
    eps = np.finfo(float).eps
    for a, g in cases:
        g = complex(g)
        # a^2 - 4|g|^2 as a product, whose first factor is exact where a ~ 2|g| (Sterbenz)
        disc = (a - 2.0 * abs(g)) * (a + 2.0 * abs(g))
        whiten, scale = (x[0] for x in _whiten_one(a, g, disc))
        m = _envelope(a, g)
        lam = np.linalg.eigvalsh(m)
        assert lam[0] > 0.0, (a, g)
        # a float whitening is good to eps times the condition number, and to 1e-12 below 1e3
        tol = max(1e-12, 2.0 * eps * lam[1] / lam[0])
        assert np.max(np.abs(whiten.T @ m @ whiten - np.eye(2))) <= tol, (a, g)
        # det M = 4 disc; the determinant of the float entries carries the same condition number
        assert scale == 1.0 / (math.pi * math.sqrt(4.0 * disc))
        assert scale == pytest.approx(1.0 / (math.pi * math.sqrt(np.linalg.det(m))), rel=tol)
    for a, g in [(1.0, 0.5 + 0j), (1.0, 0.5j), (1.0, 0.6 * np.exp(1j)), (-1.0, 0j), (0.0, 0j)]:
        with pytest.raises(PhysicalityError):
            _whiten_one(a, complex(g), (a - 2.0 * abs(g)) * (a + 2.0 * abs(g)))


# lobes far enough apart that some rows go on to levels 64 and 128
WIDE_CAT = CatState(alpha=2.5, beta=-2.5)
CAT_BATHS = {
    "vacuum": lambda p: EquilibriumBath(math.inf),
    "thermal": lambda p: EquilibriumBath(1.0),
    "coherent": lambda p: CoherentStateBath(0.4 * np.exp(1j * np.arange(p.n_modes))),
}


@pytest.mark.parametrize("cat", [CAT, WIDE_CAT], ids=["cat", "wide-cat"])
@pytest.mark.parametrize("kind", sorted(CAT_BATHS))
@pytest.mark.parametrize("model", ["rwa_n1", "ohmic_pp"])
def test_cat_row_sets_equal_one_index_purity_bitwise(request, model, kind, cat):
    # cat rows step up the ladder, each row on its own, in blocks that converged rows leave
    p = request.getfixturevalue(model)
    bath = CAT_BATHS[kind](p)
    single = np.array([obs.purity(p, i, bath, cat) for i in range(p.n_times)])
    selectors = [
        slice(None),
        slice(3, -5, 4),
        np.array([7, -1, 7, 0, -30, 12, 7]),  # negative and repeated indices
        np.arange(p.n_times) % 3 == 1,
    ]
    for rows in selectors:
        got = obs.purity(p, rows, bath, cat)
        assert got.shape == p.A[rows].shape
        assert got.tobytes() == single[rows].tobytes(), rows


def test_cat_row_set_evaluates_the_nodes_of_its_rows_alone(monkeypatch, ohmic_pp):
    # no row evaluates a level it does not need alone, and each level's blocks
    # keep rows x nodes x 32 within BLOCK_VALUES
    p, bath = ohmic_pp, EquilibriumBath(1.0)
    shapes = []
    chi_eval = obs.chi_eval

    def counted_chi_eval(p, rows, bath, s, eta):
        shapes.append(np.shape(eta))
        return chi_eval(p, rows, bath, s, eta)

    monkeypatch.setattr(obs, "chi_eval", counted_chi_eval)
    obs.purity(p, slice(None), bath, WIDE_CAT)
    whole = list(shapes)
    shapes.clear()
    for i in range(p.n_times):
        obs.purity(p, i, bath, WIDE_CAT)
    assert sum(math.prod(s) for s in whole) == sum(math.prod(s) for s in shapes)
    first = 16 * 8 + 24 * 12
    rows_at = {}
    for rows, nodes in whole:
        n = round(math.sqrt(2 * nodes)) if nodes != first else None
        assert rows <= _block_rows((16, 24) if n is None else (n,), 32)
        rows_at[nodes] = rows_at.get(nodes, 0) + rows
    assert whole[0] == (_block_rows((16, 24), 32), first) and rows_at[first] == p.n_times
    later = [rows_at[nodes] for nodes in sorted(rows_at) if nodes != first]
    assert later and later == sorted(later, reverse=True) and later[0] < p.n_times


def test_cat_rows_memory_does_not_grow_with_the_grid(ohmic_rwa):
    bath = EquilibriumBath(1.0)
    obs.purity(ohmic_rwa, slice(None), bath, CAT)  # the cached node tables are not counted
    peaks = []
    for steps in (100, 1600):
        p = compute_propagator(ohmic_rwa.model, TimeGrid.linspace(40.0, steps))
        tracemalloc.start()
        try:
            obs.purity(p, slice(None), bath, CAT)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


def _whitening_rows(p):
    """Rows per chunk of the whitening's bath sums: rows x 32 (N + 1) <= BLOCK_VALUES."""
    return laguerre.BLOCK_VALUES // (32 * (p.n_modes + 1))


@pytest.mark.parametrize("kind", sorted(CAT_BATHS))
def test_whitening_chunks_keep_each_rows_bits(monkeypatch, flat_custom, kind):
    # the whitening takes the bath's sums once per chunk of rows, before the first level,
    # and a grid of many chunks gives every row the bits of its one-index call
    p = flat_custom
    bath = CAT_BATHS[kind](p)
    chunks = []
    bath_sums = obs.bath_sums

    def recorded(p, rows, bath, **kwargs):
        chunks.append(np.size(rows))
        return bath_sums(p, rows, bath, **kwargs)

    monkeypatch.setattr(obs, "bath_sums", recorded)
    grid = obs.purity(p, slice(None), bath, CAT)
    step = _whitening_rows(p)
    assert chunks == [min(step, p.n_times - k) for k in range(0, p.n_times, step)]
    assert len(chunks) >= 2
    single = np.array([obs.purity(p, i, bath, CAT) for i in range(p.n_times)])
    assert single.tobytes() == grid.tobytes()


def test_non_positive_cat_envelope_names_the_first_bad_row_in_a_later_chunk(ohmic_rwa):
    # |A| = |C| with B = D = 0 makes the vacuum lobes' envelope singular on a row
    p = ohmic_rwa
    rows = p.rows.copy()
    for k in (40, 65):
        rows[k] = 0.0
        rows[k, 0] = rows[k, p.n_modes + 1] = 0.6
    bad = PropagatorCoefficients(p.model, p.grid, rows, p.route, p.cond_bound)
    step = _whitening_rows(p)
    reverse = np.arange(p.n_times)[::-1]
    assert step <= 40 and step <= list(reverse).index(65)  # neither is in the first chunk
    for kind, make_bath in sorted(CAT_BATHS.items()):
        for selector, first in ((slice(None), 40), (reverse, 65), (slice(41, None), 65), (65, 65)):
            with pytest.raises(PhysicalityError, match=f"at grid index {first}:"):
                obs.purity(bad, selector, make_bath(p), CAT)
        assert obs.purity(bad, slice(41, 65), make_bath(p), CAT).tobytes() == (
            obs.purity(p, slice(41, 65), make_bath(p), CAT).tobytes()), kind


def test_cat_rows_memory_on_a_wide_bath_does_not_grow_with_the_grid():
    # at N = 256 a whole call's (rows x modes) bath sums would outgrow the node blocks
    # (a peak ratio of about 15 here); the whitening's row chunks bound them
    doc = load_sample_config("ensemble-number")["model"]
    doc["spectral"]["N"] = 256
    model = parse_config({"model": doc}).model
    bath = EquilibriumBath(1.0)
    props = [compute_propagator(model, TimeGrid.linspace(40.0, steps)) for steps in (100, 1600)]
    assert _whitening_rows(props[0]) < props[0].n_times  # both grids fill whole chunks
    obs.purity(props[0], slice(None), bath, CAT)  # the cached node tables are not counted
    peaks = []
    for p in props:
        tracemalloc.start()
        try:
            obs.purity(p, slice(None), bath, CAT)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


def _members_up_to(p, totals, seed):
    """A member matrix whose rows hold the given total occupations on random modes."""
    rng = np.random.default_rng(seed)
    return np.array([np.bincount(rng.integers(p.n_modes, size=n), minlength=p.n_modes)
                     for n in totals])


@pytest.mark.parametrize("model", ["ohmic_rwa", "ohmic_pp"])
def test_member_purities_on_the_ladder_match_each_members_exact_rule(request, model,
                                                                     plateau_index):
    # the ensemble's rule is exact only for its most occupied member; every member's own
    # exact rule, 2 sum_k n_k + 1 nodes per axis, is the reference
    p = request.getfixturevalue(model)
    zero_t = EquilibriumBath(math.inf)
    occs = _members_up_to(p, (0, 1, 3, 8, 12, 17, 22, 26, 30), seed=11)
    assert 2 * occs.sum(axis=1).max() + 1 > obs.EXACT_FIRST  # the rows take the ladder
    for i in (*EARLY, plateau_index(p)):
        got = obs.purity(p, row_slice(p, i), NumberStateBath(occs), SQUEEZED,
                         tol=obs.ENSEMBLE_TOL)
        rows = np.array([i])
        whiten, scale = obs._whitened(p, rows, SQUEEZED, zero_t)
        for m, occ in enumerate(occs):
            n = 2 * int(occ.sum()) + 1
            exact = obs._levels(p, rows, SQUEEZED, zero_t, whiten, (n,), occs[m : m + 1])
            assert abs(got[m] - exact(slice(None))[0, 0, 0] * scale[0]) <= obs.ENSEMBLE_TOL, (i, m)

