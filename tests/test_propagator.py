import functools
import importlib.util
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from qbath import (
    EquilibriumBath,
    NumberStateBath,
    TimeGrid,
    bath_sums,
    build_model,
    compute_propagator,
    purity,
    validate_model,
    variances,
)
from qbath import propagator
from qbath.errors import NumericalError, ParameterError
from qbath.model import ModelSpec, SpectralDiscretization, Units, _coupling_matrix, dynamical_matrix
from qbath.propagator import PLATEAU_THRESHOLD, _local_maxima, decay_report, sum_rule_defects
from qbath.states import SqueezedDisplaced

from conftest import STOCK_CONFIGS, load_sample_model

EDGE_SWEEP = Path(__file__).resolve().parents[1] / "tools" / "edge_sweep.py"


def complex_custom_model():
    """Custom model with complex u, v and non-unit hbar and mass."""
    k = np.arange(12)
    return ModelSpec(
        1.1,
        omegas=0.4 + 0.15 * k,
        u=0.06 * np.exp(0.7j * k),
        v=0.03 * np.exp(-1.3j * k + 0.4j),
        units=Units(hbar=2.5, mass=0.7),
        coupling_family="Custom",
    )


def real_custom_model():
    """Custom model with real u != v (K real, neither quadrature block diagonal)."""
    k = np.arange(12)
    return ModelSpec(
        1.1,
        omegas=0.4 + 0.15 * k,
        u=0.06 * np.cos(0.7 * k) + 0j,
        v=0.03 * np.sin(1.3 * k + 0.4) + 0j,
        units=Units(hbar=2.5, mass=0.7),
        coupling_family="Custom",
    )


def complex_rwa_model():
    """Custom model with complex u and v = 0 (the v = 0 route with a complex Dk)."""
    k = np.arange(12)
    return ModelSpec(1.1, omegas=0.4 + 0.15 * k, u=0.06 * np.exp(0.7j * k), v=np.zeros(12),
                     units=Units(hbar=2.5, mass=0.7), coupling_family="Custom")


CUSTOM_MODELS = {
    "complex-custom-n12": complex_custom_model,
    "real-custom-n12": real_custom_model,
    "complex-rwa-n12": complex_rwa_model,
}


def _model(name):
    """A model of CUSTOM_MODELS by name, else the model of the sample config of that name."""
    return CUSTOM_MODELS[name]() if name in CUSTOM_MODELS else load_sample_model(name)


def test_time_grid_validation():
    with pytest.raises(ParameterError):
        TimeGrid(np.array([0.1, 0.2]))
    with pytest.raises(ParameterError):
        TimeGrid(np.array([0.0, 0.5, 0.5]))
    with pytest.raises(ParameterError):
        TimeGrid.linspace(-1.0, 10)


def test_n1_resonant_closed_form(rwa_n1):
    t = rwa_n1.grid.t
    u = 0.35
    a_ref = np.exp(-1j * t) * np.cos(u * t)
    b_ref = -1j * np.exp(-1j * t) * np.sin(u * t)
    assert np.max(np.abs(rwa_n1.A - a_ref)) < 1e-12
    assert np.max(np.abs(rwa_n1.B[:, 0] - b_ref)) < 1e-12
    assert np.max(np.abs(rwa_n1.C)) == 0.0
    assert np.max(np.abs(rwa_n1.D)) == 0.0
    da_ref = np.exp(-1j * t) * (-1j * np.cos(u * t) - u * np.sin(u * t))
    assert np.max(np.abs(rwa_n1.dA - da_ref)) < 1e-12


def test_t0_row_is_exact_identity(ohmic_pp):
    assert ohmic_pp.A[0] == 1.0 + 0.0j
    assert ohmic_pp.C[0] == 0.0 + 0.0j
    assert np.all(ohmic_pp.B[0] == 0.0)
    assert np.all(ohmic_pp.D[0] == 0.0)
    mat = dynamical_matrix(ohmic_pp.model)
    assert ohmic_pp.dA[0] == mat[0, 0]
    np.testing.assert_array_equal(ohmic_pp.dB[0], mat[0, 1 : ohmic_pp.n_modes + 1])


def test_ode_oracle_n16():
    # independent cross-check: integrate drow/dt = row M with a high-order RK
    disc = SpectralDiscretization("OhmicExpCutoff", 0.08, 4.0, 0.2, 5.0, 16)
    m = build_model(disc, 1.0, "PositionPosition")
    grid = TimeGrid(np.array([0.0, 3.0]))
    p = compute_propagator(m, grid)
    mat = dynamical_matrix(m)
    dim = mat.shape[0]
    row0 = np.zeros(dim, dtype=complex)
    row0[0] = 1.0

    def rhs(_, y):
        return y @ mat

    sol = solve_ivp(rhs, (0.0, 3.0), row0, method="DOP853", rtol=1e-12, atol=1e-12)
    row = sol.y[:, -1]
    got = np.concatenate(([p.A[1]], p.B[1], [p.C[1]], p.D[1]))
    assert np.max(np.abs(got - row)) < 1e-8


def test_derivative_rows_match_matrix_product(ohmic_pp):
    mat = dynamical_matrix(ohmic_pp.model)
    n = ohmic_pp.n_modes
    ref = ohmic_pp.rows @ mat
    ref[0] = mat[0]
    for got, want in (
        (ohmic_pp.dA, ref[:, 0]),
        (ohmic_pp.dB, ref[:, 1 : n + 1]),
        (ohmic_pp.dC, ref[:, n + 1]),
        (ohmic_pp.dD, ref[:, n + 2 :]),
    ):
        assert got.tobytes() == want.tobytes()


def test_coefficients_are_views_of_one_row_array(ohmic_pp):
    rows = ohmic_pp.rows
    assert rows.shape == (ohmic_pp.n_times, 2 * ohmic_pp.n_modes + 2)
    for coeff in (ohmic_pp.A, ohmic_pp.B, ohmic_pp.C, ohmic_pp.D):
        assert coeff.base is rows
    derivs = (ohmic_pp.dA, ohmic_pp.dB, ohmic_pp.dC, ohmic_pp.dD)
    assert all(d.base is derivs[0].base for d in derivs)


def test_derivative_rows_wait_for_first_read():
    p = compute_propagator(load_sample_model("ensemble-number"), TimeGrid.linspace(10.0, 20))
    # before any read, the coefficients hold views of the rows and, from the contract
    # check, the (T,) sum-rule defects that sum_rule_defects returns from then on
    held = {k: v for k, v in vars(p).items() if isinstance(v, np.ndarray)}
    defects = held.pop("_defects")
    assert defects.shape == (p.n_times,) and sum_rule_defects(p) is defects
    assert all(v is p.rows or v.base is p.rows for v in held.values())
    assert "_derivs" not in vars(p)
    first = p.dC
    assert "_derivs" in vars(p)
    assert p.dC is first and not np.shares_memory(first, p.rows)


def test_sum_rule_all_stock_models():
    grid = TimeGrid.linspace(30.0, 120)
    for name in STOCK_CONFIGS:
        p = compute_propagator(load_sample_model(name), grid)
        assert np.max(np.abs(sum_rule_defects(p))) < 1e-10, name


EPS = np.finfo(float).eps


def _phase_reference(t, freqs):
    """cos and sin of the exact phases t E of the stored times, in long double."""
    phase = np.multiply.outer(t.astype(np.longdouble), freqs.astype(np.longdouble))
    return np.cos(phase), np.sin(phase)


def _phase_error(table, t, freqs):
    cos, sin = _phase_reference(t, freqs)
    return float(max(np.max(np.abs(table.real - cos), initial=0.0),
                     np.max(np.abs(table.imag - sin), initial=0.0)))


def _block_fill(t, freqs):
    """The phase table exp(i E t) as the kernel's block fill writes it, block after block."""
    blocks = []
    for rows, block in propagator._phase_blocks(t, freqs):
        assert rows.start == sum(map(len, blocks))
        assert block.shape == (rows.stop - rows.start, freqs.size)
        blocks.append(block.copy())  # the next block overwrites this one
    assert sum(map(len, blocks)) == t.size
    return np.concatenate(blocks)


@pytest.mark.parametrize("t_max, steps, n", [(120.0, 1600, 257), (1000.0, 20000, 9),
                                             (40.0, 100, 65), (8.9, 180, 2)])
def test_phase_table_against_long_double_reference(t_max, steps, n, monkeypatch):
    # angle addition: within 2 eps max|E t| + 4 eps; direct: eps max|E t| / 2 + eps
    t = TimeGrid.linspace(t_max, steps).t
    freqs = np.linspace(0.01, 8.0, n)
    largest = t_max * freqs[-1]
    monkeypatch.setattr(propagator, "PHASE_TABLE_MIN", 0)
    table = _block_fill(t, freqs)
    assert _phase_error(table, t, freqs) <= 2 * EPS * largest + 4 * EPS
    monkeypatch.setattr(propagator, "PHASE_TABLE_MIN", np.inf)
    direct = _block_fill(t, freqs)
    assert _phase_error(direct, t, freqs) <= EPS * largest / 2 + EPS


@pytest.mark.parametrize("steps", [0, 1, 2, 3, 9, 12, 16, 25, 40])
def test_phase_table_at_every_block_shape(steps, monkeypatch):
    # T = 1, 2, 3; 12 uniform rows are three groups of b = 4, while 9, 16, 25
    # and 40 leave a part group (b = 4, 5, 6, 7)
    t = np.linspace(0.0, 3.7, steps + 1)
    freqs = np.array([0.3, 1.7, 5.2])
    monkeypatch.setattr(propagator, "PHASE_TABLE_MIN", 0)
    table = _block_fill(t, freqs)
    assert _phase_error(table, t, freqs) <= 2 * EPS * 3.7 * 5.2 + 4 * EPS
    assert table[0].tolist() == [1.0] * 3


def test_phase_table_takes_angle_addition_on_large_uniform_grids(monkeypatch):
    calls = []
    uniform = propagator._uniform_blocks
    monkeypatch.setattr(propagator, "_uniform_blocks",
                        lambda *args: calls.append(args[0].size) or uniform(*args))
    n = 5
    below = propagator.PHASE_TABLE_MIN // n - 1  # T n just under the threshold
    above = propagator.PHASE_TABLE_MIN // n + 1
    freqs = np.linspace(0.2, 3.0, n)
    for times in (np.linspace(0.0, 10.0, below), np.linspace(0.0, 10.0, above),
                  np.arange(above) * 0.01):  # explicit times that are uniform
        _block_fill(times, freqs)
    assert calls == [above, above]
    # the same times with one nudged by an ulp take the direct path
    times = np.linspace(0.0, 10.0, above)
    nudged = times.copy()
    nudged[7] = np.nextafter(nudged[7], np.inf)
    direct = _block_fill(nudged, freqs)
    assert calls == [above, above]
    table = _block_fill(times, freqs)
    assert np.max(np.abs(table - direct)) <= 2 * EPS * 10.0 * 3.0 + 4 * EPS + 2 * EPS * 3.0


# grid sizes T around the kernel's row blocks: b = ceil(sqrt(T)) rows per anchor group, and
# a block of _ROW_BLOCK = 256 rows, or on uniform grids the whole groups that fit in it.
# The 1601-point grid has b = 41 and blocks of 246 rows (41, 245, 246, 247 and 493 are b,
# block - 1, block, block + 1 and 2 block + 1 there).  Uniform: 255 and 256 are one block
# (b = 16) that ends inside and at the end of a group; 257 (b = 17) is 255 rows and a block
# of 2; 493, 507 and 513 (b = 23) are two blocks of 253 rows and a last one of 240, 1 and
# 7 rows.  Direct: 257 and 513 leave one row after one and two blocks of 256.
BLOCK_GRID_SIZES = (1, 2, 3, 41, 245, 246, 247, 255, 256, 257, 493, 507, 513, 1601)


def _nudged(t):
    """t with one inner time moved up by an ulp: not uniform from T = 4 on."""
    nudged = t.copy()
    nudged[t.size // 2] = np.nextafter(nudged[t.size // 2], np.inf)
    return nudged


@pytest.mark.parametrize("n", [1, 3, 33, 257])
def test_block_fill_is_the_one_shot_table_bit_for_bit(n, one_shot_phases):
    freqs = np.linspace(0.05, 8.0, n)
    for size in (*BLOCK_GRID_SIZES, 12801):
        t = np.linspace(0.0, 120.0, size)
        for times in (t, _nudged(t)):
            assert _block_fill(times, freqs).tobytes() == one_shot_phases(times, freqs).tobytes()


def _n32_models():
    """A model of each kernel operand at N = 32: (route, real or complex stack)."""
    k = np.arange(32)
    omegas, u = 0.5 + 0.03 * k, 0.04 * np.cos(0.7 * k)
    phase = np.exp(0.9j * k)
    return {
        "number-real-u": ModelSpec(1.0, omegas, u, coupling_family="RWA"),
        "number-complex-u": ModelSpec(1.0, omegas, u * phase),
        "quadrature-svd": ModelSpec(1.0, omegas, u, coupling_family="PositionPosition"),
        "williamson-svd": ModelSpec(1.0, omegas, u * phase, 0.3 * u / phase),
    }


@pytest.mark.parametrize("name", list(_n32_models()))
def test_rows_match_the_one_shot_kernel_at_every_block_boundary(name, monkeypatch,
                                                                 one_shot_rows):
    m = _n32_models()[name]
    monkeypatch.setattr(propagator, "PHASE_TABLE_MIN", 0)  # uniform grids of T = 1, 2, 3 too
    handed = []
    kernel = propagator._trig_rows
    monkeypatch.setattr(propagator, "_trig_rows", lambda t, freqs, stack, out: (
        handed.append((freqs, stack)), kernel(t, freqs, stack, out)))
    for size in BLOCK_GRID_SIZES:
        t = TimeGrid.linspace(60.0, size - 1).t if size > 1 else np.zeros(1)
        for times in (t, _nudged(t)) if size > 3 else (t,):
            p = compute_propagator(m, TimeGrid(times))
            freqs, stack = handed.pop()
            assert np.iscomplexobj(stack) == (name in ("number-complex-u", "williamson-svd"))
            want = np.zeros_like(p.rows)
            want[:, : stack.shape[-1]] = one_shot_rows(times, freqs, stack)
            want[0] = 0.0
            want[0, 0] = 1.0
            assert np.max(np.abs(p.rows - want)) <= 1e-15, (name, size)


@pytest.mark.parametrize("name", list(_n32_models()))
def test_kernel_memory_beyond_the_rows_does_not_grow_with_the_grid(name):
    # the phase table goes through the product one row block at a time: beyond its
    # output rows, compute_propagator holds O(block N + N^2), not a (T, N + 1) table
    m = _n32_models()[name]
    compute_propagator(m, TimeGrid.linspace(60.0, 400))  # first-call allocations

    def extra(steps):
        grid = TimeGrid.linspace(60.0, steps)
        tracemalloc.start()
        try:
            p = compute_propagator(m, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - p.rows.nbytes

    assert extra(12800) <= 1.5 * extra(400)


@pytest.mark.parametrize("name", ["ensemble-number", "propagate-ohmic-pp", *CUSTOM_MODELS])
@pytest.mark.parametrize("steps", [0, 1, 2, 600])
def test_rows_agree_on_the_table_and_the_direct_path(name, steps, monkeypatch):
    m = _model(name)
    grid = TimeGrid.linspace(60.0, steps) if steps else TimeGrid([0.0])
    monkeypatch.setattr(propagator, "PHASE_TABLE_MIN", 0)
    table = compute_propagator(m, grid)
    monkeypatch.setattr(propagator, "PHASE_TABLE_MIN", np.inf)
    direct = compute_propagator(m, grid)
    # the tables differ by about 2 eps max|E t| ~ 1e-13 here, times |R_c|, |R_s|
    # (9e-15 measured)
    assert np.max(np.abs(table.rows - direct.rows)) < 1e-12
    assert table.rows.shape == (len(grid), 2 * m.n_modes + 2)


@pytest.mark.parametrize("name", [*STOCK_CONFIGS, *CUSTOM_MODELS])
def test_defects_match_the_complex_abs_formula(name):
    m = _model(name)
    p = compute_propagator(m, TimeGrid.linspace(50.0, 400))
    # the reference: the |.|^2 sums the defects were first written with
    plus = np.abs(p.A) ** 2 + np.sum(np.abs(p.B) ** 2, axis=1)
    minus = np.abs(p.C) ** 2 + np.sum(np.abs(p.D) ** 2, axis=1)
    reference = plus - minus - 1.0
    # both round to a few eps of plus + minus (3 eps at most on these models)
    assert np.all(np.abs(sum_rule_defects(p) - reference) <= 8 * EPS * (plus + minus))


def test_no_cholesky_factor_is_a_typed_failure(unstable_model, no_cholesky):
    # no other route exists: an unstable K is a config error, a stable one the stability edge;
    # the real-K route factors S_xx and S_pp, the complex-K route the 2 x 2 Schur complement
    grid = TimeGrid.linspace(40.0, 50)
    unstable_complex = ModelSpec(1.0, omegas=[0.04], u=[0.35 * np.exp(-0.7j)],
                                 v=[0.35 * np.exp(0.7j)], coupling_family="Custom")
    for m in (unstable_model, unstable_complex):
        with pytest.raises(ParameterError, match="model is not stable"):
            compute_propagator(m, grid)
    for m in (load_sample_model("propagate-ohmic-pp"), load_sample_model("propagate-flat-custom"),
              complex_custom_model()):
        with pytest.raises(NumericalError, match="stability edge") as err:
            compute_propagator(m, grid)
        assert f"{validate_model(m):.3e}" in str(err.value)


@pytest.mark.parametrize("delta", [1e-6, 1e-8, 1e-10, 1e-12, 1e-13])
def test_complex_route_keeps_the_sum_rule_near_the_stability_edge(delta):
    # N = 1 with |u| + |v| = 2g: the edge is g = 0.1.  The oscillator rows of L V come from
    # the oscillator rows of A V, not from the sum Y V_b + L_s V_0, which cancels here
    g = 0.1 * (1.0 - delta)
    m = ModelSpec(1.0, omegas=[0.04], u=[g * np.exp(-0.7j)], v=[g * np.exp(0.7j)],
                  coupling_family="Custom")
    assert validate_model(m) > 0.0
    p = compute_propagator(m, TimeGrid.linspace(200.0, 400))
    assert np.max(np.abs(sum_rule_defects(p))) < 1e-10


@functools.cache
def _edge_tool():
    """The module tools/edge_sweep.py."""
    spec = importlib.util.spec_from_file_location("edge_sweep", EDGE_SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _edge_scale():
    """tools/edge_sweep.py's bisection for the stability edge of a coupling direction."""
    return _edge_tool()._edge_scale


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("delta", [1e-10, 1e-11, 1e-12, 1e-13])
def test_complex_route_keeps_the_sum_rule_near_the_edge_of_random_models(seed, delta):
    # random complex u, v at N = 4..12, scaled to (1 - delta) of the edge; the grid of the
    # N = 1 edge test.  The softest pair takes its cosine row from the t = 0 identity and no
    # other pair multiplies the SVD's rounding by the soft pivot of L_s
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    nu, omegas = rng.uniform(0.2, 3.0), rng.uniform(0.05, 4.0, n)
    u, v = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    scale = (1.0 - delta) * _edge_scale()(nu, omegas, u, v)
    m = ModelSpec(nu, omegas, scale * u, scale * v, coupling_family="Custom")
    assert validate_model(m) > 0.0
    p = compute_propagator(m, TimeGrid.linspace(200.0, 400))
    assert p.route == "williamson-svd"
    assert np.max(np.abs(sum_rule_defects(p))) < 1e-10


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("delta", [1e-10, 1e-11, 1e-12, 1e-13])
def test_real_route_keeps_the_sum_rule_near_the_edge_of_random_models(seed, delta):
    # the random models of the complex test above with real u, v: the (N+1) SVD route
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    nu, omegas = rng.uniform(0.2, 3.0), rng.uniform(0.05, 4.0, n)
    u, v = rng.normal(size=n) + 0j, rng.normal(size=n) + 0j
    scale = (1.0 - delta) * _edge_scale()(nu, omegas, u, v)
    m = ModelSpec(nu, omegas, scale * u, scale * v, coupling_family="Custom")
    assert validate_model(m) > 0.0
    p = compute_propagator(m, TimeGrid.linspace(200.0, 400))
    assert p.route == "quadrature-svd"
    assert np.max(np.abs(sum_rule_defects(p))) < 1e-10


@pytest.mark.parametrize(("seed", "index"), [(0, 52), (0, 91), (0, 113), (1, 68), (3, 63)])
def test_real_route_keeps_the_sum_rule_on_the_edge_sweep_draws(seed, index):
    # draws of tools/edge_sweep.py --couplings real whose sup defect read 1.1e-10 to
    # 1.5e-10 while the softest pair's R_c still came from the 1/E-scaled modes; from
    # the t = 0 identity it reads at most 1.8e-11 on seeds 0-3
    tool = _edge_tool()
    rng = np.random.default_rng(seed)
    for _ in range(index):
        tool.draw(rng, "real")
    m, _, t_max = tool.edge_model(rng, "real")
    p = compute_propagator(m, TimeGrid.linspace(t_max, 400))
    assert p.route == "quadrature-svd"
    assert np.max(np.abs(sum_rule_defects(p))) < 1e-10


@pytest.mark.parametrize("repeats", [2, 4, 8])
def test_complex_route_with_dark_modes_matches_eig_route(repeats, eig_route_rows):
    # repeated omega_k with equal couplings leave repeats - 1 dark modes at each omega_k, an
    # exactly repeated singular value of the Williamson matrix: any orthonormal basis of its
    # eigenspace is an SVD, and the rows must not depend on which one LAPACK returns
    omegas = np.repeat([0.5, 0.9, 1.3], repeats)
    n = omegas.size
    m = ModelSpec(1.1, omegas, np.full(n, 0.05 * np.exp(0.4j)), np.full(n, 0.02 * np.exp(-1.1j)),
                  coupling_family="Custom")
    grid = TimeGrid.linspace(60.0, 240)
    p = compute_propagator(m, grid)
    assert p.route == "williamson-svd"
    assert np.max(np.abs(p.rows - eig_route_rows(m, grid))) <= 1e-10
    assert np.max(np.abs(sum_rule_defects(p))) < 1e-10


@pytest.mark.parametrize("name", ["real-custom-n12", "propagate-ohmic-pp"])
def test_real_model_takes_the_same_modes_through_both_svd_routes(name):
    # real K: the (N+1) SVD of L_x^T L_p and the (2N+2) SVD of the whole Williamson matrix
    m = _model(name)
    grid = TimeGrid.linspace(60.0, 240)
    pairs = propagator._williamson_pairs(m), propagator._quadrature_pairs(
        *propagator._quadrature_modes(m))
    rows = np.zeros((2, len(grid), 2 * m.n_modes + 2), dtype=complex)
    for (freqs, stack), out in zip(pairs, rows):
        propagator._trig_rows(grid.t, freqs, stack, out)
    np.testing.assert_allclose(pairs[0][0], pairs[1][0], rtol=0, atol=1e-12)
    assert np.max(np.abs(rows[0] - rows[1])) <= 1e-12


@pytest.mark.parametrize("name", [*STOCK_CONFIGS, "complex-custom-n12"])
def test_coefficients_report_their_route_and_cond_bound(name):
    m = _model(name)
    p = compute_propagator(m, TimeGrid.linspace(10.0, 20))
    if not m.v.any():
        assert (p.route, p.cond_bound) == ("number", None)
        return
    complex_k = m.u.imag.any() or m.v.imag.any()
    assert p.route == ("williamson-svd" if complex_k else "quadrature-svd")
    # the want of test_cond_bound_is_the_norm_over_the_smallest_frequency
    freqs = np.abs(np.linalg.eigvals(dynamical_matrix(m)).imag)
    want = np.linalg.norm(_coupling_matrix(m), 1) / freqs.min()
    assert p.cond_bound == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("name", [*STOCK_CONFIGS, *CUSTOM_MODELS])
def test_hermitian_route_matches_eig_route(name, eig_route_rows):
    m = _model(name)
    grid = TimeGrid.linspace(60.0, 240)
    p = compute_propagator(m, grid)
    assert np.max(np.abs(p.rows - eig_route_rows(m, grid))) <= 1e-10
    assert np.max(np.abs(sum_rule_defects(p))) < 1e-10
    # t = 0 is the exact identity on every route
    assert p.rows[0, 0] == 1.0 and not p.rows[0, 1:].any()
    if not m.v.any():
        # RWA (v = 0): the block route never fills the dagger columns
        assert not p.C.any() and not p.D.any()


@pytest.mark.parametrize("name", [*STOCK_CONFIGS, *CUSTOM_MODELS])
def test_no_route_builds_the_dense_coupling_matrix(name, monkeypatch):
    # every route works from the structure of K (Dk, the quadrature arrows, the 2 x 2 Schur
    # complement), never from the dense (2N+2)^2 K; the lazy derivative rows are not read here
    m = _model(name)

    def dense(_):
        raise AssertionError("a propagator route built the dense coupling matrix K")

    monkeypatch.setattr("qbath.model._coupling_matrix", dense)
    p = compute_propagator(m, TimeGrid.linspace(20.0, 40))
    assert np.max(np.abs(sum_rule_defects(p))) < 1e-10


def test_cond_guard_on_hermitian_route(monkeypatch):
    # the model of propagate-ohmic-pp has ||K||_1 / min|eps| = 192 and an eig cond(V) of 2.67
    m = load_sample_model("propagate-ohmic-pp")
    monkeypatch.setattr(propagator, "COND_LIMIT", 100.0)
    with pytest.raises(NumericalError, match="ill-conditioned normal modes"):
        compute_propagator(m, TimeGrid.linspace(10.0, 20))
    monkeypatch.setattr(propagator, "COND_LIMIT", 200.0)
    compute_propagator(m, TimeGrid.linspace(10.0, 20))


@pytest.mark.parametrize("name", ["propagate-ohmic-pp", "propagate-flat-custom", "real-custom-n12"])
def test_cond_bound_is_the_norm_over_the_smallest_frequency(name, monkeypatch):
    # the real route sums K's columns in O(N); both routes must report ||K||_1 / min|eps|
    m = _model(name)
    freqs = np.abs(np.linalg.eigvals(dynamical_matrix(m)).imag)
    want = np.linalg.norm(_coupling_matrix(m), 1) / freqs.min()
    monkeypatch.setattr(propagator, "COND_LIMIT", 0.0)
    with pytest.raises(NumericalError) as err:
        compute_propagator(m, TimeGrid.linspace(10.0, 20))
    assert f"cond bound = {want:.3e} >" in str(err.value)


# one N >= 64 sample config per route
ROUTE_CONFIGS = [("ensemble-number", "number"), ("propagate-ohmic-pp", "quadrature-svd"),
                 ("propagate-flat-custom", "williamson-svd")]


def _relabeling_bound(m, grid):
    """2 eps ||K||_1 t_max, five times the largest difference measured by the tests below.

    The splits and permutations of the models of ROUTE_CONFIGS differ by at most
    0.38 eps ||K||_1 t_max, and by 0.61 over eight random splits and six permutations.
    """
    return 2.0 * EPS * np.linalg.norm(_coupling_matrix(m), 1) * grid.t[-1]


def _row_distance(p, q, b, d):
    """Largest |difference| of q's A, C, B, D from p's A and C and the given B and D."""
    return max(np.max(np.abs(x - y)) for x, y in ((q.A, p.A), (q.C, p.C), (q.B, b), (q.D, d)))


@pytest.mark.parametrize("name, route", ROUTE_CONFIGS)
def test_splitting_a_mode_splits_its_columns(name, route):
    # mode k split at angle theta into two modes at omega_k, coupled by (u_k, v_k) cos theta
    # and (u_k, v_k) sin theta: their bright combination is mode k and the dark one never
    # couples, so A and C stay and B_k, D_k split into B_k cos theta and B_k sin theta
    m = load_sample_model(name)
    grid = TimeGrid.linspace(60.0, 800)
    p = compute_propagator(m, grid)
    assert p.route == route
    for k, theta in ((0, 0.3), (7, 1.1), (31, 2.0)):
        c, s = np.cos(theta), np.sin(theta)
        scale = np.ones(m.n_modes)
        scale[k] = c
        split = ModelSpec(m.nu, np.append(m.omegas, m.omegas[k]),
                          np.append(m.u * scale, m.u[k] * s), np.append(m.v * scale, m.v[k] * s),
                          units=m.units, coupling_family=m.coupling_family)
        q = compute_propagator(split, grid)
        assert q.route == route
        b = np.column_stack([p.B * scale, p.B[:, k] * s])
        d = np.column_stack([p.D * scale, p.D[:, k] * s])
        assert _row_distance(p, q, b, d) <= _relabeling_bound(m, grid), k


@pytest.mark.parametrize("name, route", ROUTE_CONFIGS)
def test_permuting_the_modes_permutes_the_columns(name, route):
    m = load_sample_model(name)
    grid = TimeGrid.linspace(60.0, 800)
    p = compute_propagator(m, grid)
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(m.n_modes)
        permuted = ModelSpec(m.nu, m.omegas[perm], m.u[perm], m.v[perm], units=m.units,
                             coupling_family=m.coupling_family)
        q = compute_propagator(permuted, grid)
        assert q.route == route
        assert _row_distance(p, q, p.B[:, perm], p.D[:, perm]) <= _relabeling_bound(m, grid)


@pytest.mark.parametrize("name, route, phased_route", [
    ("ensemble-number", "number", "number"),
    ("propagate-ohmic-pp", "quadrature-svd", "williamson-svd"),
    ("propagate-flat-custom", "williamson-svd", "williamson-svd"),
])
def test_a_mode_phase_gauge_phases_the_columns(name, route, phased_route):
    # b_k -> e^{i phi_k} b_k maps (u_k, v_k) to (u_k e^{i phi_k}, v_k e^{-i phi_k}): A and C
    # stay, B_k gains e^{i phi_k} and D_k e^{-i phi_k}, and the bath sums, variances and
    # purity of equilibrium and number baths stay.  A real K turns complex, so the real
    # route is checked against the complex one.  Measured: at most 0.46 of the bound.
    m = load_sample_model(name)
    grid = TimeGrid.linspace(60.0, 800)
    p = compute_propagator(m, grid)
    assert p.route == route
    bound = _relabeling_bound(m, grid)
    state = SqueezedDisplaced(disp=0.5 - 0.1j, r=0.6, phi=0.3)
    probe = np.linspace(0, grid.t.size - 1, 17).astype(int)
    for seed in range(2):
        rng = np.random.default_rng(seed)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, m.n_modes))
        phased = ModelSpec(m.nu, m.omegas, m.u * phase, m.v * np.conj(phase), units=m.units,
                           coupling_family="Custom")
        q = compute_propagator(phased, grid)
        assert q.route == phased_route
        assert _row_distance(p, q, p.B * phase, p.D * np.conj(phase)) <= bound
        for bath in (EquilibriumBath(1.0), NumberStateBath(rng.integers(0, 3, m.n_modes))):
            sums_p, sums_q = bath_sums(p, slice(None), bath), bath_sums(q, slice(None), bath)
            for key in ("alpha", "gamma"):
                assert np.max(np.abs(getattr(sums_q, key) - getattr(sums_p, key))) <= bound
            for var_p, var_q in zip(variances(p, slice(None), bath, state),
                                    variances(q, slice(None), bath, state)):
                assert np.max(np.abs(var_q - var_p)) <= bound
        eq = EquilibriumBath(1.0)
        assert np.max(np.abs(purity(q, probe, eq, state) - purity(p, probe, eq, state))) <= bound


def test_decay_report_decoupled():
    p = compute_propagator(load_sample_model("validate-decoupled"), TimeGrid.linspace(20.0, 100))
    rep = decay_report(p)
    assert rep.late_sup_A == pytest.approx(1.0, abs=1e-12)
    assert rep.recurrence_onset is None
    assert rep.plateau is None and rep.probe is None


def test_decay_report_n1_revival():
    p = compute_propagator(load_sample_model("purity-cat-vacuum"), TimeGrid.linspace(100.0, 1000))
    rep = decay_report(p)
    # |A| = |cos(0.35 t)| first revives at 0.35 t = pi
    assert rep.recurrence_onset == pytest.approx(np.pi / 0.35, abs=0.1)


def test_decay_report_plateau_ohmic(ohmic_rwa):
    rep = decay_report(ohmic_rwa)
    i0, i1 = rep.plateau
    assert i1 == ohmic_rwa.n_times - 1  # recurrence far beyond this grid
    sup = np.max(np.abs(ohmic_rwa.A[i0 : i1 + 1]))
    assert sup < PLATEAU_THRESHOLD
    assert i0 <= rep.probe <= i1


def _plateau_loop(level):
    """(plateau, probe) by a scan: the first longest run below the threshold, its first minimum."""
    best, start = None, None
    for i, x in enumerate(list(level) + [np.inf]):
        if x < PLATEAU_THRESHOLD:
            start = i if start is None else start
        elif start is not None:
            if best is None or i - 1 - start > best[1] - best[0]:
                best = (start, i - 1)
            start = None
    if best is None:
        return None, None
    probe = best[0]
    for k in range(best[0], best[1] + 1):
        if level[k] < level[probe]:
            probe = k
    return best, probe


def test_decay_report_plateau_matches_loop_reference():
    th = PLATEAU_THRESHOLD
    rng = np.random.default_rng(5)
    cases = [  # (|A|, |C|) in units of the threshold
        ([0.5], [0.0]),  # one-point grid, below
        ([2.0], [0.0]),  # one-point grid, above
        ([1.0, 2.0, 1.5], [0.0, 0.0, 0.0]),  # no point below: the threshold itself is not below
        ([0.5, 0.3, 0.3, 0.9], [0.0, 0.0, 0.0, 0.0]),  # every point below, equal minima
        ([1.0, 0.5, 0.2, 1.0, 0.3, 0.1, 1.0], [0.0] * 7),  # two longest runs: the first wins
        ([1.0, 0.4, 0.2, 0.2, 0.5, 1.0], [0.0] * 6),  # equal minima: the first index wins
        ([0.3, 0.1, 0.2, 1.0, 0.5], [0.0] * 5),  # the longest run touches index 0
        ([0.3, 0.1, 1.0, 2.0, 0.2, 0.3, 0.4], [0.0] * 7),  # the longest run touches T - 1
        ([0.1, 0.1, 0.1, 0.1], [0.5, 1.0, 0.2, 0.3]),  # |C| sets the level and breaks the run
    ]
    cases += [(rng.integers(0, 3, n) * 0.6, rng.integers(0, 3, n) * 0.3) for n in (5, 17, 64, 200)]
    for a, c in cases:
        a, c = np.asarray(a, float) * th, np.asarray(c, float) * th
        phase = rng.choice([1, -1, 1j, -1j], a.size)  # keeps |A| and |C|, and their ties, exact
        p = SimpleNamespace(A=a * phase, C=c * np.conj(phase),
                            grid=SimpleNamespace(t=np.arange(a.size, dtype=float)))
        rep = decay_report(p)
        want = _plateau_loop(np.maximum(a, c))
        assert (rep.plateau, rep.probe) == want, (a, c)
        assert rep.plateau is None or all(type(k) is int for k in (*rep.plateau, rep.probe))


def _local_maxima_loop(y):
    idx = [i for i in range(1, y.size - 1) if y[i] >= y[i - 1] and y[i] > y[i + 1]]
    if y.size >= 2 and y[-1] > y[-2]:
        idx.append(y.size - 1)
    return idx


def test_local_maxima_matches_loop_reference():
    rng = np.random.default_rng(4)
    cases = [
        np.array([]),
        np.array([1.0]),
        np.array([1.0, 2.0]),
        np.array([2.0, 1.0]),
        np.array([1.0, 1.0, 1.0]),
        np.array([0.0, 1.0, 1.0, 0.0]),  # plateau top: only its last point counts
        np.array([0.0, 1.0, 1.0, 2.0]),  # rising plateau ending at a rising last point
        np.array([3.0, 1.0, 2.0, 2.0, 2.0, 1.0, 1.0, 4.0]),
    ]
    cases += [rng.integers(0, 3, size=n).astype(float) for n in (5, 17, 64, 200)]
    for y in cases:
        got = _local_maxima(y)
        assert got.dtype.kind == "i"
        assert got.tolist() == _local_maxima_loop(y), y
