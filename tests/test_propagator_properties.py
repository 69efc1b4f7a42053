"""Property tests of the Hermitian propagator routes on random stable models."""

import numpy as np
import pytest

from qbath import TimeGrid, compute_propagator
from qbath import propagator
from qbath.model import (
    CouplingFamily,
    ModelSpec,
    Units,
    _coupling_matrix,
    dynamical_matrix,
    quadratic_form_matrix,
    validate_model,
)
from qbath.propagator import sum_rule_defects

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given

FAMILIES = ("RWA", "PositionPosition", "Custom")


@st.composite
def stable_models(draw, family=None, real=False):
    """A random model with N <= 12 whose quadratic form is positive-definite.

    The couplings are drawn with unit scale, then scaled so that the coupling
    part of K, in the metric of its diagonal D0, has norm `margin` < 1:
    K = D0^{1/2} (1 + C') D0^{1/2} with ||C'|| = margin stays positive-definite.
    With real=True (Custom only) u and v are real and differ, so K is real
    and neither quadrature block S_xx, S_pp is diagonal.
    """
    family = family or draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(1, 12))
    coupling = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).map(np.array)
    nu = draw(st.floats(0.2, 3.0))
    omegas = draw(st.lists(st.floats(0.05, 4.0), min_size=n, max_size=n))
    if real:
        u, v = draw(coupling) + 0j, draw(coupling) + 0j
        hypothesis.assume(v.any() and np.any(u != v) and np.any(u != -v))
    else:
        u = draw(coupling) + (0.0 if family == "PositionPosition" else 1j * draw(coupling))
        v = draw(coupling) + 1j * draw(coupling) if family == "Custom" else None
    margin = draw(st.floats(0.05, 0.95))
    units = Units(hbar=draw(st.floats(0.3, 3.0)), mass=draw(st.floats(0.3, 3.0)))
    unit = ModelSpec(nu, omegas, u, v, units, family)
    k = _coupling_matrix(unit)
    d0 = np.sqrt(np.real(np.diag(k)))
    off_diag = (k - np.diag(np.diag(k))) / np.outer(d0, d0)
    norm = np.linalg.norm(off_diag, 2)
    scale = margin / norm if norm > 0.0 else 1.0
    return ModelSpec(nu, omegas, scale * u, None if v is None else scale * v, units, family)


GRID = TimeGrid.linspace(50.0, 60)
ANY_MODEL = stable_models() | stable_models(family="Custom", real=True)


@given(m=ANY_MODEL)
def test_random_stable_models_match_eig_route(m, eig_route_rows):
    p = compute_propagator(m, GRID)
    assert np.max(np.abs(sum_rule_defects(p))) < 1e-10
    assert np.max(np.abs(p.rows - eig_route_rows(m, GRID))) < 1e-10
    if m.coupling_family is CouplingFamily.RWA:
        assert not p.C.any() and not p.D.any()


# A model that hypothesis draws only with the local modules of the tools and the benchmark
# loaded: an uncoupled mode at 3.660 beside a coupled pair at 3.641, a gap of
# 5.0e-3 ||A||.  Its invariant-plane residual, 3.88e-12, is 24 eps ||A||^2 / gap, and
# above a flat 1e-12 ||A|| = 3.66e-12.
CLOSE_PAIR = ModelSpec(
    0.6810839822750719,
    [0.99999, 1.6744300523393858, 0.5247413138386237, 0.10413100378738327, 3.659912237240221,
     3.1674136430231377, 1.6707977654160615, 3.3515625, 0.5, 1.4069203071849468,
     3.640447314991787, 0.5780300384993845],
    [0.09105372660829254, 0.10047796463100207, 0.0259932818301547, 0.10406140183804861, 0.0,
     0.021842518732856062, 0.03251918807439019, 0.09296474285342896, 0.05203070091902431,
     0.019856945524792006, 0.0984476351875782, 0.06796179852866985],
    coupling_family="PositionPosition",
)
# residual x gap / (eps ||A||^2) of a simple pair, the first-order (Davis-Kahan) scale of
# an invariant plane's error, stayed at or below 44.9 over 24 000 random PositionPosition
# and Custom models, a third of them with an uncoupled mode within 1e-4 to 0.1 of another
PLANE_RESIDUAL = 128.0


@given(stable_models(family="PositionPosition") | stable_models(family="Custom"))
@hypothesis.example(CLOSE_PAIR)
def test_williamson_modes_are_symplectically_normalized(m):
    will, _, sigma, vt, _ = propagator._williamson_modes(m)
    # the Williamson matrix A = L^T J L is built exactly antisymmetric
    assert np.array_equal(will, -will.T)
    np.testing.assert_allclose(vt @ vt.T, np.eye(2 * m.n_modes + 2), rtol=0, atol=1e-12)
    norm = np.linalg.norm(will, 2)
    freqs = 0.5 * (sigma[::2] + sigma[1::2])
    # every column lies in the eigenspace of -A^2 of its pair: A^2 v_j = -E^2 v_j
    av = vt @ will.T
    e_sq = np.repeat(freqs, 2)[:, None] ** 2
    assert np.max(np.abs(av @ will.T + e_sq * vt)) <= 1e-12 * norm**2
    # a pair with a simple frequency spans an invariant plane: A v1 = -b v2, A v2 = b v1,
    # to rounding over the pair's frequency gap (in a repeated one, such as that of
    # uncoupled modes, any orthonormal basis is an SVD)
    gaps = np.abs(freqs[:, None] - freqs[None, :]) + np.diag(np.full(freqs.size, np.inf))
    gap = gaps.min(axis=1)
    simple = gap > 1e-3 * norm
    b = np.einsum("ij,ij->i", vt[::2], av[1::2])[simple, None]
    plane_tol = PLANE_RESIDUAL * np.finfo(float).eps * norm**2 / gap[simple, None]
    assert np.all(np.abs(av[::2][simple] + b * vt[1::2][simple]) <= plane_tol)
    assert np.all(np.abs(av[1::2][simple] - b * vt[::2][simple]) <= plane_tol)
    np.testing.assert_allclose(np.abs(b[:, 0]), freqs[simple], rtol=0, atol=1e-12 * norm)


@given(stable_models(family="PositionPosition") | stable_models(family="Custom", real=True))
def test_quadrature_modes_are_symplectically_normalized(m):
    hypothesis.assume(m.v.any())  # v = 0 takes the Dk route
    freqs, x_modes, p_modes = propagator._quadrature_modes(m)
    # (xi, pi) / sqrt(E) = diag(X, P)^T (x, p) / sqrt(E) is canonical iff X^T P = diag(E)
    scale = np.sqrt(np.outer(freqs, freqs))
    np.testing.assert_allclose(x_modes.T @ p_modes / scale, np.eye(m.n_modes + 1),
                               rtol=0, atol=1e-12)
    assert np.all(freqs > 0.0)
    # M = -i Sigma K has the eigenvalues +-i E
    eigs = np.sort(np.abs(np.linalg.eigvals(dynamical_matrix(m)).imag))
    np.testing.assert_allclose(np.sort(freqs), eigs[::2], rtol=1e-12)


@given(ANY_MODEL)
def test_validate_model_equals_full_quadratic_form(m):
    full = np.linalg.eigvalsh(quadratic_form_matrix(m))
    got = validate_model(m)
    assert got > 0.0
    # eigvalsh is accurate to a few ulps of ||h||, so compare relative to it
    assert abs(got - full[0]) <= 1e-14 * np.max(np.abs(full))
