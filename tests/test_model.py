from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from qbath import build_model, validate_model
from qbath.errors import ParameterError
from qbath.model import (
    ModelSpec,
    SpectralDiscretization,
    Units,
    dynamical_matrix,
    quadratic_form_matrix,
    spectral_density,
)

from conftest import STOCK_CONFIGS, load_sample_model


def test_decoupled_min_eigenvalue_is_half():
    assert validate_model(load_sample_model("validate-decoupled")) == pytest.approx(0.5, abs=1e-14)


def test_all_stock_models_stable():
    for name in STOCK_CONFIGS:
        assert validate_model(load_sample_model(name)) > 0.0, name


def test_spectral_density_values():
    ohmic = SpectralDiscretization("OhmicExpCutoff", 0.3, 2.0, 0.1, 4.0, 8)
    w = np.array([0.5, 1.0, 3.0])
    np.testing.assert_allclose(spectral_density(ohmic, w), 0.3 * w * np.exp(-w / 2.0))
    flat = SpectralDiscretization("FlatBand", 0.02, omega_min=0.1, omega_max=4.0, n_modes=8)
    np.testing.assert_allclose(spectral_density(flat, w), 0.02)


def test_parametric_discretization_midpoints_and_weights():
    disc = SpectralDiscretization("OhmicExpCutoff", 0.3, 2.0, 1.0, 3.0, 4)
    m = build_model(disc, 1.0, "RWA")
    dw = 0.5
    np.testing.assert_allclose(m.omegas, [1.25, 1.75, 2.25, 2.75])
    np.testing.assert_allclose(np.abs(m.u) ** 2, spectral_density(disc, m.omegas) * dw)
    assert np.all(m.v == 0)


def test_position_position_sets_v_equal_u():
    disc = SpectralDiscretization("FlatBand", 0.01, omega_min=0.5, omega_max=1.5, n_modes=3)
    m = build_model(disc, 1.0, "PositionPosition")
    np.testing.assert_array_equal(m.u, m.v)
    assert np.all(m.u.imag == 0)


def test_coupling_scales_as_inverse_sqrt_n():
    vals = []
    for n in (16, 64):
        disc = SpectralDiscretization("FlatBand", 0.01, omega_min=0.5, omega_max=1.5, n_modes=n)
        vals.append(np.sum(np.abs(build_model(disc, 1.0, "RWA").u) ** 2))
    # total coupling weight is N-independent at fixed band
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)


def test_explicit_family_validation():
    with pytest.raises(ParameterError):
        ModelSpec(1.0, omegas=[1.0, 2.0], u=[0.1 + 0j])
    with pytest.raises(ParameterError, match="no band recipe"):
        SpectralDiscretization("Explicit", n_modes=2)
    with pytest.raises(ParameterError):
        SpectralDiscretization("FlatBand", strength=-0.1, omega_min=0.0, omega_max=1.0, n_modes=2)
    with pytest.raises(ParameterError):
        SpectralDiscretization("FlatBand", 0.1, omega_min=2.0, omega_max=1.0, n_modes=2)


def test_unstable_model_detected(unstable_model):
    assert validate_model(unstable_model) < 0.0


def _exact_min_eigenvalue_n1(m):
    """(hbar/2) min eig of K for N = 1, from the stored floats.

    K's smallest eigenvalue is (nu + omega - sqrt((nu - omega)^2 + 4 (|u| + |v|)^2)) / 2
    (for real u, v: the smaller one of the quadrature blocks [[nu, u +- v], [u +- v, omega]]).
    |u|^2 and |v|^2 are exact rationals; the square roots are taken to 60 digits.
    """
    def dec(x):
        return Decimal(x.numerator) / Decimal(x.denominator)

    nu, omega = Fraction(m.nu), Fraction(m.omegas[0])
    abs2_u = Fraction(m.u[0].real) ** 2 + Fraction(m.u[0].imag) ** 2
    abs2_v = Fraction(m.v[0].real) ** 2 + Fraction(m.v[0].imag) ** 2
    with localcontext() as ctx:
        ctx.prec = 60
        reach2 = dec(abs2_u) + dec(abs2_v) + 2 * dec(abs2_u * abs2_v).sqrt()
        root = (dec((nu - omega) ** 2) + 4 * reach2).sqrt()
        return Decimal(m.units.hbar) / 2 * (dec(nu + omega) - root) / 2


@pytest.mark.parametrize("coupling, phase, exact", [
    pytest.param(0.1, 0.0, -1.73e-18, id="0.1--1.73e-18"),
    pytest.param(0.10000000000000003, 0.0, -1.24e-17, id="0.10000000000000003--1.24e-17"),
    pytest.param(0.1, 0.7, -1.40e-18, id="0.1-phase-0.7--1.40e-18"),
    pytest.param(0.10000000000000003, 0.7, -1.30e-17, id="0.10000000000000003-phase-0.7--1.30e-17"),
    # f(0) rounds to 0 in floats here: the exact rational f(0) decides the sign
    pytest.param(0.1, 0.2, -6.28e-19, id="0.1-phase-0.2--6.28e-19"),
    pytest.param(0.09999999999999999, 0.1, 1.49e-18, id="0.09999999999999999-phase-0.1-1.49e-18"),
])
def test_validate_model_sign_at_the_stability_edge(coupling, phase, exact):
    # u = g e^{-i phase}, v = g e^{i phase}: stable iff nu omega > (|u| + |v|)^2 = (2g)^2, and
    # 0.04 = 0.2^2 here; phase = 0 couples x to x with 2g, and K is complex otherwise
    m = ModelSpec(1.0, omegas=[0.04], u=[coupling * np.exp(-1j * phase)],
                  v=[coupling * np.exp(1j * phase)], coupling_family="Custom")
    want = _exact_min_eigenvalue_n1(m)
    assert float(want) == pytest.approx(exact, rel=1e-2)
    got = validate_model(m)
    assert np.sign(got) == np.sign(float(want)) == np.sign(exact)
    assert got == pytest.approx(float(want), rel=1e-12)


def test_dynamical_matrix_structure_n1():
    m = ModelSpec(1.0, omegas=[1.3], u=[0.25 + 0.1j], v=[0.15 - 0.2j], coupling_family="Custom")
    mat = dynamical_matrix(m)
    assert mat.shape == (4, 4)
    # a-row: -i(nu, u, 0, v)
    np.testing.assert_allclose(mat[0], -1j * np.array([1.0, 0.25 + 0.1j, 0.0, 0.15 - 0.2j]))
    # b-row couples back through conj(u) and the dagger sector through v
    np.testing.assert_allclose(mat[1], -1j * np.array([0.25 - 0.1j, 1.3, 0.15 - 0.2j, 0.0]))


def test_stable_spectrum_is_imaginary_pairs():
    m = load_sample_model("propagate-ohmic-pp")
    lam = np.linalg.eigvals(dynamical_matrix(m))
    assert np.max(np.abs(lam.real)) < 1e-12
    # frequencies come in +/- pairs from the dagger sector
    freqs = np.sort_complex(lam).imag
    np.testing.assert_allclose(np.sort(freqs), -np.sort(-freqs)[::-1], atol=1e-12)


def test_quadratic_form_is_hermitian():
    for name in STOCK_CONFIGS:
        h = quadratic_form_matrix(load_sample_model(name))
        np.testing.assert_allclose(h, h.conj().T, atol=1e-14)


def test_units_enter_quadratic_form_through_hbar():
    disc = SpectralDiscretization("FlatBand", 0.01, omega_min=0.5, omega_max=1.5, n_modes=2)
    m1 = build_model(disc, 1.0, "RWA")
    m2 = build_model(disc, 1.0, "RWA", units=Units(hbar=2.0, mass=3.0))
    np.testing.assert_allclose(quadratic_form_matrix(m2), 2.0 * quadratic_form_matrix(m1))


def _dynamical_matrix_reference(m):
    """M assembled block by block, independently of the coupling matrix K."""
    n = m.n_modes
    upper = np.zeros((n + 1, n + 1), dtype=complex)  # rows/cols (a, b_k)
    mixer = np.zeros((n + 1, n + 1), dtype=complex)  # columns (a^dag, b_k^dag)
    upper[0, 0] = -1j * m.nu
    upper[0, 1:] = -1j * m.u
    upper[1:, 0] = -1j * np.conj(m.u)
    upper[np.arange(1, n + 1), np.arange(1, n + 1)] = -1j * m.omegas
    mixer[0, 1:] = -1j * m.v
    mixer[1:, 0] = -1j * m.v
    mat = np.zeros((2 * n + 2, 2 * n + 2), dtype=complex)
    mat[: n + 1, : n + 1] = upper
    mat[: n + 1, n + 1 :] = mixer
    mat[n + 1 :, n + 1 :] = np.conj(upper)
    mat[n + 1 :, : n + 1] = np.conj(mixer)
    return mat


def _quadratic_form_reference(m):
    """h assembled block by block, independently of the coupling matrix K."""
    n = m.n_modes
    diag_block = np.zeros((n + 1, n + 1), dtype=complex)  # (a, b) x (a, b)
    cross_block = np.zeros((n + 1, n + 1), dtype=complex)  # (a, b) x (a^dag, b^dag)
    diag_block[0, 0] = m.nu / 2.0
    diag_block[np.arange(1, n + 1), np.arange(1, n + 1)] = m.omegas / 2.0
    diag_block[0, 1:] = m.u / 2.0
    diag_block[1:, 0] = np.conj(m.u) / 2.0
    cross_block[0, 1:] = m.v / 2.0
    cross_block[1:, 0] = m.v / 2.0
    h = np.zeros((2 * n + 2, 2 * n + 2), dtype=complex)
    h[: n + 1, : n + 1] = diag_block
    h[n + 1 :, n + 1 :] = np.conj(diag_block)
    h[: n + 1, n + 1 :] = cross_block
    h[n + 1 :, : n + 1] = np.conj(cross_block)
    return m.units.hbar * h


def test_matrices_from_one_coupling_matrix_equal_block_assembly():
    rng = np.random.default_rng(11)
    custom = ModelSpec(
        1.1,
        omegas=rng.uniform(0.5, 2.0, 6),
        u=0.05 * (rng.normal(size=6) + 1j * rng.normal(size=6)),
        v=0.03 * (rng.normal(size=6) - 1j * rng.normal(size=6)),
        units=Units(hbar=2.5, mass=0.7),
        coupling_family="Custom",
    )
    models = [load_sample_model(name) for name in STOCK_CONFIGS] + [custom]
    for m in models:
        mat, ref_mat = dynamical_matrix(m), _dynamical_matrix_reference(m)
        h, ref_h = quadratic_form_matrix(m), _quadratic_form_reference(m)
        assert np.array_equal(mat.view(np.float64), ref_mat.view(np.float64))
        assert np.array_equal(h.view(np.float64), ref_h.view(np.float64))
        assert h.tobytes() == ref_h.tobytes()
        # eig's Householder steps read the signs of zero parts of nonzero entries
        assigned = ref_mat != 0
        assert mat[assigned].tobytes() == ref_mat[assigned].tobytes()
