"""Exact time-local generators for the reduced characteristic function.

With w = eta A^* - eta^* C, the transformed initial factor chi~ = chi0(w)
obeys an advection equation with drift coefficients

    xi   = (A^* dA - C^* dC) / (|A|^2 - |C|^2)
    zeta = (C dA - A dC) / (|A|^2 - |C|^2)

For Gaussian influence functions F (equilibrium and coherent preparations)
the full chi = chi~ F satisfies

    dchi/dt = (xi^* eta + zeta eta^*) dchi/deta
            + (xi eta^* + zeta^* eta) dchi/deta^*
            + (kappa |eta|^2 + mu^* eta^2 + mu eta^*2 + sigma^* eta
               - sigma eta^*) chi

with kappa, mu, sigma given by the influence parameters, their exact time
derivatives, and (xi, zeta).  For arbitrary F the generator keeps log-
derivatives of F explicitly, split as baths decides (a number-state F is
the vacuum Gaussian times Laguerre factors).  Each identity has one entry
point: generator_coefficients gives (xi, zeta, kappa, mu, sigma) of an
equilibrium or coherent bath (number-state baths are refused by the one guard
in baths), and general_generator gives chi, d chi/dt, the general right side
and the flags for any BathSpec.  Everything here evaluates both sides of
these identities along the exact solution; nothing is integrated forward.

Both sides come from one row-set kernel, _chi_pieces, which evaluates the
bath sums once per call; for a Gaussian bath they also give the generator
coefficients.  generator_coefficients and generator_residual take a grid
index or a row set; general_generator and general_generator_residual take a
grid index and are one-row slices of the same kernels.  propagator.row_slice
refuses an index outside the grid.

The drift denominator |A|^2 - |C|^2 can cross zero (e.g. on resonance at
u t = pi/2); every entry point raises
SingularGeneratorError at the first such row, naming its grid index and
time, except generator_coefficients on a row set, which flags it invalid.
The coefficients are never regularized.
"""

from __future__ import annotations

import math

import numpy as np

from . import laguerre
from .baths import (
    BathSpec,
    GaussianFSeries,
    _gaussian,
    _influence,
    _is_index,
    _laguerre_split,
    _mode_args,
    _single,
    bath_sums,
)
from .errors import SingularGeneratorError
from .observables import square_eta_grid
from .propagator import PropagatorCoefficients, row_slice
from .states import (
    OscillatorState,
    chi0_wirtinger,
    gaussian_exponent,
    gaussian_exponent_wirtinger,
)

__all__ = [
    "DENOM_FLOOR",
    "generator_coefficients",
    "generator_residual",
    "general_generator",
    "general_generator_residual",
]

DENOM_FLOOR = 1e-8  # |A|^2 - |C|^2 at or below this marks a singular generator


def _drift_rows(p: PropagatorCoefficients, rows):
    """(xi, zeta, denom, valid) on the propagator rows p.X[rows]; xi, zeta unset where invalid."""
    a_t, c_t, da_t, dc_t = p.A[rows], p.C[rows], p.dA[rows], p.dC[rows]
    denom = np.abs(a_t) ** 2 - np.abs(c_t) ** 2
    valid = denom > DENOM_FLOOR
    safe = np.where(valid, denom, 1.0)
    xi = (np.conj(a_t) * da_t - np.conj(c_t) * dc_t) / safe
    zeta = (c_t * da_t - a_t * dc_t) / safe
    return xi, zeta, denom, valid


def _generator_rows(drift, fs: GaussianFSeries) -> dict[str, np.ndarray]:
    """Generator coefficients from the _drift_rows result drift and the bath sums fs of its rows."""
    xi, zeta, denom, valid = drift
    kappa = fs.alpha * 2.0 * np.real(xi) - 2.0 * (
        zeta * np.conj(fs.gamma) + np.conj(zeta) * fs.gamma
    ) - fs.dalpha
    mu = zeta * fs.alpha - 2.0 * xi * fs.gamma + fs.dgamma
    sigma = zeta * np.conj(fs.delta) - xi * fs.delta + fs.ddelta
    for arr in (xi, zeta, kappa, mu, sigma):
        arr[~valid] = np.nan
    return {"xi": xi, "zeta": zeta, "kappa": kappa, "mu": mu, "sigma": sigma,
            "denom": denom, "valid": valid}


def _checked_drift(p: PropagatorCoefficients, rows: np.ndarray):
    """_drift_rows on the grid rows; SingularGeneratorError at the first singular row."""
    drift = _drift_rows(p, rows)
    _, _, denom, valid = drift
    if not valid.all():
        k = int(np.argmin(valid))
        raise SingularGeneratorError(
            f"|A|^2 - |C|^2 = {denom[k]:.3e} <= floor {DENOM_FLOOR:.1e} "
            f"at grid index {rows[k]}, t = {p.grid.t[rows[k]]}"
        )
    return drift


def _grid_rows(p: PropagatorCoefficients, i) -> np.ndarray:
    """Grid indices of the rows p.X[i]: one, checked by row_slice, for a grid index."""
    return np.arange(p.n_times)[row_slice(p, i) if _is_index(i) else i]


def generator_coefficients(p: PropagatorCoefficients, i, bath: BathSpec) -> dict:
    """Generator coefficients t, xi, zeta, kappa, mu, sigma, denom and valid.

    i is a grid index (Python scalars; SingularGeneratorError when the drift
    denominator is at or below the floor) or a row set: a slice, an integer
    array or a mask (arrays of the shape p.A[i] has, singular rows flagged
    invalid and NaN, each entry with the bits of its one-index call).  bath is
    one equilibrium or coherent preparation, whose bath sums are taken once.
    """
    one, bath = _is_index(i), _gaussian(_single(bath))
    # a row set is indexed as given: a slice takes views, not (rows x modes) copies
    rows = row_slice(p, i) if one else i
    fs = bath_sums(p, rows, bath, derivs=True)
    drift = _checked_drift(p, _grid_rows(p, i)) if one else _drift_rows(p, rows)
    c = {"t": p.grid.t[rows].copy(), **_generator_rows(drift, fs)}
    return {key: value[0].item() for key, value in c.items()} if one else c


def _logF_derivs(p: PropagatorCoefficients, rows: np.ndarray, bath: BathSpec, eta: np.ndarray):
    """(dlnF/deta, dlnF/deta^*, dlnF/dt, ok, fs) on the grid indices rows, with an (R, P) eta.

    bath is one preparation; a member matrix is refused with a ParameterError.
    fs holds the bath sums, with time derivatives, of the Gaussian part of
    _laguerre_split, and F is that Gaussian times prod_k L_{n_k}(|z_k|^2),
    whose log-derivatives form one (modes, R, P) array, one log_derivative
    call per distinct order; ok flags nodes too close to a Laguerre zero.
    """
    gauss, occs = _laguerre_split(p, _single(bath))
    fs = bath_sums(p, rows, gauss, derivs=True)
    active = np.flatnonzero(occs[0])
    orders = occs[0, active]
    b, d, db, dd = (x[rows][:, active] for x in (p.B, p.D, p.dB, p.dD))
    z, dz = _mode_args(b, d, eta), _mode_args(db, dd, eta)
    x = np.abs(z) ** 2
    ratio, ok = np.empty(x.shape), np.empty(x.shape, dtype=bool)
    for n in np.unique(orders):
        at = orders == n
        ratio[at], ok[at] = laguerre.log_derivative(int(n), x[at])
    b, d, z_c, col = b.T[..., None], d.T[..., None], np.conj(z), fs[:, None]
    mode_sum = lambda term: (ratio * term).sum(axis=0)
    d_eta, d_etab = gaussian_exponent_wirtinger(col.delta, col.alpha, col.gamma, eta)
    d_t = gaussian_exponent(col.ddelta, col.dalpha, col.dgamma, eta)
    return (
        d_eta + mode_sum(np.conj(b) * z_c - np.conj(d) * z),
        d_etab + mode_sum(b * z - d * z_c),
        d_t + mode_sum(2.0 * np.real(dz * z_c)),
        ok.all(axis=0),
        fs,
    )


def _chi_pieces(p: PropagatorCoefficients, rows, bath: BathSpec, s: OscillatorState, eta):
    """chi, its eta-Wirtinger derivatives, its explicit time derivative and _logF_derivs.

    The row-set kernel of every residual, on the grid indices rows with an
    (R, P) eta.  d chi/dt differentiates chi0(eta A^* - eta^* C) F(eta, t)
    along the exact trajectory, through dA, dC and dlnF/dt; F comes from the
    bath sums of _logF_derivs.  Every step is elementwise in the rows, or a
    sum within one row, so a row has the same bits in any row set.
    """
    a_t, c_t, da_t, dc_t = (x[rows][:, None] for x in (p.A, p.C, p.dA, p.dC))
    w = eta * np.conj(a_t) - np.conj(eta) * c_t
    chi0, c0w, c0wb = chi0_wirtinger(s, w)
    d_eta, d_etab, d_t, ok, fs = _logF_derivs(p, rows, bath, eta)
    f_val = _influence(p, rows, bath, fs[:, None], eta)
    chi = chi0 * f_val
    dchi_eta = (c0w * np.conj(a_t) - c0wb * np.conj(c_t)) * f_val + chi * d_eta
    dchi_etab = (-c0w * c_t + c0wb * a_t) * f_val + chi * d_etab
    dw_t = eta * np.conj(da_t) - np.conj(eta) * dc_t
    dwb_t = np.conj(eta) * da_t - eta * np.conj(dc_t)
    dchi_t = (c0w * dw_t + c0wb * dwb_t) * f_val + chi0 * f_val * d_t
    return chi, dchi_eta, dchi_etab, dchi_t, (d_eta, d_etab, d_t, ok, fs)


def _drift_apply(xi, zeta, eta: np.ndarray, g_eta, g_etab) -> np.ndarray:
    """(xi^* eta + zeta eta^*) g_eta + (xi eta^* + zeta^* eta) g_etab."""
    eta_c = np.conj(eta)
    return (np.conj(xi) * eta + zeta * eta_c) * g_eta + (xi * eta_c + np.conj(zeta) * eta) * g_etab


def _residual_nodes() -> np.ndarray:
    """The eta nodes of every residual: a 21 x 21 grid on [-2.5, 2.5]^2."""
    return square_eta_grid(2.5, 21)


def generator_residual(
    p: PropagatorCoefficients, i, bath: BathSpec, s: OscillatorState
) -> float | np.ndarray:
    """Max |dchi/dt - generator RHS| / max |chi| for Gaussian influence baths.

    i is a grid index (returning a float) or a row set: a slice, an integer
    array or a mask (returning an array of the shape p.A[i] has, each entry
    with the bits of its one-index call).  The left side is d chi/dt of the
    closed-form solution, for every oscillator state; the right side uses the
    generator coefficients from the same bath sums.  Their agreement on the
    21 x 21 eta grid on [-2.5, 2.5]^2 verifies the coefficient formulas along
    the trajectory.
    """
    bath, grid_rows = _gaussian(bath), _grid_rows(p, i)
    rows, nodes = grid_rows.ravel(), _residual_nodes().ravel()
    drift = _checked_drift(p, rows)
    eta = np.broadcast_to(nodes, (rows.size, nodes.size))
    chi, dchi_eta, dchi_etab, lhs, (*_, fs) = _chi_pieces(p, rows, bath, s, eta)
    c = {key: value[:, None] for key, value in _generator_rows(drift, fs).items()}
    rhs = _drift_apply(c["xi"], c["zeta"], eta, dchi_eta, dchi_etab) + gaussian_exponent(
        c["sigma"], -c["kappa"], c["mu"], eta
    ) * chi
    res = np.max(np.abs(lhs - rhs), axis=-1) / np.max(np.abs(chi), axis=-1)
    return float(res[0]) if _is_index(i) else res.reshape(grid_rows.shape)


def general_generator(
    p: PropagatorCoefficients, i: int, bath: BathSpec, s: OscillatorState, eta
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(chi, dchi/dt, rhs, ok) of the general (arbitrary-F) evolution identity at grid index i.

    Each array has eta's shape.  dchi/dt is the exact time derivative of the
    closed-form solution, rhs the identity's right side from the drift and
    the log-derivatives of F, and ok flags nodes where F passes too close to
    a zero for its log-derivatives to be reliable: flagged, not fabricated.
    """
    shape, eta = np.shape(eta), np.asarray(eta, dtype=complex).reshape(1, -1)
    rows = _grid_rows(p, i)
    xi, zeta, _, _ = _checked_drift(p, rows)
    chi, dchi_eta, dchi_etab, lhs, (d_eta, d_etab, d_t, ok, _) = _chi_pieces(p, rows, bath, s, eta)
    rhs = _drift_apply(xi[:, None], zeta[:, None], eta, dchi_eta - chi * d_eta,
                       dchi_etab - chi * d_etab) + chi * d_t
    return tuple(x.reshape(shape) for x in (chi, lhs, rhs, ok))


def general_generator_residual(
    p: PropagatorCoefficients, i: int, bath: BathSpec, s: OscillatorState
) -> float:
    """Max |dchi/dt - rhs| over the nodes general_generator leaves unflagged, / max |chi|.

    The nodes are generator_residual's; NaN when every node is flagged.
    Both sides carry the same dlnF/dt, so for a non-Gaussian F (a number-state
    bath) this checks the drift (xi, zeta) alone, not the number-bath equation.
    """
    chi, lhs, rhs, ok = general_generator(p, i, bath, s, _residual_nodes())
    res = np.abs(lhs - rhs)[ok]
    return float(res.max() / np.max(np.abs(chi))) if res.size else math.nan
