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
the vacuum Gaussian times Laguerre factors).  Each quantity has one entry
point taking any BathSpec: f_series_for gives the influence series of an
equilibrium or coherent bath (number-state baths are refused by the one guard
in baths), and chi_time_derivative the left side d chi/dt of every residual,
Gaussian or not.  Everything here evaluates both sides of these identities
along the exact solution; nothing is integrated forward.

The drift denominator |A|^2 - |C|^2 can cross zero (e.g. on resonance at
u t = pi/2); points at or below the floor raise SingularGeneratorError from
the scalar entry points and are flagged invalid in the series form.  The
coefficients are never regularized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import laguerre
from .baths import (
    BathSpec,
    GaussianFSeries,
    _gaussian_sums,
    _laguerre_split,
    _mode_args,
    bath_F_eval,
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
    "GeneratorCoefficients",
    "GaussianFSeries",
    "GeneralResidualReport",
    "xi_zeta",
    "f_series_for",
    "gaussian_generator",
    "generator_series",
    "generator_residual",
    "general_generator_apply",
    "general_generator_residual",
    "chi_time_derivative",
]

DENOM_FLOOR = 1e-8  # |A|^2 - |C|^2 at or below this marks a singular generator


@dataclass
class GeneratorCoefficients:
    """Time-local generator coefficients at one grid index."""

    xi: complex
    zeta: complex
    kappa: complex  # real up to rounding
    mu: complex
    sigma: complex
    denom: float
    valid: bool


def f_series_for(p: PropagatorCoefficients, bath: BathSpec) -> GaussianFSeries:
    """Gaussian influence series for an equilibrium or coherent preparation."""
    return _gaussian_sums(p, slice(None), bath, derivs=True)


def _drift_rows(p: PropagatorCoefficients, rows):
    """(xi, zeta, denom, valid) on the propagator rows p.X[rows]; xi, zeta unset where invalid."""
    a_t, c_t, da_t, dc_t = p.A[rows], p.C[rows], p.dA[rows], p.dC[rows]
    denom = np.abs(a_t) ** 2 - np.abs(c_t) ** 2
    valid = denom > DENOM_FLOOR
    safe = np.where(valid, denom, 1.0)
    xi = (np.conj(a_t) * da_t - np.conj(c_t) * dc_t) / safe
    zeta = (c_t * da_t - a_t * dc_t) / safe
    return xi, zeta, denom, valid


def _generator_rows(p: PropagatorCoefficients, rows, fs: GaussianFSeries) -> dict[str, np.ndarray]:
    """Generator coefficients on the rows p.X[rows]; fs holds the same rows."""
    xi, zeta, denom, valid = _drift_rows(p, rows)
    kappa = fs.alpha * 2.0 * np.real(xi) - 2.0 * (
        zeta * np.conj(fs.gamma) + np.conj(zeta) * fs.gamma
    ) - fs.dalpha
    mu = zeta * fs.alpha - 2.0 * xi * fs.gamma + fs.dgamma
    sigma = zeta * np.conj(fs.delta) - xi * fs.delta + fs.ddelta
    for arr in (xi, zeta, kappa, mu, sigma):
        arr[~valid] = np.nan
    return {"xi": xi, "zeta": zeta, "kappa": kappa, "mu": mu, "sigma": sigma,
            "denom": denom, "valid": valid}


def _raise_singular(p: PropagatorCoefficients, i: int, denom: float):
    raise SingularGeneratorError(
        f"|A|^2 - |C|^2 = {denom:.3e} <= floor {DENOM_FLOOR:.1e} at t = {p.grid.t[i]}"
    )


def xi_zeta(p: PropagatorCoefficients, i: int) -> tuple[complex, complex, float]:
    """Drift coefficients and their denominator |A|^2 - |C|^2 at index i.

    Raises SingularGeneratorError when the denominator is at or below the
    floor; the coefficients are never regularized.
    """
    xi, zeta, denom, valid = _drift_rows(p, row_slice(i))
    if not valid[0]:
        _raise_singular(p, i, denom[0])
    return complex(xi[0]), complex(zeta[0]), float(denom[0])


def _generator_at(p: PropagatorCoefficients, i: int, fs_i: GaussianFSeries):
    c = _generator_rows(p, row_slice(i), fs_i)
    if not c["valid"][0]:
        _raise_singular(p, i, c["denom"][0])
    return GeneratorCoefficients(
        xi=complex(c["xi"][0]), zeta=complex(c["zeta"][0]), kappa=complex(c["kappa"][0]),
        mu=complex(c["mu"][0]), sigma=complex(c["sigma"][0]), denom=float(c["denom"][0]),
        valid=True,
    )


def gaussian_generator(
    p: PropagatorCoefficients, i: int, fs: GaussianFSeries
) -> GeneratorCoefficients:
    """Generator coefficients for a Gaussian influence function at index i."""
    return _generator_at(p, i, fs[row_slice(i)])


def generator_series(p: PropagatorCoefficients, fs: GaussianFSeries) -> dict[str, np.ndarray]:
    """Vectorized generator coefficients with validity flags (no raising)."""
    return {"t": p.grid.t.copy(), **_generator_rows(p, slice(None), fs)}


def _logF_derivs(p: PropagatorCoefficients, i: int, bath: BathSpec, eta: np.ndarray):
    """(dlnF/deta, dlnF/deta^*, dlnF/dt, ok) at index i.

    F is the Gaussian part of _laguerre_split times prod_k L_{n_k}(|z_k|^2),
    whose log-derivatives form one (modes x nodes) array, one log_derivative
    call per distinct order; ok flags nodes too close to a Laguerre zero.
    """
    gauss, occs = _laguerre_split(p, bath)
    fs = bath_sums(p, row_slice(i), gauss, derivs=True)[0]
    active = np.flatnonzero(occs[0])
    orders, b, d = occs[0, active], p.B[i, active], p.D[i, active]
    z, dz = _mode_args(b, d, eta), _mode_args(p.dB[i, active], p.dD[i, active], eta)
    x = np.abs(z) ** 2
    ratio, ok = np.empty(x.shape), np.empty(x.shape, dtype=bool)
    for n in np.unique(orders):
        at = orders == n
        ratio[at], ok[at] = laguerre.log_derivative(int(n), x[at])
    b, d, z_c = b[:, None], d[:, None], np.conj(z)
    mode_sum = lambda term: (ratio * term).sum(axis=0).reshape(eta.shape)
    d_eta, d_etab = gaussian_exponent_wirtinger(fs.delta, fs.alpha, fs.gamma, eta)
    d_t = gaussian_exponent(fs.ddelta, fs.dalpha, fs.dgamma, eta)
    return (
        d_eta + mode_sum(np.conj(b) * z_c - np.conj(d) * z),
        d_etab + mode_sum(b * z - d * z_c),
        d_t + mode_sum(2.0 * np.real(dz * z_c)),
        ok.all(axis=0).reshape(eta.shape),
    )


def _chi_pieces(
    p: PropagatorCoefficients, i: int, bath: BathSpec, s: OscillatorState, eta: np.ndarray
):
    """chi, its eta-Wirtinger derivatives, its explicit time derivative and F's log-derivatives.

    d chi/dt differentiates the solution chi0(eta A^* - eta^* C) F(eta, t)
    along the exact trajectory, through dA, dC and dlnF/dt.
    """
    a_t, c_t, da_t, dc_t = p.A[i], p.C[i], p.dA[i], p.dC[i]
    w = eta * np.conj(a_t) - np.conj(eta) * c_t
    chi0, c0w, c0wb = chi0_wirtinger(s, w)
    f_val = bath_F_eval(p, i, bath, eta)
    log_f = _logF_derivs(p, i, bath, eta)
    d_eta, d_etab, d_t, _ = log_f
    chi = chi0 * f_val
    dchi_eta = (c0w * np.conj(a_t) - c0wb * np.conj(c_t)) * f_val + chi * d_eta
    dchi_etab = (-c0w * c_t + c0wb * a_t) * f_val + chi * d_etab
    dw_t = eta * np.conj(da_t) - np.conj(eta) * dc_t
    dwb_t = np.conj(eta) * da_t - eta * np.conj(dc_t)
    dchi_t = (c0w * dw_t + c0wb * dwb_t) * f_val + chi0 * f_val * d_t
    return chi, dchi_eta, dchi_etab, dchi_t, log_f


def _drift_apply(xi: complex, zeta: complex, eta: np.ndarray, g_eta, g_etab) -> np.ndarray:
    """(xi^* eta + zeta eta^*) g_eta + (xi eta^* + zeta^* eta) g_etab."""
    eta_c = np.conj(eta)
    return (np.conj(xi) * eta + zeta * eta_c) * g_eta + (xi * eta_c + np.conj(zeta) * eta) * g_etab


def chi_time_derivative(
    p: PropagatorCoefficients, i: int, bath: BathSpec, s: OscillatorState, eta
) -> tuple[np.ndarray, np.ndarray]:
    """Exact d chi/dt from the explicit time dependence of the solution.

    Returns (dchi_dt, ok); ok flags nodes where the bath factor F passes too
    close to a zero for its logarithmic derivative to be reliable.
    """
    eta = np.asarray(eta, dtype=complex)
    _, _, _, dchi_t, (_, _, _, ok) = _chi_pieces(p, i, bath, s, eta)
    return dchi_t, ok


def _residual_nodes(eta) -> np.ndarray:
    """The given eta nodes, or by default a 21 x 21 grid on [-2.5, 2.5]^2."""
    return square_eta_grid(2.5, 21) if eta is None else np.asarray(eta, dtype=complex)


def generator_residual(
    p: PropagatorCoefficients,
    i: int,
    bath: BathSpec,
    s: OscillatorState,
    eta=None,
) -> float:
    """Max |dchi/dt - generator RHS| / max |chi| for Gaussian influence baths.

    The left side is chi_time_derivative, the explicit time derivative of the
    closed-form solution, for every oscillator state; the right side uses the
    generator coefficients.  Their agreement verifies the coefficient
    formulas along the trajectory.
    """
    eta = _residual_nodes(eta)
    fs = _gaussian_sums(p, row_slice(i), bath, derivs=True)
    c = _generator_at(p, i, fs)
    chi, dchi_eta, dchi_etab, lhs, _ = _chi_pieces(p, i, bath, s, eta)
    rhs = _drift_apply(c.xi, c.zeta, eta, dchi_eta, dchi_etab) + gaussian_exponent(
        c.sigma, -c.kappa, c.mu, eta
    ) * chi
    return float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(chi)))


def _general_rhs(xi: complex, zeta: complex, eta: np.ndarray, pieces) -> np.ndarray:
    """Right side of the general evolution identity from the `_chi_pieces` at eta."""
    chi, dchi_eta, dchi_etab, _, (d_eta, d_etab, d_t, _) = pieces
    return _drift_apply(xi, zeta, eta, dchi_eta - chi * d_eta, dchi_etab - chi * d_etab) + chi * d_t


def general_generator_apply(
    p: PropagatorCoefficients,
    i: int,
    bath: BathSpec,
    s: OscillatorState,
    eta,
) -> tuple[np.ndarray, np.ndarray]:
    """Right side of the general (arbitrary-F) evolution identity on a grid.

    Returns (rhs, ok); nodes where F vanishes are flagged, not fabricated.
    """
    eta = np.asarray(eta, dtype=complex)
    xi, zeta, _ = xi_zeta(p, i)
    pieces = _chi_pieces(p, i, bath, s, eta)
    _, _, _, _, (_, _, _, ok) = pieces
    return _general_rhs(xi, zeta, eta, pieces), ok


@dataclass
class GeneralResidualReport:
    max_residual: float
    n_flagged: int
    n_nodes: int


def general_generator_residual(
    p: PropagatorCoefficients,
    i: int,
    bath: BathSpec,
    s: OscillatorState,
    eta=None,
) -> GeneralResidualReport:
    """Residual of the general evolution identity over non-flagged nodes.

    Both sides, chi and the flags come from one `_chi_pieces` evaluation.
    """
    eta = _residual_nodes(eta)
    xi, zeta, _ = xi_zeta(p, i)
    pieces = _chi_pieces(p, i, bath, s, eta)
    chi, _, _, lhs, (_, _, _, ok) = pieces
    res = np.abs(lhs - _general_rhs(xi, zeta, eta, pieces))[ok]
    scale = float(np.max(np.abs(chi)))
    return GeneralResidualReport(
        max_residual=float(res.max() / scale) if res.size else math.nan,
        n_flagged=int((~ok).sum()),
        n_nodes=int(eta.size),
    )
