"""Reduced-state observables: characteristic function, moments, purity, ensembles.

Position and momentum use x = sqrt(hbar/(2 m nu))(a^dag + a) and
p = i sqrt(hbar m nu / 2)(a^dag - a).  Purity is Tr rho^2 =
(1/pi) int d^2eta |chi(eta)|^2.  purity_rows picks the path for a whole grid:
when both the oscillator state and the bath influence are Gaussian it is
1/(2 sqrt(a^2 - 4|g|^2)) in the total Gaussian parameters; otherwise one
quadrature driver integrates |chi|^2 = |chi0|^2 |F_g|^2 prod_k L_{n_k}^2 with
a tensor Gauss-Hermite rule in the coordinates that whiten its Gaussian
envelope, doubling the nodes per axis until two successive levels agree.
For a Gaussian state the rest of the integrand is a polynomial, and the rule
is exact at 2 sum_k n_k + 1 nodes per axis.  A single purity and each member
of a number-state ensemble are members of that driver; the ensemble's
members share one node set.  On one propagator row, mean_rows and
variance_rows give a member matrix one entry per member, or one shared entry.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import laguerre
from .baths import (
    BathSpec,
    CoherentStateBath,
    EquilibriumBath,
    NumberStateBath,
    _check_modes,
    _single,
    bath_F_eval,
    bath_delta,
    bath_f_params,
    bath_sums,
    coherent_F_params,
    occupation,
    sample_number_states,
)
from .errors import AccuracyError, ParameterError, PhysicalityError
from .propagator import PropagatorCoefficients, row_slice
from .states import (
    OscillatorState,
    carried_gaussian_params,
    central_moments,
    chi0_eval,
    gaussian_chi_params,
    initial_moments,
    is_gaussian,
    vacuum_state,
)

__all__ = [
    "EnsembleSummary",
    "square_eta_grid",
    "chi_eval",
    "mean_rows",
    "mean_xp",
    "variance_rows",
    "variances",
    "asymptotic_variances",
    "asymptotic_purity",
    "purity_rows",
    "purity",
    "number_variance_of_variance",
    "member_purities",
    "averaged_purity_number_ensemble",
    "displaced_vacuum_check",
    "observable_series",
]

N_START = 16  # Gauss-Hermite nodes per axis at the first quadrature level
MAX_NODES = 256  # nodes per axis at the finest level; hermgauss(512) is not finite
ENSEMBLE_TOL = 1e-7  # level agreement of the number-ensemble quadrature


@dataclass
class EnsembleSummary:
    """Monte-Carlo estimate with its standard error."""

    estimate: float
    std_error: float
    n_samples: int
    seed: int


def summarize(values: np.ndarray, seed: int) -> EnsembleSummary:
    values = np.asarray(values, dtype=float)
    n = values.size
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return EnsembleSummary(float(values.mean()), se, n, seed)


def square_eta_grid(extent: float, n: int) -> np.ndarray:
    """Flattened n x n grid of complex eta over [-extent, extent]^2."""
    x = np.linspace(-extent, extent, n)
    re, im = np.meshgrid(x, x)
    return (re + 1j * im).ravel()


def chi_eval(
    p: PropagatorCoefficients, i: int, bath: BathSpec, s: OscillatorState, eta
) -> np.ndarray:
    """Symmetrically ordered characteristic function of the reduced state."""
    eta = np.asarray(eta, dtype=complex)
    zeta = eta * np.conj(p.A[i]) - np.conj(eta) * p.C[i]
    return chi0_eval(s, zeta) * bath_F_eval(p, i, bath, eta)


def mean_rows(
    p: PropagatorCoefficients, rows, bath: BathSpec, s: OscillatorState
) -> tuple[np.ndarray, np.ndarray]:
    """(mean x, mean p) on the propagator rows p.X[rows]."""
    mean_a, _, _ = initial_moments(s)
    a_t, c_t = p.A[rows], p.C[rows]
    delta = bath_delta(p, rows, bath)
    u = p.model.units
    x_scale = math.sqrt(u.hbar / (2.0 * u.mass * p.model.nu))
    p_scale = math.sqrt(u.hbar * u.mass * p.model.nu / 2.0)
    mean_adag_t = (np.conj(a_t) + c_t) * np.conj(mean_a) + (a_t + np.conj(c_t)) * mean_a
    mean_x = x_scale * (mean_adag_t + delta + np.conj(delta))
    diff = (np.conj(a_t) - c_t) * np.conj(mean_a) - (a_t - np.conj(c_t)) * mean_a
    mean_p = 1j * p_scale * (diff + np.conj(delta) - delta)
    return np.real(mean_x), np.real(mean_p)


def mean_xp(
    p: PropagatorCoefficients, i: int, bath: BathSpec, s: OscillatorState
) -> tuple[float, float]:
    """(mean x, mean p) at grid index i."""
    mean_x, mean_p = mean_rows(p, row_slice(i), _single(bath), s)
    return float(mean_x[0]), float(mean_p[0])


def variance_rows(
    p: PropagatorCoefficients, rows, bath: BathSpec, s: OscillatorState
) -> tuple[np.ndarray, np.ndarray]:
    """(var x, var p) on the propagator rows p.X[rows]."""
    n_c, c_aa = central_moments(s)
    f = bath_sums(p, rows, bath)
    a_t, c_t = p.A[rows], p.C[rows]
    u = p.model.units
    xq = u.hbar / (2.0 * u.mass * p.model.nu)
    pq = u.hbar * u.mass * p.model.nu / 2.0
    plus = a_t + np.conj(c_t)
    minus = a_t - np.conj(c_t)
    core_x = 2.0 * np.real(plus**2 * c_aa) + 2.0 * np.abs(plus) ** 2 * (n_c + 0.5)
    core_p = -2.0 * np.real(minus**2 * c_aa) + 2.0 * np.abs(minus) ** 2 * (n_c + 0.5)
    var_x = xq * (core_x + 2.0 * (f.alpha + 2.0 * np.real(f.gamma)))
    var_p = pq * (core_p + 2.0 * (f.alpha - 2.0 * np.real(f.gamma)))
    return var_x, var_p


def variances(
    p: PropagatorCoefficients, i: int, bath: BathSpec, s: OscillatorState
) -> tuple[float, float]:
    """(var x, var p) at grid index i; coherent amplitudes drop out."""
    var_x, var_p = variance_rows(p, row_slice(i), _single(bath), s)
    return float(var_x[0]), float(var_p[0])


def asymptotic_variances(
    p: PropagatorCoefficients, i: int, bath: BathSpec
) -> tuple[float, float]:
    """Long-time limits (hbar/m nu)(alpha +- 2 Re gamma) evaluated at index i."""
    f = bath_sums(p, row_slice(i), _single(bath))
    alpha, gamma = float(f.alpha[0]), complex(f.gamma[0])
    u = p.model.units
    factor = u.hbar / (u.mass * p.model.nu)
    return (
        factor * (alpha + 2.0 * np.real(gamma)),
        u.hbar * u.mass * p.model.nu * (alpha - 2.0 * np.real(gamma)),
    )


def _gaussian_purity(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """1/(2 sqrt(a^2 - 4|g|^2)) elementwise; raises at the first non-positive form."""
    disc = a * a - 4.0 * np.abs(g) ** 2
    bad = disc <= 0.0
    if bad.any():
        k = np.argmax(bad)
        raise PhysicalityError(f"purity form not positive: a={a[k]}, |g|={abs(g[k])}")
    return 1.0 / (2.0 * np.sqrt(disc))


def asymptotic_purity(p: PropagatorCoefficients, i: int, bath: BathSpec) -> float:
    """Long-time purity 1/(2 sqrt(alpha^2 - 4 |gamma|^2)) evaluated at index i."""
    f = bath_sums(p, row_slice(i), _single(bath))
    return float(_gaussian_purity(f.alpha, f.gamma)[0])


def _total_gaussian_rows(
    p: PropagatorCoefficients, rows, bath: BathSpec, s: OscillatorState
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, a, g) of the total Gaussian chi on the propagator rows p.X[rows]."""
    if isinstance(bath, NumberStateBath):
        raise ParameterError("number-state bath influence is not Gaussian")
    d, a, g = carried_gaussian_params(*gaussian_chi_params(s), p.A[rows], p.C[rows])
    f = bath_sums(p, rows, bath)
    return d + f.delta, a + f.alpha, g + f.gamma


def _whitened(p: PropagatorCoefficients, i: int, s: OscillatorState, gauss_bath):
    """(W, 1/(pi sqrt(det M))) for the Gaussian envelope exp(-x^T M x) of |chi|^2.

    x = (Re eta, Im eta).  M holds the state's carried Gaussian parameters (a
    cat's are the vacuum's, a0 = 1/2, g0 = 0) plus those of the members'
    common Gaussian bath.  With M = U Lambda U^T, W = U Lambda^{-1/2} maps
    y to x so that x^T M x = y^T y.
    """
    a0, g0 = gaussian_chi_params(s)[1:] if is_gaussian(s) else (0.5, 0.0)
    _, a, g = carried_gaussian_params(0.0, a0, g0, p.A[i], p.C[i])
    f = bath_f_params(p, i, gauss_bath)
    a, g = a + f.alpha, g + f.gamma
    m = np.array([[2.0 * a - 4.0 * g.real, -4.0 * g.imag],
                  [-4.0 * g.imag, 2.0 * a + 4.0 * g.real]])
    lam, u = np.linalg.eigh(m)
    if not lam[0] > 0.0:
        raise PhysicalityError(f"purity envelope not positive: eigenvalues {lam[0]}, {lam[1]}")
    return u / np.sqrt(lam), 1.0 / (math.pi * math.sqrt(m[0, 0] * m[1, 1] - m[0, 1] ** 2))


@functools.cache
def _hermite_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y and modified weights w exp(y^2) of the n-point Gauss-Hermite rule."""
    # imported here: `import qbath` does not load numpy.polynomial
    from numpy.polynomial.hermite import hermgauss

    y, w = hermgauss(n)
    table = (y, w * np.exp(y * y))
    for arr in table:
        arr.setflags(write=False)
    return table


def _level(p, i, s, gauss_bath, whiten: np.ndarray, n: int, occs: np.ndarray):
    """One quadrature level: a function of a row of occs giving that member's sum.

    The sum is sum_ij w_i w_j exp(y_i^2 + y_j^2) |chi|^2 over the n x n
    Gauss-Hermite nodes mapped by x = whiten y.  |chi|^2 is |chi_g|^2 of the
    common Gaussian bath times prod_k L_{n_k}(x_k)^2, multiplied in log space
    so that an underflowed |chi_g|^2 never meets an overflowed product.  Each
    mode's Laguerre argument |eta B_k^* - eta^* D_k|^2 is computed once per
    level, on first use, and shared by the members.
    """
    y, wt = _hermite_table(n)
    y1, y2 = y[:, None], y[None, :]
    re = whiten[0, 0] * y1 + whiten[0, 1] * y2
    im = whiten[1, 0] * y1 + whiten[1, 1] * y2
    eta = (re + 1j * im).ravel()
    base = np.abs(chi_eval(p, i, gauss_bath, s, eta)) ** 2
    with np.errstate(divide="ignore"):
        log_base = np.log(base) if occs.any() else None
    b, d = p.B[i], p.D[i]
    args: dict[int, np.ndarray] = {}

    def arg(k: int) -> np.ndarray:
        if k not in args:
            args[k] = np.abs(eta * np.conj(b[k]) - np.conj(eta) * d[k]) ** 2
        return args[k]

    def member(occ: np.ndarray) -> float:
        modes = np.nonzero(occ)[0]
        if modes.size == 0:
            chi2 = base
        else:
            _, log_lag = laguerre.log_product(occ[modes], (arg(int(k)) for k in modes), eta.shape)
            chi2 = np.exp(log_base + 2.0 * log_lag)
        return float(wt @ chi2.reshape(n, n) @ wt)

    return member


def _map(fn, items, threads: int | None) -> list:
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _quadrature(p, i, s, gauss_bath, occs, probes, tol, threads=None) -> np.ndarray:
    """Purities at index i of the members F = F_g prod_k L_{n_k}, one row of occs each.

    F_g is the influence of gauss_bath, a Gaussian bath common to the members.
    With x = W y the whitening of _whitened,
    purity = sum_ij w_i w_j exp(y_i^2 + y_j^2) |chi(x_ij)|^2 / (pi sqrt(det M))
    on a tensor Gauss-Hermite rule shared by the members.  The nodes per axis
    double from N_START until every probe member agrees with the previous
    level to tol; the other members are then summed on that level.  For a
    Gaussian state |chi|^2 / envelope is a polynomial of degree 4 sum_k n_k,
    so 2 max_member sum_k n_k + 1 nodes are exact and end the doubling.
    """
    whiten, scale = _whitened(p, i, s, gauss_bath)
    exact = 2 * int(occs.sum(axis=1).max()) + 1 if is_gaussian(s) else math.inf
    # up to 2 N_START the exact rule costs less than the two levels doubling needs
    n = exact if exact <= 2 * N_START else N_START
    prev = None
    while n <= MAX_NODES:
        member = _level(p, i, s, gauss_bath, whiten, n, occs)
        if n == exact:
            return np.array(_map(member, occs, threads)) * scale
        cur = np.array([member(occs[k]) for k in probes]) * scale
        if prev is not None and np.all(np.abs(cur - prev) < tol * np.maximum(1.0, np.abs(cur))):
            vals = np.empty(occs.shape[0])
            vals[probes] = cur
            rest = np.setdiff1d(np.arange(occs.shape[0]), probes)
            vals[rest] = np.array(_map(member, occs[rest], threads)) * scale
            return vals
        prev = cur
        n = min(2 * n, exact)
    raise AccuracyError(
        f"purity quadrature did not converge to {tol:.1e} within {MAX_NODES} nodes per axis"
    )


def purity_rows(
    p: PropagatorCoefficients,
    rows,
    bath: BathSpec,
    s: OscillatorState,
    *,
    method: str = "auto",
    tol: float = 1e-8,
) -> np.ndarray:
    """Tr rho^2 on the propagator rows p.X[rows].

    method: "auto" picks the closed Gaussian form when the state and bath are
    both Gaussian, quadrature otherwise; "closed" and "quadrature" force a
    path (closed raises for non-Gaussian inputs).  Quadrature runs purity()
    at each index.
    """
    if method == "auto":
        gaussian = is_gaussian(s) and not isinstance(bath, NumberStateBath)
        method = "closed" if gaussian else "quadrature"
    if method == "closed":
        _, a, g = _total_gaussian_rows(p, rows, bath, s)
        return _gaussian_purity(a, g)
    if method != "quadrature":
        raise ParameterError(f"unknown purity method {method!r}")
    indices = range(p.n_times)[rows]
    return np.array([purity(p, i, bath, s, method="quadrature", tol=tol) for i in indices])


def purity(
    p: PropagatorCoefficients,
    i: int,
    bath: BathSpec,
    s: OscillatorState,
    *,
    method: str = "auto",
    tol: float = 1e-8,
) -> float:
    """Tr rho^2 at grid index i, the one-row slice of purity_rows.

    Quadrature is a one-member call of the Gauss-Hermite driver; a
    number-state F is the zero-temperature Gaussian times Laguerre factors.
    """
    if method != "quadrature":
        return float(purity_rows(p, row_slice(i), _single(bath), s, method=method, tol=tol)[0])
    number = isinstance(_single(bath), NumberStateBath)
    if number:
        _check_modes(p, bath.n, "occupations")
    occs = (bath.n if number else np.zeros(p.n_modes, dtype=int))[None]
    gauss_bath = EquilibriumBath(math.inf) if number else bath
    return float(_quadrature(p, i, s, gauss_bath, occs, [0], tol)[0])


def number_variance_of_variance(p: PropagatorCoefficients, i: int, beta: float) -> float:
    """Ensemble variance of var x over number-state preparations drawn from P_n.

    var x is linear in the occupations, so the geometric per-mode variance
    nbar (nbar + 1) propagates directly:
    (hbar / m nu)^2 sum_k |B_k + D_k^*|^4 nbar_k (nbar_k + 1).
    """
    nbar = occupation(beta, p.model.omegas, p.model.units.hbar)
    b, d = p.B[i], p.D[i]
    u = p.model.units
    factor = (u.hbar / (u.mass * p.model.nu)) ** 2
    return float(factor * np.sum(np.abs(b + np.conj(d)) ** 4 * (nbar**2 + nbar)))


def member_purities(
    p: PropagatorCoefficients, i: int, bath: NumberStateBath, s: OscillatorState, *, threads=None
) -> np.ndarray:
    """Purity at index i of each member of a number-state member matrix.

    The members share one Gauss-Hermite node set, refined on the first
    member and the most occupied ones; threads fan the members out without
    changing any value.
    """
    occs = np.atleast_2d(bath.n)
    _check_modes(p, occs, "occupations")
    alpha_member = occs @ (np.abs(p.B[i]) ** 2 + np.abs(p.D[i]) ** 2)
    probes = sorted({0, int(np.argmax(alpha_member)), int(np.argmax(occs.sum(axis=1)))})
    return _quadrature(p, i, s, EquilibriumBath(math.inf), occs, probes, ENSEMBLE_TOL, threads)


def averaged_purity_number_ensemble(
    p: PropagatorCoefficients,
    i: int,
    beta: float,
    s: OscillatorState,
    n_samples: int,
    seed: int,
    *,
    threads: int | None = None,
) -> EnsembleSummary:
    """Monte-Carlo mean of purity over number-state preparations drawn from P_n.

    Draws the member matrix sample_number_states(beta, p.model, seed,
    n_samples) and summarizes its member_purities.
    """
    if n_samples < 2:
        raise ParameterError("need at least two samples")
    members = sample_number_states(beta, p.model, seed, n_samples)
    return summarize(member_purities(p, i, members, s, threads=threads), seed)


def displaced_vacuum_check(
    p: PropagatorCoefficients,
    i: int,
    amps: np.ndarray,
    s: OscillatorState,
    eta=None,
) -> float:
    """Sup over the eta grid of |chi - exp(delta^* eta - delta eta^*) chi_vac|.

    chi uses the oscillator state s with a coherent bath; chi_vac is the same
    model with zero amplitudes and the oscillator in the vacuum.  At long
    times the defect is bounded by the residual |A|, |C|.
    """
    if eta is None:
        eta = square_eta_grid(3.0, 21)
    eta = np.asarray(eta, dtype=complex)
    bath = CoherentStateBath(amps)
    chi = chi_eval(p, i, bath, s, eta)
    delta = coherent_F_params(p, i, bath.amps).delta
    phase = np.exp(np.conj(delta) * eta - delta * np.conj(eta))
    vac_bath = CoherentStateBath(np.zeros(p.n_modes, dtype=complex))
    chi_vac = chi_eval(p, i, vac_bath, vacuum_state(), eta)
    return float(np.max(np.abs(chi - phase * chi_vac)))


def observable_series(
    p: PropagatorCoefficients,
    bath: BathSpec,
    s: OscillatorState,
    *,
    with_purity: bool = True,
) -> dict[str, np.ndarray]:
    """Means, variances and (optionally) purity on the whole grid."""
    out = {"t": p.grid.t.copy()}
    out["mean_x"], out["mean_p"] = mean_rows(p, slice(None), bath, s)
    out["var_x"], out["var_p"] = variance_rows(p, slice(None), bath, s)
    if with_purity:
        out["purity"] = purity_rows(p, slice(None), bath, s)
    return out
