"""Reduced-state observables: characteristic function, moments, purity, ensembles.

Position and momentum use x = sqrt(hbar/(2 m nu))(a^dag + a) and
p = i sqrt(hbar m nu / 2)(a^dag - a).  Purity is Tr rho^2 =
(1/pi) int d^2eta |chi(eta)|^2.  purity_rows picks the path for a whole grid:
when both the oscillator state and the bath influence are Gaussian it is
1/(2 sqrt(a^2 - 4|g|^2)) in the total Gaussian parameters; otherwise one
quadrature driver integrates |chi|^2 = |chi0|^2 |F_g|^2 prod_k L_{n_k}^2 by
the midpoint rule on a square whose radius comes from the Gaussian envelope,
doubling the nodes per axis until two successive levels agree.  A single
purity and each member of a number-state ensemble are members of that
driver; the ensemble's members share one grid.
"""

from __future__ import annotations

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
    bath_F_eval,
    bath_delta,
    bath_sums,
    coherent_F_params,
    equilibrium_F_params,
    member_rng,
    occupation,
    sample_number_state,
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
    "mean_xp",
    "variances",
    "variance_weights",
    "asymptotic_variances",
    "asymptotic_purity",
    "purity_rows",
    "purity",
    "number_variance_of_variance",
    "averaged_purity_number_ensemble",
    "displaced_vacuum_check",
    "observable_series",
]

ENVELOPE_CUT = 1e-16  # |chi|^2 on the boundary of the quadrature square
MAX_NODES = 4096  # nodes per axis at the finest quadrature level
ENSEMBLE_TOL = 1e-7  # level agreement of the number-ensemble quadrature
_CHUNK = 1 << 20  # nodes, and shared Laguerre arguments, per chunk of the quadrature grid


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


def _mean_rows(
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
    mean_x, mean_p = _mean_rows(p, row_slice(i), bath, s)
    return float(mean_x[0]), float(mean_p[0])


def variance_weights(p: PropagatorCoefficients, i: int, bath: BathSpec) -> tuple[float, complex]:
    """(alpha-like, gamma-like) second-moment sums for the given preparation."""
    f = bath_sums(p, row_slice(i), bath)
    return float(f.alpha[0]), complex(f.gamma[0])


def _variance_rows(
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
    var_x, var_p = _variance_rows(p, row_slice(i), bath, s)
    return float(var_x[0]), float(var_p[0])


def asymptotic_variances(
    p: PropagatorCoefficients, i: int, bath: BathSpec
) -> tuple[float, float]:
    """Long-time limits (hbar/m nu)(alpha +- 2 Re gamma) evaluated at index i."""
    alpha, gamma = variance_weights(p, i, bath)
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
    f = bath_sums(p, row_slice(i), bath)
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


def _envelope_plan(
    p: PropagatorCoefficients, i: int, beta: float, s: OscillatorState
) -> tuple[float, int]:
    """Initial quadrature radius and node count from the Gaussian envelope at beta."""
    a_t, c_t = p.A[i], p.C[i]
    rot = abs(a_t) + abs(c_t)
    if is_gaussian(s):
        _, a0, g0 = gaussian_chi_params(s)
        margin = 0.0
    else:
        a0, g0 = 0.5, 0.0
        margin = abs(s.alpha - s.beta) * rot
    _, a_env, g_env = carried_gaussian_params(0.0, a0, g0, a_t, c_t)
    f = equilibrium_F_params(p, i, beta)
    a_env += f.alpha
    g_env += f.gamma
    width = a_env - 2.0 * abs(g_env)
    if width <= 1e-12:
        width = 0.25 / max(a_env + 2.0 * abs(g_env), 0.5)
    decay = -math.log(ENVELOPE_CUT)
    # solve 2 w R^2 - 2 margin R = decay for the envelope crossing
    radius = 1.1 * (margin + math.sqrt(margin**2 + 2.0 * width * decay)) / (2.0 * width)
    feature = 1.0 / math.sqrt(2.0 * (a_env + 2.0 * abs(g_env)))
    if margin > 0.0:
        feature = min(feature, 1.0 / (1.0 + margin))
    n0 = max(64, int(math.ceil(2.0 * radius / (feature / 3.0))))
    return radius, n0


def _probe_radius(chi2, radius: float, cap: float = 400.0) -> float:
    """Grow the radius until |chi|^2 on the boundary ring falls below the cut."""
    angles = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False))
    while radius < cap:
        ring = np.max(chi2(radius * angles))
        if ring < ENVELOPE_CUT:
            return radius
        radius *= 1.3
    raise AccuracyError("quadrature domain did not close below the envelope cut")


def _nodes(p: PropagatorCoefficients, i: int, s: OscillatorState, gauss_bath, eta, shared=()):
    """Parts of |chi|^2 at the nodes eta common to every member.

    Returns |chi|^2 for the members' common Gaussian bath, and a function of
    k giving the Laguerre argument |eta B_k^* - eta^* D_k|^2; the arguments
    of the modes in shared are computed once and kept.
    """
    b, d = p.B[i], p.D[i]

    def arg(k: int) -> np.ndarray:
        return np.abs(eta * np.conj(b[k]) - np.conj(eta) * d[k]) ** 2

    kept = {int(k): arg(k) for k in shared}
    base = np.abs(chi_eval(p, i, gauss_bath, s, eta)) ** 2
    return base, lambda k: kept[k] if k in kept else arg(k)


def _chi2(base: np.ndarray, lag_arg, occ: np.ndarray) -> np.ndarray:
    """|chi|^2 of the member with occupations occ: base times prod_k L_{n_k}(x_k)^2."""
    modes = np.nonzero(occ)[0]
    if modes.size == 0:
        return base
    _, log_lag = laguerre.log_product(occ[modes], (lag_arg(int(k)) for k in modes), base.shape)
    return base * np.exp(2.0 * log_lag)


def _map(fn, items, threads: int | None) -> list:
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _midpoint_sums(p, i, s, gauss_bath, occs, radius: float, n: int, threads=None) -> np.ndarray:
    """(1/pi) h^2 sum of |chi|^2 over the n x n midpoint grid, one value per row of occs.

    Several members share the Laguerre arguments of their occupied modes.
    Node rows are taken in chunks of at most _CHUNK nodes and _CHUNK shared
    arguments; each member's sum runs over the chunks in a fixed order.
    """
    h = 2.0 * radius / n
    x = -radius + (np.arange(n) + 0.5) * h
    shared = np.nonzero(occs.any(axis=0))[0] if occs.shape[0] > 1 else ()
    rows_per_chunk = max(1, _CHUNK // (n * max(1, len(shared))))
    totals = np.zeros(occs.shape[0])
    for start in range(0, n, rows_per_chunk):
        ys = x[start : start + rows_per_chunk]
        base, lag_arg = _nodes(p, i, s, gauss_bath, (x[None, :] + 1j * ys[:, None]).ravel(), shared)
        totals += _map(lambda occ: float(np.sum(_chi2(base, lag_arg, occ))), occs, threads)
        del base, lag_arg  # free this chunk's arrays before the next one is built
    return totals * h * h / math.pi


def _quadrature(p, i, s, gauss_bath, occs, plan_beta, probes, tol, threads=None) -> np.ndarray:
    """Purities at index i of the members F = F_g prod_k L_{n_k}, one row of occs each.

    F_g is the influence of gauss_bath, a Gaussian bath common to the members,
    and all members share one midpoint grid.  The grid's radius starts from
    the envelope at plan_beta and grows until |chi|^2 of every probe member is
    below ENVELOPE_CUT on the boundary; its node count per axis doubles until
    every probe's sum agrees with the previous level to tol.  The other
    members are then summed on that level.
    """
    radius, n = _envelope_plan(p, i, plan_beta, s)
    for k in probes:
        radius = _probe_radius(
            lambda eta: _chi2(*_nodes(p, i, s, gauss_bath, eta), occs[k]), radius
        )
    prev = None
    while n <= MAX_NODES:
        cur = _midpoint_sums(p, i, s, gauss_bath, occs[probes], radius, n)
        if prev is not None and np.all(np.abs(cur - prev) < tol * np.maximum(1.0, np.abs(cur))):
            vals = np.empty(occs.shape[0])
            vals[probes] = cur
            rest = np.setdiff1d(np.arange(occs.shape[0]), probes)
            if rest.size:
                vals[rest] = _midpoint_sums(p, i, s, gauss_bath, occs[rest], radius, n, threads)
            return vals
        prev = cur
        n *= 2
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

    Quadrature is a one-member call of the shared-grid driver; a number-state
    F is the zero-temperature Gaussian times Laguerre factors.
    """
    if method != "quadrature":
        return float(purity_rows(p, row_slice(i), bath, s, method=method, tol=tol)[0])
    number = isinstance(bath, NumberStateBath)
    if number:
        _check_modes(p, bath.n, "occupations")
    occs = (bath.n if number else np.zeros(p.n_modes, dtype=int))[None]
    gauss_bath = EquilibriumBath(math.inf) if number else bath
    plan_beta = bath.beta if isinstance(bath, EquilibriumBath) else math.inf
    return float(_quadrature(p, i, s, gauss_bath, occs, plan_beta, [0], tol)[0])


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

    The members share one quadrature grid, refined on the first member and
    the most occupied ones; threads fan the members out without changing
    any value.
    """
    if n_samples < 2:
        raise ParameterError("need at least two samples")
    occs = np.stack(
        [sample_number_state(beta, p.model, member_rng(seed, k)).n for k in range(n_samples)]
    )
    alpha_member = occs @ (np.abs(p.B[i]) ** 2 + np.abs(p.D[i]) ** 2)
    probes = sorted({0, int(np.argmax(alpha_member)), int(np.argmax(occs.sum(axis=1)))})
    zero_t = EquilibriumBath(math.inf)
    vals = _quadrature(p, i, s, zero_t, occs, beta, probes, ENSEMBLE_TOL, threads)
    return summarize(vals, seed)


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
    out["mean_x"], out["mean_p"] = _mean_rows(p, slice(None), bath, s)
    out["var_x"], out["var_p"] = _variance_rows(p, slice(None), bath, s)
    if with_purity:
        out["purity"] = purity_rows(p, slice(None), bath, s)
    return out
