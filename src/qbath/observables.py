"""Reduced-state observables: characteristic function, moments, purity, ensembles.

Position and momentum use x = sqrt(hbar/(2 m nu))(a^dag + a) and
p = i sqrt(hbar m nu / 2)(a^dag - a).  Purity is Tr rho^2 =
(1/pi) int d^2eta |chi(eta)|^2; when both the oscillator state and the bath
influence are Gaussian it reduces to 1/(2 sqrt(a^2 - 4|g|^2)) in the total
Gaussian parameters, otherwise the integral is done by midpoint quadrature on
a square whose radius comes from the Gaussian envelope, refined until two
successive node doublings agree.
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
    gaussian_exponent,
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
    "total_gaussian_params",
    "purity",
    "number_variance_of_variance",
    "averaged_purity_number_ensemble",
    "displaced_vacuum_check",
    "observable_series",
]


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


def total_gaussian_params(
    p: PropagatorCoefficients, i: int, bath: BathSpec, s: OscillatorState
) -> tuple[complex, float, complex]:
    """(d, a, g) of the total Gaussian chi for Gaussian state and Gaussian bath."""
    d, a, g = _total_gaussian_rows(p, row_slice(i), bath, s)
    return complex(d[0]), float(a[0]), complex(g[0])


def _envelope_plan(
    p: PropagatorCoefficients, i: int, bath: BathSpec, s: OscillatorState, cut: float
) -> tuple[float, int]:
    """Initial quadrature radius and node count from the Gaussian envelope."""
    a_t, c_t = p.A[i], p.C[i]
    rot = abs(a_t) + abs(c_t)
    if is_gaussian(s):
        _, a0, g0 = gaussian_chi_params(s)
        margin = 0.0
    else:
        a0, g0 = 0.5, 0.0
        margin = abs(s.alpha - s.beta) * rot
    _, a_env, g_env = carried_gaussian_params(0.0, a0, g0, a_t, c_t)
    f = equilibrium_F_params(p, i, bath.beta if isinstance(bath, EquilibriumBath) else math.inf)
    a_env += f.alpha
    g_env += f.gamma
    width = a_env - 2.0 * abs(g_env)
    if width <= 1e-12:
        width = 0.25 / max(a_env + 2.0 * abs(g_env), 0.5)
    decay = -math.log(cut)
    # solve 2 w R^2 - 2 margin R = decay for the envelope crossing
    radius = 1.1 * (margin + math.sqrt(margin**2 + 2.0 * width * decay)) / (2.0 * width)
    feature = 1.0 / math.sqrt(2.0 * (a_env + 2.0 * abs(g_env)))
    if margin > 0.0:
        feature = min(feature, 1.0 / (1.0 + margin))
    n0 = max(64, int(math.ceil(2.0 * radius / (feature / 3.0))))
    return radius, n0


def _probe_radius(chi2, radius: float, cut: float, cap: float = 400.0) -> float:
    """Grow the radius until |chi|^2 on the boundary ring falls below the cut."""
    angles = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False))
    while radius < cap:
        ring = np.max(chi2(radius * angles))
        if ring < cut:
            return radius
        radius *= 1.3
    raise AccuracyError("quadrature domain did not close below the envelope cut")


def _midpoint_sum(chi2, radius: float, n: int, chunk: int = 1 << 20) -> float:
    h = 2.0 * radius / n
    x = -radius + (np.arange(n) + 0.5) * h
    total = 0.0
    rows_per_chunk = max(1, chunk // n)
    for start in range(0, n, rows_per_chunk):
        ys = x[start : start + rows_per_chunk]
        eta = (x[None, :] + 1j * ys[:, None]).ravel()
        total += float(np.sum(chi2(eta)))
    return total * h * h / math.pi


def _richardson_quadrature(
    chi2, radius: float, n0: int, tol: float, max_nodes: int
) -> float:
    prev = None
    n = n0
    while n <= max_nodes:
        cur = _midpoint_sum(chi2, radius, n)
        if prev is not None and abs(cur - prev) < tol * max(1.0, abs(cur)):
            return cur
        prev = cur
        n *= 2
    raise AccuracyError(
        f"purity quadrature did not converge to {tol:.1e} within {max_nodes} nodes per axis"
    )


def _closed_form(bath: BathSpec, s: OscillatorState) -> bool:
    """Whether the purity has the closed Gaussian form (Gaussian state and influence)."""
    return is_gaussian(s) and not isinstance(bath, NumberStateBath)


def purity(
    p: PropagatorCoefficients,
    i: int,
    bath: BathSpec,
    s: OscillatorState,
    *,
    method: str = "auto",
    tol: float = 1e-8,
    envelope_cut: float = 1e-16,
    max_nodes: int = 4096,
) -> float:
    """Tr rho^2 at grid index i.

    method: "auto" picks the closed Gaussian form when the state and bath are
    both Gaussian, quadrature otherwise; "closed" and "quadrature" force a
    path (closed raises for non-Gaussian inputs).
    """
    if method == "auto":
        method = "closed" if _closed_form(bath, s) else "quadrature"
    if method == "closed":
        _, a, g = _total_gaussian_rows(p, row_slice(i), bath, s)
        return float(_gaussian_purity(a, g)[0])
    if method != "quadrature":
        raise ParameterError(f"unknown purity method {method!r}")

    def chi2(eta: np.ndarray) -> np.ndarray:
        return np.abs(chi_eval(p, i, bath, s, eta)) ** 2

    radius, n0 = _envelope_plan(p, i, bath, s, envelope_cut)
    radius = _probe_radius(chi2, radius, envelope_cut)
    return _richardson_quadrature(chi2, radius, n0, tol, max_nodes)


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


def _number_purity_batch(
    p: PropagatorCoefficients,
    i: int,
    occs: np.ndarray,
    s: OscillatorState,
    beta: float,
    tol: float,
    envelope_cut: float,
    max_nodes: int,
    threads: int | None,
) -> np.ndarray:
    """Purities for many number-state preparations sharing one quadrature grid."""
    n_samples = occs.shape[0]
    radius, n0 = _envelope_plan(p, i, EquilibriumBath(beta), s, envelope_cut)

    def member_chi2(occ: np.ndarray):
        bath = NumberStateBath(occ)
        return lambda eta: np.abs(chi_eval(p, i, bath, s, eta)) ** 2

    # probe and refine on the most occupied members plus the first
    alpha_member = occs @ (np.abs(p.B[i]) ** 2 + np.abs(p.D[i]) ** 2)
    probes = {0, int(np.argmax(alpha_member)), int(np.argmax(occs.sum(axis=1)))}
    for k in probes:
        radius = _probe_radius(member_chi2(occs[k]), radius, envelope_cut)
    n = n0
    converged = False
    while n <= max_nodes and not converged:
        converged = True
        for k in probes:
            a = _midpoint_sum(member_chi2(occs[k]), radius, n)
            b = _midpoint_sum(member_chi2(occs[k]), radius, 2 * n)
            if abs(a - b) >= tol * max(1.0, abs(b)):
                converged = False
                break
        if not converged:
            n *= 2
    if not converged:
        raise AccuracyError("shared ensemble quadrature grid did not converge")
    n_final = 2 * n

    # shared geometry: oscillator factor and per-mode Laguerre arguments
    h = 2.0 * radius / n_final
    axis = -radius + (np.arange(n_final) + 0.5) * h
    re, im = np.meshgrid(axis, axis)
    eta = (re + 1j * im).ravel()
    zeta = eta * np.conj(p.A[i]) - np.conj(eta) * p.C[i]
    chi0_sq = np.abs(chi0_eval(s, zeta)) ** 2
    zt = equilibrium_F_params(p, i, math.inf)
    log_env = 2.0 * np.real(gaussian_exponent(0.0, zt.alpha, zt.gamma, eta))
    b_row, d_row = p.B[i], p.D[i]
    active = np.nonzero(occs.max(axis=0))[0]
    xs = {
        int(k): np.abs(eta * np.conj(b_row[k]) - np.conj(eta) * d_row[k]) ** 2
        for k in active
    }
    weight = h * h / math.pi

    def eval_member(k: int) -> float:
        modes = np.nonzero(occs[k])[0]
        _, log_lag = laguerre.log_product(occs[k][modes], (xs[int(m)] for m in modes), eta.shape)
        return float(np.sum(chi0_sq * np.exp(log_env + 2.0 * log_lag)) * weight)

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            vals = list(pool.map(eval_member, range(n_samples)))
    else:
        vals = [eval_member(k) for k in range(n_samples)]
    return np.asarray(vals, dtype=float)


def averaged_purity_number_ensemble(
    p: PropagatorCoefficients,
    i: int,
    beta: float,
    s: OscillatorState,
    n_samples: int,
    seed: int,
    *,
    tol: float = 1e-7,
    envelope_cut: float = 1e-16,
    max_nodes: int = 4096,
    threads: int | None = None,
) -> EnsembleSummary:
    """Monte-Carlo mean of purity over number-state preparations drawn from P_n."""
    if n_samples < 2:
        raise ParameterError("need at least two samples")
    occs = np.stack(
        [sample_number_state(beta, p.model, member_rng(seed, k)).n for k in range(n_samples)]
    )
    vals = _number_purity_batch(
        p, i, occs, s, beta, tol, envelope_cut, max_nodes, threads
    )
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
    purity_tol: float = 1e-8,
) -> dict[str, np.ndarray]:
    """Means, variances and (optionally) purity on the whole grid."""
    out = {"t": p.grid.t.copy()}
    out["mean_x"], out["mean_p"] = _mean_rows(p, slice(None), bath, s)
    out["var_x"], out["var_p"] = _variance_rows(p, slice(None), bath, s)
    if with_purity and _closed_form(bath, s):
        _, a, g = _total_gaussian_rows(p, slice(None), bath, s)
        out["purity"] = _gaussian_purity(a, g)
    elif with_purity:
        out["purity"] = np.array([purity(p, i, bath, s, tol=purity_tol) for i in range(p.n_times)])
    return out
