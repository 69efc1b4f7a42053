"""Bath preparations and their influence on the oscillator characteristic function.

The reduced characteristic function factorizes as chi(eta, t) =
chi0(eta A^* - eta^* C) F(eta, t) where F collects the bath influence.  For
the three supported preparations:

  equilibrium (inverse temperature beta):
      F = exp(-alpha |eta|^2 + gamma^* eta^2 + gamma eta^*2),
      alpha = sum_k (|B_k|^2 + |D_k|^2)(nbar_k + 1/2),
      gamma = sum_k B_k D_k (nbar_k + 1/2)

  number states (occupations n_k):
      F = exp(zero-temperature Gaussian) prod_k L_{n_k}(|eta B_k^* - eta^* D_k|^2)

  coherent states (amplitudes beta_k):
      F = exp(delta^* eta - delta eta^*) exp(zero-temperature Gaussian),
      delta = sum_k (B_k beta_k + D_k beta_k^*)

beta = +inf is the zero-temperature sentinel.  Random preparations are drawn
from the diagonal weights of the equilibrium state: geometric occupation
numbers (P_n) or complex Gaussian amplitudes with E|beta_k|^2 = nbar_k (P_c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import laguerre
from .errors import DataError, ParameterError
from .model import ModelSpec
from .propagator import PropagatorCoefficients, row_slice
from .states import gaussian_exponent

__all__ = [
    "EquilibriumBath",
    "NumberStateBath",
    "CoherentStateBath",
    "GaussianFParams",
    "GaussianFSeries",
    "NoiseCorrelation",
    "occupation",
    "equilibrium_F_params",
    "number_F_eval",
    "coherent_F_params",
    "gaussian_F_eval",
    "bath_F_eval",
    "bath_f_params",
    "bath_sums",
    "bath_delta",
    "member_rng",
    "sample_number_state",
    "sample_coherent_state",
    "delta_correlations",
]


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if math.isnan(beta) or beta <= 0.0:
        raise ParameterError(f"inverse temperature must be positive (or +inf), got {beta}")
    return beta


@dataclass
class EquilibriumBath:
    """Thermal bath at inverse temperature beta (beta = inf for the vacuum)."""

    beta: float

    def __post_init__(self) -> None:
        self.beta = _check_beta(self.beta)


@dataclass
class NumberStateBath:
    """Product of number states with one occupation per mode."""

    n: np.ndarray

    def __post_init__(self) -> None:
        self.n = np.atleast_1d(np.asarray(self.n))
        if not np.issubdtype(self.n.dtype, np.integer):
            as_int = self.n.astype(int)
            if np.any(as_int != self.n):
                raise ParameterError("occupation numbers must be integers")
            self.n = as_int
        if np.any(self.n < 0):
            raise ParameterError("occupation numbers must be >= 0")


@dataclass
class CoherentStateBath:
    """Product of coherent states with one complex amplitude per mode."""

    amps: np.ndarray

    def __post_init__(self) -> None:
        self.amps = np.atleast_1d(np.asarray(self.amps, dtype=complex))
        if not np.all(np.isfinite(self.amps)):
            raise DataError("non-finite coherent amplitudes")


BathSpec = EquilibriumBath | NumberStateBath | CoherentStateBath


@dataclass
class GaussianFParams:
    """Parameters of a Gaussian influence function.

    F(eta) = exp(delta^* eta - delta eta^* - alpha |eta|^2
                 + gamma^* eta^2 + gamma eta^*2)
    """

    delta: complex
    alpha: float
    gamma: complex


@dataclass
class GaussianFSeries:
    """Gaussian influence parameters on propagator rows, with exact time derivatives.

    The derivative fields are None where only the values were computed.
    Indexing selects rows of every field.
    """

    delta: np.ndarray
    alpha: np.ndarray
    gamma: np.ndarray
    ddelta: np.ndarray | None = None
    dalpha: np.ndarray | None = None
    dgamma: np.ndarray | None = None

    def __getitem__(self, rows) -> GaussianFSeries:
        return GaussianFSeries(*(None if v is None else v[rows] for v in vars(self).values()))


def occupation(beta: float, omega, hbar: float = 1.0) -> np.ndarray:
    """Mean thermal occupation 1/(exp(beta hbar omega) - 1); 0 at beta = inf."""
    beta = _check_beta(beta)
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0.0):
        raise ParameterError("occupation needs omega > 0")
    if math.isinf(beta):
        return np.zeros_like(omega)
    x = beta * hbar * omega
    out = np.empty_like(x)
    large = x > 700.0
    out[large] = np.exp(-x[large])
    out[~large] = 1.0 / np.expm1(x[~large])
    return out


def _check_modes(p: PropagatorCoefficients, values: np.ndarray, what: str) -> None:
    if values.shape != (p.n_modes,):
        raise ParameterError(f"expected {p.n_modes} {what}, got {values.size}")


def _mode_weights(p: PropagatorCoefficients, bath: BathSpec) -> np.ndarray:
    """Per-mode weights n_k + 1/2 of the second-moment sums.

    n_k is the thermal occupation, the prepared occupation, or 0 for a
    coherent product (whose amplitudes enter delta instead).
    """
    if isinstance(bath, EquilibriumBath):
        return occupation(bath.beta, p.model.omegas, p.model.units.hbar) + 0.5
    if isinstance(bath, NumberStateBath):
        _check_modes(p, bath.n, "occupations")
        return bath.n + 0.5
    return np.full(p.n_modes, 0.5)


def _drive(p: PropagatorCoefficients, b: np.ndarray, d: np.ndarray, bath: BathSpec) -> np.ndarray:
    """sum_k (b_k beta_k + d_k beta_k^*) over the last axis; zero unless the bath is coherent."""
    if not isinstance(bath, CoherentStateBath):
        return np.zeros(b.shape[:-1], dtype=complex)
    _check_modes(p, bath.amps, "amplitudes")
    return (b * bath.amps + d * np.conj(bath.amps)).sum(axis=-1)


def bath_delta(p: PropagatorCoefficients, rows, bath: BathSpec) -> np.ndarray:
    """Coherent drive delta = sum_k (B_k beta_k + D_k beta_k^*) on the rows p.X[rows]."""
    return _drive(p, p.B[rows], p.D[rows], bath)


def bath_sums(
    p: PropagatorCoefficients, rows, bath: BathSpec, *, derivs: bool = False
) -> GaussianFSeries:
    """Bath mode sums on the propagator rows p.X[rows].

    alpha = sum_k w_k (|B_k|^2 + |D_k|^2) and gamma = sum_k w_k B_k D_k with
    the weights w_k of _mode_weights, and delta as in bath_delta.  Time
    derivatives are computed only with derivs=True.  Sums run elementwise
    along the mode axis, so one row gives the same bits as the whole grid.
    """
    w = _mode_weights(p, bath)
    b, d = p.B[rows], p.D[rows]
    fs = GaussianFSeries(
        delta=_drive(p, b, d, bath),
        alpha=((np.abs(b) ** 2 + np.abs(d) ** 2) * w).sum(axis=-1),
        gamma=(b * d * w).sum(axis=-1),
    )
    if derivs:
        db, dd = p.dB[rows], p.dD[rows]
        fs.ddelta = _drive(p, db, dd, bath)
        fs.dalpha = (2.0 * np.real(np.conj(b) * db + np.conj(d) * dd) * w).sum(axis=-1)
        fs.dgamma = ((db * d + b * dd) * w).sum(axis=-1)
    return fs


def equilibrium_F_params(p: PropagatorCoefficients, i: int, beta: float) -> GaussianFParams:
    """Gaussian influence parameters of the thermal preparation at index i."""
    return bath_f_params(p, i, EquilibriumBath(beta))


def coherent_F_params(p: PropagatorCoefficients, i: int, amps: np.ndarray) -> GaussianFParams:
    """Gaussian influence parameters of a coherent-product preparation at index i."""
    return bath_f_params(p, i, CoherentStateBath(amps))


def gaussian_F_eval(params: GaussianFParams, eta: np.ndarray) -> np.ndarray:
    """Evaluate a Gaussian influence function on an array of eta values."""
    eta = np.asarray(eta, dtype=complex)
    return np.exp(gaussian_exponent(params.delta, params.alpha, params.gamma, eta))


def number_F_eval(
    p: PropagatorCoefficients, i: int, n: np.ndarray, eta: np.ndarray
) -> np.ndarray:
    """Influence function of a number-state preparation (real-valued).

    Each mode contributes L_{n_k}(|eta B_k^* - eta^* D_k|^2) on top of the
    zero-temperature Gaussian; Laguerre factors use the guarded upward
    recurrence and are combined in scaled form to avoid overflow.
    """
    bath = NumberStateBath(n)
    _check_modes(p, bath.n, "occupations")
    eta = np.asarray(eta, dtype=complex)
    b, d = p.B[i], p.D[i]
    zero_t = equilibrium_F_params(p, i, math.inf)
    log_env = np.real(gaussian_exponent(0.0, zero_t.alpha, zero_t.gamma, eta))
    active = np.nonzero(bath.n)[0]
    xs = (np.abs(eta * np.conj(b[k]) - np.conj(eta) * d[k]) ** 2 for k in active)
    sign, log_lag = laguerre.log_product(bath.n[active], xs, eta.shape)
    return sign * np.exp(log_env + log_lag)


def bath_f_params(p: PropagatorCoefficients, i: int, bath: BathSpec) -> GaussianFParams:
    """Gaussian influence parameters; rejects number-state baths."""
    if isinstance(bath, NumberStateBath):
        raise ParameterError("number-state baths have no Gaussian influence parameters")
    fs = bath_sums(p, row_slice(i), bath)
    return GaussianFParams(
        delta=complex(fs.delta[0]), alpha=float(fs.alpha[0]), gamma=complex(fs.gamma[0])
    )


def bath_F_eval(p: PropagatorCoefficients, i: int, bath: BathSpec, eta: np.ndarray) -> np.ndarray:
    """Influence function F(eta, t_i) for any supported preparation."""
    if isinstance(bath, NumberStateBath):
        return number_F_eval(p, i, bath.n, eta)
    return gaussian_F_eval(bath_f_params(p, i, bath), eta)


def member_rng(seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible stream for ensemble member `index`."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def sample_number_state(
    beta: float, m: ModelSpec, rng: np.random.Generator | int
) -> NumberStateBath:
    """Draw occupations from the equilibrium diagonal weights P(n) = (1-q) q^n."""
    beta = _check_beta(beta)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if math.isinf(beta):
        return NumberStateBath(np.zeros(m.n_modes, dtype=int))
    q = np.exp(-beta * m.units.hbar * m.omegas)
    # numpy's geometric counts trials starting at 1
    draws = rng.geometric(p=1.0 - q) - 1
    return NumberStateBath(draws)


def sample_coherent_state(
    beta: float, m: ModelSpec, rng: np.random.Generator | int
) -> CoherentStateBath:
    """Draw amplitudes from the complex Gaussian with E|beta_k|^2 = nbar_k."""
    beta = _check_beta(beta)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    nbar = occupation(beta, m.omegas, m.units.hbar)
    scale = np.sqrt(nbar / 2.0)
    amps = rng.normal(scale=1.0, size=m.n_modes) * scale + 1j * (
        rng.normal(scale=1.0, size=m.n_modes) * scale
    )
    return CoherentStateBath(amps)


@dataclass
class NoiseCorrelation:
    """Two-time correlators of the coherent-ensemble drift delta(t)."""

    c1: complex  # E[delta(t_i) delta^*(t_j)]
    c2: complex  # E[delta(t_i) delta(t_j)]


def delta_correlations(
    p: PropagatorCoefficients, i: int, j: int, beta: float
) -> NoiseCorrelation:
    """Correlators of delta(t) = sum_k (B_k beta_k + D_k beta_k^*) under P_c."""
    nbar = occupation(beta, p.model.omegas, p.model.units.hbar)
    bi, di = p.B[i], p.D[i]
    bj, dj = p.B[j], p.D[j]
    c1 = complex(np.sum((bi * np.conj(bj) + di * np.conj(dj)) * nbar))
    c2 = complex(np.sum((bi * dj + bj * di) * nbar))
    return NoiseCorrelation(c1=c1, c2=c2)
