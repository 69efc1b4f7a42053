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

An ensemble is one bath holding an (M x N) member matrix, row k drawn from
member_rng(seed, k); on one propagator row the sums below give one entry per
member, or one shared by all where the prepared values do not enter.
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
    "sample_number_states",
    "sample_coherent_states",
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
    """Product of number states: one occupation per mode, or a member matrix."""

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
    """Product of coherent states: one complex amplitude per mode, or a member matrix."""

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


def _check_modes(p: PropagatorCoefficients, values: np.ndarray, what: str, lead=()) -> None:
    """Check per-mode values; a member matrix meets one propagator row (of shape lead)."""
    if values.ndim > 2 or values.shape[-1] != p.n_modes:
        raise ParameterError(f"expected {p.n_modes} {what} per member, got shape {values.shape}")
    if values.ndim == 2 and math.prod(lead) != 1:  # T rows would pair row t with member t
        raise ParameterError(f"a member matrix needs one propagator row, got {math.prod(lead)}")


def _single(bath: BathSpec) -> BathSpec:
    """bath itself; ParameterError when it holds a member matrix."""
    if np.ndim(getattr(bath, "n", getattr(bath, "amps", None))) > 1:
        raise ParameterError("expected one bath preparation, got a matrix of members")
    return bath


# Members summed at once by _drive: an unblocked (M x N) sum over a 2000-member
# matrix raised the peak resident set of the sample-config run by 11 %.
_BLOCK = 256


def _mode_weights(p: PropagatorCoefficients, bath: BathSpec, lead) -> np.ndarray:
    """Per-mode weights n_k + 1/2 of the second-moment sums.

    n_k is the thermal occupation, the prepared occupation, or 0 for a
    coherent product (whose amplitudes enter delta instead).
    """
    if isinstance(bath, EquilibriumBath):
        return occupation(bath.beta, p.model.omegas, p.model.units.hbar) + 0.5
    if isinstance(bath, NumberStateBath):
        _check_modes(p, bath.n, "occupations", lead)
        return bath.n + 0.5
    return np.full(p.n_modes, 0.5)


def _drive(p: PropagatorCoefficients, b: np.ndarray, d: np.ndarray, bath: BathSpec) -> np.ndarray:
    """sum_k (b_k beta_k + d_k beta_k^*) over the last axis; zero unless the bath is coherent."""
    if not isinstance(bath, CoherentStateBath):
        return np.zeros(b.shape[:-1], dtype=complex)
    _check_modes(p, bath.amps, "amplitudes", b.shape[:-1])
    amps = np.atleast_2d(bath.amps)  # one preparation is a one-member block
    term = lambda a: (b * a + d * np.conj(a)).sum(axis=-1)
    return np.concatenate([term(amps[k : k + _BLOCK]) for k in range(0, len(amps), _BLOCK)])


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
    along the mode axis, so one row gives the same bits as the whole grid,
    and each member of a member matrix the same bits as that member alone.
    """
    b, d = p.B[rows], p.D[rows]
    w = _mode_weights(p, bath, b.shape[:-1])
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
    bath = _single(NumberStateBath(n))
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
    fs = bath_sums(p, row_slice(i), _single(bath))
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


def _number_rows(beta: float, m: ModelSpec, rng_of, count: int) -> np.ndarray:
    """count rows of occupations from P(n) = (1-q) q^n, row k drawn with rng_of(k)."""
    beta = _check_beta(beta)
    if math.isinf(beta):  # all n = 0, and no generator is advanced
        return np.zeros((count, m.n_modes), dtype=int)
    q = np.exp(-beta * m.units.hbar * m.omegas)
    # numpy's geometric counts trials starting at 1
    rows = (rng_of(k).geometric(p=1.0 - q) - 1 for k in range(count))
    return np.fromiter(rows, dtype=(int, m.n_modes), count=count)


def _coherent_rows(beta: float, m: ModelSpec, rng_of, count: int) -> np.ndarray:
    """count rows of amplitudes with E|beta_k|^2 = nbar_k, row k drawn with rng_of(k)."""
    scale, n = np.sqrt(occupation(beta, m.omegas, m.units.hbar) / 2.0), m.n_modes
    draws = (rng_of(k) for k in range(count))
    rows = (rng.normal(size=n) * scale + 1j * (rng.normal(size=n) * scale) for rng in draws)
    return np.fromiter(rows, dtype=(complex, n), count=count)


def sample_number_state(
    beta: float, m: ModelSpec, rng: np.random.Generator | int
) -> NumberStateBath:
    """Draw occupations from the equilibrium diagonal weights P(n) = (1-q) q^n."""
    return NumberStateBath(_number_rows(beta, m, lambda _: np.random.default_rng(rng), 1)[0])


def sample_coherent_state(
    beta: float, m: ModelSpec, rng: np.random.Generator | int
) -> CoherentStateBath:
    """Draw amplitudes from the complex Gaussian with E|beta_k|^2 = nbar_k."""
    return CoherentStateBath(_coherent_rows(beta, m, lambda _: np.random.default_rng(rng), 1)[0])


def sample_number_states(beta: float, m: ModelSpec, seed: int, n_members: int) -> NumberStateBath:
    """Member matrix whose row k is sample_number_state(beta, m, member_rng(seed, k))."""
    return NumberStateBath(_number_rows(beta, m, lambda k: member_rng(seed, k), n_members))


def sample_coherent_states(
    beta: float, m: ModelSpec, seed: int, n_members: int
) -> CoherentStateBath:
    """Member matrix whose row k is sample_coherent_state(beta, m, member_rng(seed, k))."""
    return CoherentStateBath(_coherent_rows(beta, m, lambda k: member_rng(seed, k), n_members))


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
