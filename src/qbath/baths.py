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

This module alone decides what F is.  Its mode sums come from one entry
point, bath_sums(p, i, bath): at a grid index i the one-row fs[0], on a row
set a GaussianFSeries with one entry per row.  For a number bath they are the
second-moment sums of its occupations; _gaussian is the one guard that
refuses number states where F itself must be Gaussian.  _laguerre_split
writes any bath as a Gaussian part times prod_k L_{n_k} (vacuum plus
occupations, or the bath itself plus a row of zeros), and bath_F_eval is the
one evaluator of F for every preparation (through _influence, which the
general generator feeds with its own sums).  _mode_args builds
z_k = eta B_k^* - eta^* D_k for the general generator, and _mode_args_squared
the Laguerre arguments |z_k|^2 of bath_F_eval and purity quadrature.

An ensemble is one bath holding an (M x N) member matrix, from
sample_number_states or sample_coherent_states; on one propagator row the
sums below give one entry per member, or one shared by all where the prepared
values do not enter.  The whole matrix is one stream of default_rng(seed),
or of a given np.random.Generator, drawn in blocks of _BLOCK rows and
consumed row by row in C order, so row k of an M-member draw is row k of any
larger draw, and a single draw is row 0 of sample_*_states(beta, m, seed, 1).
A zero-temperature draw advances no generator.  The member count is bounded
only by the largest array.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import laguerre
from .errors import DataError, ParameterError
from .model import ModelSpec
from .propagator import PropagatorCoefficients, row_slice

__all__ = [
    "EquilibriumBath",
    "NumberStateBath",
    "CoherentStateBath",
    "GaussianFSeries",
    "NoiseCorrelation",
    "occupation",
    "gaussian_F_eval",
    "bath_F_eval",
    "bath_sums",
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
            try:
                as_int = self.n.astype(int)
            except OverflowError:  # a Python int past the int64 range
                raise ParameterError("occupation numbers exceed the integer range") from None
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
class GaussianFSeries:
    """Gaussian influence parameters on propagator rows, with exact time derivatives.

    F(eta) = exp(delta^* eta - delta eta^* - alpha |eta|^2
                 + gamma^* eta^2 + gamma eta^*2)

    The derivative fields are None where only the values were computed.
    Indexing selects rows of every field; fs[0] holds the scalars of one row.
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
    if (omega <= 0.0).any():
        raise ParameterError("occupation needs omega > 0")
    if math.isinf(beta):
        return np.zeros_like(omega)
    x = beta * hbar * omega
    large = x > 700.0  # expm1 overflows past 709.78; exp(-x) equals 1/expm1(x) to rounding there
    if not large.any():
        return 1.0 / np.expm1(x)
    out = np.empty_like(x)
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


# Members summed at once by _drive, and drawn at once by the samplers: an unblocked
# (M x N) sum over a 2000-member matrix raised the peak resident set of the
# sample-config run by 11 %.
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
    if isinstance(bath, NumberStateBath):
        _check_modes(p, bath.n, "occupations", b.shape[:-1])
    if not isinstance(bath, CoherentStateBath):
        return np.zeros(b.shape[:-1], dtype=complex)
    _check_modes(p, bath.amps, "amplitudes", b.shape[:-1])
    amps = np.atleast_2d(bath.amps)  # one preparation is a one-member block
    term = lambda a: (b * a + d * np.conj(a)).sum(axis=-1)
    return np.concatenate([term(amps[k : k + _BLOCK]) for k in range(0, len(amps), _BLOCK)])


def bath_sums(
    p: PropagatorCoefficients, i, bath: BathSpec, *, derivs: bool = False
) -> GaussianFSeries:
    """Bath mode sums at grid index i, the one row fs[0], or on the row set p.X[i].

    alpha = sum_k w_k (|B_k|^2 + |D_k|^2) and gamma = sum_k w_k B_k D_k with
    the weights w_k of _mode_weights, and the coherent drive
    delta = sum_k (B_k beta_k + D_k beta_k^*).  Time derivatives are computed
    only with derivs=True.  A grid index is checked by row_slice and takes one
    preparation (a member matrix is a ParameterError); a row set (a slice, an integer array or a mask) gives
    one entry per row, or, on one row, one per member.  Sums run elementwise
    along the mode axis, so one row gives the same bits as the whole grid,
    and each member of a member matrix the same bits as that member alone.
    """
    one = _is_index(i)
    rows, bath = (row_slice(p, i), _single(bath)) if one else (i, bath)
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
    return fs[0] if one else fs


def _gaussian(bath: BathSpec) -> BathSpec:
    """bath itself; ParameterError for number states, whose influence is not Gaussian."""
    if isinstance(bath, NumberStateBath):
        raise ParameterError("number-state baths have no Gaussian influence parameters")
    return bath


def _laguerre_split(
    p: PropagatorCoefficients, bath: BathSpec, lead=()
) -> tuple[BathSpec, np.ndarray]:
    """(Gaussian part, occupation matrix) with F = F_gauss prod_k L_{n_k}, one row per member.

    A number-state bath is the vacuum plus its occupations, checked for
    propagator rows of shape lead; any other bath is itself plus one row of
    zeros.
    """
    if isinstance(bath, NumberStateBath):
        _check_modes(p, bath.n, "occupations", lead)
        return EquilibriumBath(math.inf), np.atleast_2d(bath.n)
    return bath, np.zeros((1, p.n_modes), dtype=int)


def _mode_args(b: np.ndarray, d: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """z_k = eta b_k^* - eta^* d_k on a row set: (R, K) b and d, (R, P) eta, (K, R, P) result."""
    b, d = b.T[..., None], d.T[..., None]
    return eta * np.conj(b) - np.conj(eta) * d


def _mode_args_squared(b: np.ndarray, d: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """|z_k|^2 of `_mode_args`, in real arithmetic: the Laguerre arguments.

    b and d hold one coefficient per mode, and the result has one row per
    mode and one column per node of the flattened eta; on a row set, b and d
    are (R, K) and eta is (R, P), and the result is (K, R, P), one (R, P)
    array per mode.  |eta b^* - eta^* d|^2 = |eta|^2 (|b|^2 + |d|^2)
    - 2 Re(eta^2 b^* d^*), one real (K x 3) by (3 x P) product per row with
    no complex temporaries, clamped at 0 against rounding where the two
    terms cancel.
    """
    eta = np.ravel(eta) if b.ndim == 1 else eta
    cross = b * d
    coeffs = np.stack((b.real**2 + b.imag**2 + d.real**2 + d.imag**2, -2.0 * cross.real,
                       -2.0 * cross.imag), axis=-1)
    eta2 = eta * eta
    powers = np.stack((eta.real**2 + eta.imag**2, eta2.real, eta2.imag), axis=-2)
    squares = np.empty((b.shape[-1], *eta.shape))
    np.matmul(coeffs, powers, out=np.moveaxis(squares, 0, -2))
    return np.maximum(squares, 0.0, out=squares)


def _log_envelope(alpha, gamma, eta: np.ndarray) -> np.ndarray:
    """Re Q = -alpha |eta|^2 + 2 Re(gamma^* eta^2) of the Gaussian exponent, in real arithmetic.

    With eta = x + i y it is (2 Re gamma - alpha) x^2 + 4 Im gamma x y
    - (2 Re gamma + alpha) y^2: the log of a Gaussian influence's modulus,
    and of the zero-temperature envelope of a number-state bath.
    """
    x, y = eta.real, eta.imag
    g_re = 2.0 * np.real(gamma)
    out = (g_re - alpha) * x
    out += 4.0 * np.imag(gamma) * y
    out *= x
    out -= (g_re + alpha) * (y * y)
    return out


def gaussian_F_eval(params: GaussianFSeries, eta: np.ndarray) -> np.ndarray:
    """Evaluate a Gaussian influence function on an array of eta values.

    F = exp(Re Q) cis(Im Q), with Re Q from _log_envelope and
    Im Q = 2 Im(delta^* eta), in real arithmetic.  Where every delta is 0
    (equilibrium and vacuum baths) F is real: one real exp, and no cos or sin.
    """
    eta = np.asarray(eta, dtype=complex)
    modulus = np.exp(_log_envelope(params.alpha, params.gamma, eta))
    delta = np.asarray(params.delta)
    if not delta.any():
        return modulus
    phase = 2.0 * (delta.real * eta.imag - delta.imag * eta.real)
    out = np.empty(np.broadcast_shapes(np.shape(modulus), phase.shape), dtype=complex)
    np.multiply(modulus, np.cos(phase), out=out.real)
    np.multiply(modulus, np.sin(phase), out=out.imag)
    return out


def bath_F_eval(p: PropagatorCoefficients, i, bath: BathSpec, eta: np.ndarray) -> np.ndarray:
    """Influence function F(eta, t_i) for any supported preparation.

    i is a grid index, with eta of any shape, or a row set of R rows (a
    slice, an integer array or a mask), with an (R, P) eta whose row r is
    evaluated on the r-th row of p.X[i].  A Gaussian bath has the F of
    gaussian_F_eval, real where every delta is 0.  A number-state bath has
    the real F of its _laguerre_split: the real zero-temperature Gaussian times
    prod_k L_{n_k}(|eta B_k^* - eta^* D_k|^2), the one-member call of
    laguerre.log_products, in log space to avoid overflow, with its sign
    from the parity of the negative factors.
    """
    fs = bath_sums(p, i, _laguerre_split(p, _single(bath))[0])
    return _influence(p, i, bath, fs if _is_index(i) else fs[:, None], eta)


def _influence(p: PropagatorCoefficients, i, bath: BathSpec, fs: GaussianFSeries, eta):
    """F(eta) on p.X[i] for one checked bath from fs, its Gaussian part's sums (row-set columns)."""
    eta = np.asarray(eta, dtype=complex)
    if not isinstance(bath, NumberStateBath):
        return gaussian_F_eval(fs, eta)
    log_env = _log_envelope(fs.alpha, fs.gamma, eta)
    active = np.flatnonzero(bath.n)
    xs = _mode_args_squared(p.B[i][..., active], p.D[i][..., active], eta)
    ((_, log_lag, odd),) = laguerre.log_products(bath.n[None, active], xs, signed=True)
    sign = np.where(odd[0], -1.0, 1.0).reshape(eta.shape)
    return sign * np.exp(log_env + log_lag[0].reshape(eta.shape))


def _is_index(i) -> bool:
    """True for one grid index, False for a row set."""
    return isinstance(i, (int, np.integer))


def _generator(seed: int | np.random.Generator, count: int) -> np.random.Generator:
    """The generator for count members: default_rng(seed), or seed itself when it is one.

    The seed and the count are checked before any member array exists.
    """
    count = operator.index(count)
    if count < 0:
        raise ParameterError(f"member counts must be nonnegative, got {count}")
    if isinstance(seed, np.random.Generator):
        return seed
    seed = operator.index(seed)
    if seed < 0:
        raise ParameterError(f"seeds must be nonnegative, got {seed}")
    return np.random.default_rng(seed)


def sample_number_states(
    beta: float, m: ModelSpec, seed: int | np.random.Generator, n_members: int
) -> NumberStateBath:
    """n_members rows of occupations from the equilibrium weights P(n) = (1-q) q^n.

    The rows are drawn one after another in C order from default_rng(seed),
    or from seed itself when it is a np.random.Generator; a single draw is
    row 0 of a one-member call.
    """
    rng, beta = _generator(seed, n_members), _check_beta(beta)
    out = np.zeros((n_members, m.n_modes), dtype=int)
    if math.isinf(beta):  # all n = 0, and rng is not advanced
        return NumberStateBath(out)
    p = 1.0 - np.exp(-beta * m.units.hbar * m.omegas)
    for k in range(0, n_members, _BLOCK):
        rows = out[k : k + _BLOCK]
        np.subtract(rng.geometric(p, size=rows.shape), 1, out=rows)  # numpy counts trials from 1
    return NumberStateBath(out)


def sample_coherent_states(
    beta: float, m: ModelSpec, seed: int | np.random.Generator, n_members: int
) -> CoherentStateBath:
    """n_members rows of amplitudes from the complex Gaussian with E|beta_k|^2 = nbar_k.

    The rows are drawn as in sample_number_states; a row is one
    normal(size=2N) draw, real parts first: the same values as two
    normal(size=N) draws.
    """
    rng, beta, n = _generator(seed, n_members), _check_beta(beta), m.n_modes
    if math.isinf(beta):  # all amplitudes 0, and rng is not advanced
        return CoherentStateBath(np.zeros((n_members, n), dtype=complex))
    scale = np.sqrt(occupation(beta, m.omegas, m.units.hbar) / 2.0)
    out = np.empty((n_members, n), dtype=complex)
    for k in range(0, n_members, _BLOCK):
        rows = out[k : k + _BLOCK]
        z = rng.normal(size=(rows.shape[0], 2 * n))
        re, im = rows.real, rows.imag
        np.multiply(z[:, :n], scale, out=re)
        np.multiply(z[:, n:], scale, out=im)
        del z  # so that two blocks of draws are never alive at once
        # as in x + 1j * y: an imaginary -0.0 becomes +0.0 and a real -0.0 stays only
        # where the imaginary part was -0.0 too (signed zeros come from a zero scale)
        re += np.copysign(0.0, im)
        im += 0.0
    return CoherentStateBath(out)


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
    (bi, di), (bj, dj) = ((p.B[rows], p.D[rows]) for rows in (row_slice(p, i), row_slice(p, j)))
    c1 = complex(np.sum((bi * np.conj(bj) + di * np.conj(dj)) * nbar))
    c2 = complex(np.sum((bi * dj + bj * di) * nbar))
    return NoiseCorrelation(c1=c1, c2=c2)
