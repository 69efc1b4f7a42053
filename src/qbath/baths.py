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

This module alone decides what F is.  Gaussian parameters come from
bath_sums as a GaussianFSeries on propagator rows (fs[0] for one index), and
_gaussian_sums is the one guard that refuses number states.  _laguerre_split
writes any bath as a Gaussian part times prod_k L_{n_k} (vacuum plus
occupations, or the bath itself plus a row of zeros), and bath_F_eval is the
one evaluator of F for every preparation.  _mode_args builds
z_k = eta B_k^* - eta^* D_k for the general generator, and _mode_args_squared
the Laguerre arguments |z_k|^2 of bath_F_eval and purity quadrature.

An ensemble is one bath holding an (M x N) member matrix, from
sample_number_states or sample_coherent_states; on one propagator row the
sums below give one entry per member, or one shared by all where the prepared
values do not enter.  Row k is drawn from numpy's SeedSequence(seed,
spawn_key=(k,)) stream, bit for bit, seeded without building a SeedSequence
per member: _seed_pool hashes the seed once per call, _seed_words runs
numpy's seeding hash as uint32 array arithmetic over a block of member
indices, _pcg64_states applies PCG64's seeding to each result in Python ints,
and _member_rngs re-seeds one PCG64 through its public state for each member.
A single sampled bath is row 0 of a one-member matrix.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator
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
    "GaussianFSeries",
    "NoiseCorrelation",
    "occupation",
    "gaussian_F_eval",
    "bath_F_eval",
    "bath_f_params",
    "bath_sums",
    "bath_delta",
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


def _gaussian_sums(
    p: PropagatorCoefficients, rows, bath: BathSpec, *, derivs: bool = False
) -> GaussianFSeries:
    """bath_sums of a bath with Gaussian influence; ParameterError for number states."""
    if isinstance(bath, NumberStateBath):
        raise ParameterError("number-state baths have no Gaussian influence parameters")
    return bath_sums(p, rows, bath, derivs=derivs)


def _laguerre_split(p: PropagatorCoefficients, bath: BathSpec) -> tuple[BathSpec, np.ndarray]:
    """(Gaussian part, occupation matrix) with F = F_gauss prod_k L_{n_k}, one row per member.

    A number-state bath is the vacuum plus its checked occupations; any other
    bath is itself plus one row of zeros.
    """
    if isinstance(bath, NumberStateBath):
        occs = np.atleast_2d(bath.n)
        _check_modes(p, occs, "occupations")
        return EquilibriumBath(math.inf), occs
    return bath, np.zeros((1, p.n_modes), dtype=int)


def _mode_args(b: np.ndarray, d: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """z_k = eta b_k^* - eta^* d_k: one row per mode of b and d, one column per node of eta."""
    eta = np.ravel(eta)
    return eta * np.conj(b[:, None]) - np.conj(eta) * d[:, None]


def _mode_args_squared(b: np.ndarray, d: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """|z_k|^2 of `_mode_args`, in real arithmetic: the Laguerre arguments.

    |eta b^* - eta^* d|^2 = |eta|^2 (|b|^2 + |d|^2) - 2 Re(eta^2 b^* d^*), one
    real (K x 3) by (3 x P) product with no complex temporaries, clamped at 0
    against rounding where the two terms cancel.
    """
    eta = np.ravel(eta)
    cross = b * d
    coeffs = np.stack((b.real**2 + b.imag**2 + d.real**2 + d.imag**2, -2.0 * cross.real,
                       -2.0 * cross.imag), axis=1)
    eta2 = eta * eta
    powers = np.stack((eta.real**2 + eta.imag**2, eta2.real, eta2.imag))
    squares = coeffs @ powers
    return np.maximum(squares, 0.0, out=squares)


def gaussian_F_eval(params: GaussianFSeries, eta: np.ndarray) -> np.ndarray:
    """Evaluate a Gaussian influence function on an array of eta values."""
    eta = np.asarray(eta, dtype=complex)
    return np.exp(gaussian_exponent(params.delta, params.alpha, params.gamma, eta))


def bath_f_params(p: PropagatorCoefficients, i: int, bath: BathSpec) -> GaussianFSeries:
    """Gaussian influence parameters at index i, the row fs[0]; rejects number-state baths."""
    return _gaussian_sums(p, row_slice(i), _single(bath))[0]


def bath_F_eval(p: PropagatorCoefficients, i: int, bath: BathSpec, eta: np.ndarray) -> np.ndarray:
    """Influence function F(eta, t_i) for any supported preparation.

    A number-state bath has the real F of its _laguerre_split: the real
    zero-temperature Gaussian times prod_k L_{n_k}(|eta B_k^* - eta^* D_k|^2),
    the one-member call of laguerre.log_products, in log space to avoid
    overflow, with its sign from the parity of the negative factors.
    """
    if not isinstance(bath, NumberStateBath):
        return gaussian_F_eval(bath_f_params(p, i, bath), eta)
    vacuum, occs = _laguerre_split(p, _single(bath))
    eta = np.asarray(eta, dtype=complex)
    zero_t = bath_f_params(p, i, vacuum)
    log_env = np.real(gaussian_exponent(0.0, zero_t.alpha, zero_t.gamma, eta))
    active = np.flatnonzero(occs[0])
    xs = _mode_args_squared(p.B[i, active], p.D[i, active], eta)
    ((_, log_lag, odd),) = laguerre.log_products(occs[:, active], xs, signed=True)
    sign = np.where(odd[0], -1.0, 1.0).reshape(eta.shape)
    return sign * np.exp(log_env + log_lag[0].reshape(eta.shape))


# numpy's SeedSequence hash constants (pool of four uint32 words), kept as masked
# Python ints: a numpy uint32 *scalar* warns on overflow, a uint32 array wraps
_MASK32, _POOL = 0xFFFFFFFF, 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (O'Neill 2014)
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1
# member indices are one uint32 spawn-key word each
MAX_MEMBERS = 1 << 32
# members hashed per pass of _seed_words
_SEED_BLOCK = 256


def _consts(const: int, mult: int) -> Iterator[tuple[int, int]]:
    """SeedSequence's running hash constant: (c, c * mult), then the same from c * mult."""
    while True:
        nxt = const * mult & _MASK32
        yield const, nxt
        const = nxt


def _hash(value, const, nxt):
    """One hash step of value (an int or a uint32 array) with a constant pair of _consts."""
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of pool word x with hashed word y (ints or uint32 arrays)."""
    r = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _column(pairs: Iterator[tuple[int, int]], n: int) -> np.ndarray:
    """The next n constant pairs of _consts as a (2, n, 1) uint32 array."""
    return np.array([next(pairs) for _ in range(n)], dtype=np.uint32).T[..., None]


def _seed_pool(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's pool after every word of seed, and the constants that hash k into it.

    The seed's 32-bit words, zero-padded to the pool size, are hashed and
    mixed in Python ints.  Returns the (4, 1) pool and the (2, 4, 1)
    constant pairs with which the spawn-key word k meets each pool word.
    """
    consts = _consts(_INIT_A, _MULT_A)
    hashmix = lambda v: _hash(v, *next(consts))
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL - len(words))
    pool = [hashmix(w) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(w))
    return np.array(pool, dtype=np.uint32)[:, None], _column(consts, _POOL)


# generate_state's constants for eight output words, two cycles through the pool
_STATE_CONSTS = _column(_consts(_INIT_B, _MULT_B), 2 * _POOL).reshape(2, 2, _POOL, 1)


def _seed_words(seed_pool: tuple[np.ndarray, np.ndarray], ks: np.ndarray) -> np.ndarray:
    """SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64) for each uint32 k.

    seed_pool is _seed_pool(seed).  k is the last entropy word, so it is
    hashed into all four pool words of every member at once; the eight output
    words, paired little-endian into four uint64, come from the resulting
    (4, len(ks)) pool.
    """
    pool, consts = seed_pool
    out = _hash(_mix(pool, _hash(ks, *consts)), *_STATE_CONSTS)
    return np.ascontiguousarray(out.reshape(2 * _POOL, -1).T, dtype="<u4").view("<u8")


def _pcg64_states(seed: int, indices: range) -> Iterator[tuple[int, int]]:
    """PCG64 (state, inc) of each member in indices, streamed in blocks of _SEED_BLOCK.

    PCG64 seeds from generate_state(4, uint64) = (s_hi, s_lo, i_hi, i_lo) by
    pcg64_srandom: inc = 2i + 1, state = (inc + s) * multiplier + inc.
    """
    seed_pool = _seed_pool(seed)
    for start in range(indices.start, indices.stop, _SEED_BLOCK):
        ks = np.arange(start, min(start + _SEED_BLOCK, indices.stop), dtype=np.uint32)
        for s_hi, s_lo, i_hi, i_lo in _seed_words(seed_pool, ks).tolist():
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            yield ((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _MASK128, inc


def _member_rngs(seed: int, indices: range) -> Iterator[np.random.Generator]:
    """Generators of the members in indices, each numpy's SeedSequence(seed, spawn_key=(k,)) stream.

    One PCG64 and Generator are re-seeded for each member, so a yielded
    generator is valid until the next one is drawn.  Seed and indices are
    checked here, before any generator or member array exists.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ParameterError(f"seeds must be nonnegative, got {seed}")
    if not 0 <= indices.start <= indices.stop <= MAX_MEMBERS:
        raise ParameterError(f"member indices must lie in [0, 2**32), got {indices}")
    bits = np.random.PCG64(0)  # its state is replaced before every draw

    def reseeded():
        rng = np.random.Generator(bits)
        for state, inc in _pcg64_states(seed, indices):
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            yield rng

    return reseeded()


def _number_rows(beta: float, m: ModelSpec, rngs: Iterable, count: int) -> np.ndarray:
    """count rows of occupations from P(n) = (1-q) q^n, row k drawn with the k-th generator."""
    beta = _check_beta(beta)
    out = np.zeros((count, m.n_modes), dtype=int)
    if math.isinf(beta):  # all n = 0, and no generator is advanced
        return out
    p = 1.0 - np.exp(-beta * m.units.hbar * m.omegas)
    for row, rng in zip(out, rngs):
        np.subtract(rng.geometric(p), 1, out=row)  # numpy counts trials from 1
    return out


def _coherent_rows(beta: float, m: ModelSpec, rngs: Iterable, count: int) -> np.ndarray:
    """count rows of amplitudes with E|beta_k|^2 = nbar_k, row k drawn with the k-th generator.

    A row is one normal(size=2N) draw, real parts first: the same values as
    two normal(size=N) draws.
    """
    scale, n = np.sqrt(occupation(beta, m.omegas, m.units.hbar) / 2.0), m.n_modes
    out = np.empty((count, n), dtype=complex)
    for row, rng in zip(out, rngs):
        z = rng.normal(size=2 * n)
        np.multiply(z[:n], scale, out=row.real)
        np.multiply(z[n:], scale, out=row.imag)
    # as in x + 1j * y: an imaginary -0.0 becomes +0.0 and a real -0.0 stays only
    # where the imaginary part was -0.0 too (signed zeros come from a zero scale)
    for k in range(0, count, _BLOCK):
        re, im = out.real[k : k + _BLOCK], out.imag[k : k + _BLOCK]
        re += np.copysign(0.0, im)
        im += 0.0
    return out


def sample_number_state(
    beta: float, m: ModelSpec, rng: np.random.Generator | int
) -> NumberStateBath:
    """Draw occupations from the equilibrium diagonal weights P(n) = (1-q) q^n.

    An int rng seeds default_rng(rng): not a config's sampled bath for bath.seed = rng, which
    is row 0 of sample_number_states(beta, m, rng, 1) (they differ for seed 7 on ohmic-rwa-n64).
    """
    return NumberStateBath(_number_rows(beta, m, [np.random.default_rng(rng)], 1)[0])


def sample_coherent_state(
    beta: float, m: ModelSpec, rng: np.random.Generator | int
) -> CoherentStateBath:
    """Draw amplitudes from the complex Gaussian with E|beta_k|^2 = nbar_k.

    An int rng seeds default_rng(rng): not a config's sampled bath for bath.seed = rng, which
    is row 0 of sample_coherent_states(beta, m, rng, 1) (they differ for seed 7 on ohmic-rwa-n64).
    """
    return CoherentStateBath(_coherent_rows(beta, m, [np.random.default_rng(rng)], 1)[0])


def sample_number_states(beta: float, m: ModelSpec, seed: int, n_members: int) -> NumberStateBath:
    """Members whose row k is sample_number_state on SeedSequence(seed, spawn_key=(k,))."""
    rngs = _member_rngs(seed, range(n_members))
    return NumberStateBath(_number_rows(beta, m, rngs, n_members))


def sample_coherent_states(
    beta: float, m: ModelSpec, seed: int, n_members: int
) -> CoherentStateBath:
    """Members whose row k is sample_coherent_state on SeedSequence(seed, spawn_key=(k,))."""
    rngs = _member_rngs(seed, range(n_members))
    return CoherentStateBath(_coherent_rows(beta, m, rngs, n_members))


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
