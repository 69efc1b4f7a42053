"""Laguerre polynomials by upward recurrence, guarded against overflow.

The recurrence (k+1) L_{k+1}(x) = (2k+1-x) L_k(x) - k L_{k-1}(x) is stable in
the upward direction for x >= 0.  Values grow roughly like exp(2 sqrt(n x))
inside the oscillatory region, so for large n both members of the running
pair are rescaled by a shared power of two; the shared exponent keeps ratios
L_{n-1}/L_n exact.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

__all__ = ["eval_scaled", "value", "log_derivative", "log_product"]

_RENORM_LIMIT = 2.0**500


def eval_scaled(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (m_n, m_prev, e) with L_n(x) = m_n 2^e and L_{n-1}(x) = m_prev 2^e.

    x must be real and non-negative; n >= 0 (m_prev is 0 for n = 0).
    """
    if n < 0:
        raise ParameterError(f"Laguerre order must be >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    if (x < 0.0).any():
        raise ParameterError("Laguerre argument must be >= 0")
    if n == 0:
        return np.ones(x.shape), np.zeros(x.shape), np.zeros(x.shape)
    prev = np.ones(x.shape)
    cur = 1.0 - x
    if n == 1:
        return cur, prev, np.zeros(x.shape)
    exp2 = None  # created at the first renormalization
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
        big = np.abs(cur) > _RENORM_LIMIT
        if big.any():
            # shift the pair by a common power of two where it grew too large
            _, ex = np.frexp(np.where(big, cur, 1.0))
            scale = np.ldexp(1.0, -ex)
            cur = np.where(big, cur * scale, cur)
            prev = np.where(big, prev * scale, prev)
            shift = np.where(big, ex, 0.0)
            exp2 = shift if exp2 is None else exp2 + shift
    return cur, prev, np.zeros(x.shape) if exp2 is None else exp2


def value(n: int, x: np.ndarray) -> np.ndarray:
    """L_n(x); may overflow to inf for very large n and x."""
    m, _, e = eval_scaled(n, x)
    return np.ldexp(m, e.astype(int))


def log_derivative(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d/dx log L_n(x) via x L_n' = n (L_n - L_{n-1}), with zero flags.

    Returns (ratio, ok) where ratio = L_n'(x)/L_n(x) and ok marks nodes where
    L_n(x) is far enough from a polynomial zero for the ratio to be reliable.
    """
    x = np.asarray(x, dtype=float)
    m, mp, _ = eval_scaled(n, x)
    # near a zero of L_n the ratio amplifies rounding; flag those nodes
    ok = np.abs(m) > 1e-4 * (np.abs(mp) + 1.0)
    safe_m = np.where(ok, m, 1.0)
    small = x < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = n * (1.0 - mp / safe_m) / np.where(small, 1.0, x)
    # series around x = 0: L_n'/L_n -> -n (1 + O(x))
    ratio = np.where(small, -float(n), ratio)
    return ratio, ok


def log_product(orders, xs, shape) -> tuple[np.ndarray, np.ndarray]:
    """(sign, log|.|) of prod_k L_{n_k}(x_k) over arrays of the given shape.

    orders and xs pair one Laguerre order with one argument array.  The
    running product is renormalized with frexp after every factor, so it
    neither overflows nor underflows; log|.| is -inf where it vanishes.
    """
    mant = np.ones(shape)
    exp2 = np.zeros(shape)
    for n, x in zip(orders, xs):
        mk, _, ek = eval_scaled(int(n), x)
        mant *= mk
        exp2 += ek
        mant, ex = np.frexp(mant)
        exp2 += ex
    with np.errstate(divide="ignore"):
        return np.sign(mant), np.log(np.abs(mant)) + exp2 * math.log(2.0)
