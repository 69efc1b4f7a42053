"""Laguerre polynomials by the difference recurrence, guarded against overflow.

The three-term recurrence (k+1) L_{k+1}(x) = (2k+1-x) L_k(x) - k L_{k-1}(x)
is run in its difference form, as scipy evaluates it: with
d_k = L_k - L_{k-1},
    d_{k+1} = -x L_k / (k+1) + k d_k / (k+1),    L_{k+1} = L_k + d_{k+1}.
For small x each step adds a small correction to L_k instead of cancelling
two terms of size ~2 L_k, so the relative error in L_n(x)^2 grows about
linearly in n, where the plain upward recurrence's grows like n^2 (over
1e4 eps at n = 64 for x <= 0.05).  Values grow roughly like exp(2 sqrt(n x))
inside the oscillatory region, so for large n the running values L_k,
L_{k-1} and d_k are rescaled by a shared power of two; the shared exponent
keeps ratios L_{n-1}/L_n exact.

log_products evaluates prod_k L_{n_k}(x_k) for every row of a member matrix
of orders n_k at once: each distinct (mode, order) factor is one row of a
log|L| table, built with one eval_scaled call per distinct order, and a
member's product is the sum of its rows of that table, taken in mode order.
A single member is a one-row member matrix, with the same bits as its row in
any larger one.

The recurrence takes one numpy step per order, so an order above MAX_ORDER
(where one purity row costs about 1-2 s) is an AccuracyError before any step.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError, ParameterError

__all__ = ["MAX_ORDER", "eval_scaled", "log_derivative", "log_products"]

_RENORM_LIMIT = 2.0**500
_LN2 = math.log(2.0)
BLOCK_VALUES = 1 << 16  # table values gathered per member block of log_products
MAX_ORDER = 1 << 14  # the highest order evaluated: one recurrence step per order


def _check_order(n: int) -> None:
    """AccuracyError for an order above MAX_ORDER, naming the order and the bound."""
    if n > MAX_ORDER:
        raise AccuracyError(f"Laguerre order {n} is above the bound MAX_ORDER = {MAX_ORDER}")


def eval_scaled(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (m_n, m_prev, e) with L_n(x) = m_n 2^e and L_{n-1}(x) = m_prev 2^e.

    x must be real and non-negative; 0 <= n <= MAX_ORDER (m_prev is 0 for
    n = 0).  For n <= 1, m_prev and e are read-only broadcasts of their one
    value, so the low orders allocate only m_n.
    """
    if n < 0:
        raise ParameterError(f"Laguerre order must be >= 0, got {n}")
    _check_order(n)
    x = np.asarray(x, dtype=float)
    if (x < 0.0).any():
        raise ParameterError("Laguerre argument must be >= 0")
    zero = np.broadcast_to(0.0, x.shape)
    if n == 0:
        return np.ones(x.shape), zero, zero
    cur = 1.0 - x
    if n == 1:
        return cur, np.broadcast_to(1.0, x.shape), zero
    prev = np.ones(x.shape)
    diff, step = -x, np.empty(x.shape)
    exp2 = None  # created at the first renormalization
    for k in range(1, n):
        # diff <- -x cur / (k+1) + k diff / (k+1), in place; L_{k+1} goes into L_{k-1}'s array
        np.multiply(np.divide(x, k + 1, out=step), cur, out=step)
        diff *= k / (k + 1)
        diff -= step
        prev, cur = cur, np.add(cur, diff, out=prev)
        big = np.abs(cur) > _RENORM_LIMIT
        if big.any():
            # shift the running values by a common power of two where they grew too large
            _, ex = np.frexp(np.where(big, cur, 1.0))
            scale = np.ldexp(1.0, -ex)
            cur = np.where(big, cur * scale, cur)
            prev = np.where(big, prev * scale, prev)
            diff = np.where(big, diff * scale, diff)
            shift = np.where(big, ex, 0.0)
            exp2 = shift if exp2 is None else exp2 + shift
    return cur, prev, zero if exp2 is None else exp2


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


def log_products(occs, xs, *, signed: bool = False):
    """Blocks (rows, log|prod|, odd) of prod_k L_{occs[m, k]}(xs[k]) over members m.

    occs is an (M, K) member matrix of orders and xs a (K, ...) array holding
    each mode's argument at the points of its trailing axes, P in all (a
    (K, R, P) array holds P points on each of R rows).  The factor of each
    distinct (mode, order) pair with order > 0 is evaluated once, as log|L|
    (and, if signed, L < 0), by one eval_scaled call per distinct order on
    the stacked arguments of the modes that carry it.  Each member's
    log|prod|, of xs's trailing shape, is the sum of its factors' tables
    added one by one in mode order, so (for P >= 2; numpy sums a single
    point pairwise) it has the same bits at each point whatever other
    members and points share the call; it is -inf where a factor vanishes
    and 0 for a member with no occupied mode.  odd marks an odd count of
    negative factors (None unless signed).  An order above MAX_ORDER is an
    AccuracyError, raised before any factor is evaluated.

    Members come in blocks of consecutive rows, yielded as the slice rows of
    occs, whose gathered factor rows, padded to the most factors of any
    member, hold at most BLOCK_VALUES values (or one member's, when that is
    more), so the memory per block does not grow with M.
    """
    occs = np.asarray(occs)
    xs = np.asarray(xs, dtype=float)
    n_members, points = occs.shape[0], xs.shape[1:]
    n_points = math.prod(points)
    member, mode = np.nonzero(occs)  # row-major: each member's modes in ascending order
    order = occs[member, mode]
    width = int(order.max(initial=0)) + 1
    _check_order(width - 1)  # before mode * width, which a huge order would overflow
    pairs, row = np.unique(mode * width + order, return_inverse=True)
    pair_mode, pair_order = np.divmod(pairs, width)
    # one row per distinct factor, then a zero row (log 1) that pads short members
    log_abs = np.zeros((pairs.size + 1, *points))
    negative = np.zeros(log_abs.shape, dtype=bool) if signed else None
    for n in np.unique(pair_order):
        at = np.flatnonzero(pair_order == n)
        m, _, e = eval_scaled(int(n), xs[pair_mode[at]])
        if signed:
            negative[at] = m < 0.0
        # in place: the table is the largest array here, and m is not needed again
        with np.errstate(divide="ignore"):
            log_m = np.log(np.abs(m, out=m), out=m)
        if e.any():
            log_m += e * _LN2
        log_abs[at] = log_m

    # factors[m, j]: table row of member m's j-th factor in mode order, else the zero row
    counts = np.bincount(member, minlength=n_members)
    factors = np.full((n_members, max(1, counts.max(initial=0))), pairs.size)
    factors[member, np.arange(member.size) - (np.cumsum(counts) - counts)[member]] = row
    step = max(1, BLOCK_VALUES // (factors.shape[1] * max(n_points, 1)))
    for start in range(0, n_members, step):
        rows = slice(start, min(start + step, n_members))
        # trailing zero rows add nothing, so any block width gives the same sums
        block = factors[rows, : max(1, counts[rows].max())]
        logs = log_abs[block].sum(axis=1)  # in factor order: the points are the inner axis
        odd = np.logical_xor.reduce(negative[block], axis=1) if signed else None
        yield rows, logs, odd
