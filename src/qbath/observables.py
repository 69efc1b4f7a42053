"""Reduced-state observables: characteristic function, moments, purity, ensembles.

Position and momentum use x = sqrt(hbar/(2 m nu))(a^dag + a) and
p = i sqrt(hbar m nu / 2)(a^dag - a).  mean_xp, variances and purity each
take one grid index, and return floats, or a row set (a slice, an integer
array or a mask), and return arrays; each row has the bits of its index
call.  On a one-row set, mean_xp and variances give a member matrix one
entry per member, or one shared entry where the preparation drops out, and
purity gives a number-state member matrix one purity per member.

Purity is Tr rho^2 = (1/pi) int d^2eta |chi(eta)|^2.  When both the
oscillator state and the bath influence are Gaussian it is
1/(2 sqrt(a^2 - 4|g|^2)) in the total Gaussian parameters; otherwise one
quadrature driver integrates |chi|^2 = |chi0|^2 |F_g|^2 prod_k L_{n_k}^2,
with F_g and n_k from baths._laguerre_split, on a tensor Gauss-Hermite rule
in the coordinates that whiten its Gaussian envelope, stepping up the
LADDER of nodes per axis (16, 24, 32, then doubling to 256) until two
successive levels agree.  A cat row ends only on a level fine enough for
the fringes of its lobe cross terms (_fringe_nodes): closer rungs would
otherwise let two unresolved levels agree by accident.  The reduced
state is Hermitian, so |chi|^2 is even in eta; the rule's nodes come in
exact +- pairs, and each level evaluates only the half plane, n ceil(n/2)
of its n^2 nodes.  The first comparison needs two levels, so levels 16 and
24 share one chi_eval call on their joined nodes, each summed on its own
points; the node tables of each level set are built on first use and cached.
For a Gaussian state the rest of the integrand is a polynomial, and the rule
is exact at 2 sum_k n_k + 1 nodes per axis; up to EXACT_FIRST nodes that
rule is the first and only level, and above it the rule caps the ladder.
_quadrature takes a set of grid rows and a member matrix.  It whitens every
row once, before the first level, in row chunks of bounded size; each level
then runs the rows still pending in blocks of bounded size through chi_eval
and the Laguerre table, each step elementwise in the rows, and a row leaves
once it has converged, so a row has the same bits in any row set and costs
the levels it needs alone.  The members of a number-state ensemble
share one row's node set, and each level evaluates them together: one
laguerre.log_products table of the distinct (mode, order) factors, summed
per member in blocks of bounded size, so a member has the same bits alone as
in any ensemble.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import laguerre
from .baths import (
    BathSpec,
    CoherentStateBath,
    NumberStateBath,
    _gaussian,
    _is_index,
    _laguerre_split,
    _mode_args_squared,
    _single,
    bath_F_eval,
    bath_sums,
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
    gaussian_chi_discriminant,
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
    "asymptotic_variances",
    "asymptotic_purity",
    "purity",
    "number_variance_of_variance",
    "averaged_purity_number_ensemble",
    "displaced_vacuum_check",
    "observable_series",
]

LADDER = (16, 24, 32, 64, 128, 256)  # Gauss-Hermite nodes per axis of the levels
MAX_NODES = LADDER[-1]  # nodes per axis at the finest level; hermgauss(512) is not finite
EXACT_FIRST = 32  # an exact rule of at most this many nodes per axis is the only level
FRINGE = math.e / 8  # nodes per axis per |b|^2 that resolve a cross term exp(b.y) (_fringe_nodes)
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


def chi_eval(p: PropagatorCoefficients, i, bath: BathSpec, s: OscillatorState, eta) -> np.ndarray:
    """Symmetrically ordered characteristic function of the reduced state.

    i is a grid index, with eta of any shape, or a row set of R rows (a
    slice, an integer array or a mask), with an (R, P) eta whose row r is
    evaluated on the r-th row of p.X[i], as in bath_F_eval.
    """
    eta = np.asarray(eta, dtype=complex)
    one = _is_index(i)  # a row set takes one row of eta per propagator row
    a_t, c_t = (x[row_slice(p, i)][0] if one else x[i][:, None] for x in (p.A, p.C))
    zeta = eta * np.conj(a_t) - np.conj(eta) * c_t
    return chi0_eval(s, zeta) * bath_F_eval(p, i, bath, eta)


def _at(p: PropagatorCoefficients, i, bath: BathSpec):
    """(rows, bath): at a grid index its one-row slice and one checked preparation."""
    return (row_slice(p, i), _single(bath)) if _is_index(i) else (i, bath)


def _entries(one: bool, *values: np.ndarray) -> tuple:
    """The floats of one-row values at a grid index, else the arrays."""
    return tuple(float(v[0]) for v in values) if one else values


def mean_xp(p: PropagatorCoefficients, i, bath: BathSpec, s: OscillatorState) -> tuple:
    """(mean x, mean p) at grid index i, as floats, or on the row set p.X[i], as arrays.

    On one row a member matrix gives one entry per member; number states
    drop out, and share one entry.
    """
    rows, bath = _at(p, i, bath)
    mean_a, _, _ = initial_moments(s)
    a_t, c_t = p.A[rows], p.C[rows]
    delta = bath_sums(p, rows, bath).delta
    u = p.model.units
    x_scale = math.sqrt(u.hbar / (2.0 * u.mass * p.model.nu))
    p_scale = math.sqrt(u.hbar * u.mass * p.model.nu / 2.0)
    mean_adag_t = (np.conj(a_t) + c_t) * np.conj(mean_a) + (a_t + np.conj(c_t)) * mean_a
    mean_x = x_scale * (mean_adag_t + delta + np.conj(delta))
    diff = (np.conj(a_t) - c_t) * np.conj(mean_a) - (a_t - np.conj(c_t)) * mean_a
    mean_p = 1j * p_scale * (diff + np.conj(delta) - delta)
    return _entries(_is_index(i), np.real(mean_x), np.real(mean_p))


def _variance_kernel(p: PropagatorCoefficients, rows, bath: BathSpec, s: OscillatorState | None):
    """(var x, var p) on p.X[rows], or at grid index rows; s = None leaves the state's part out."""
    f = bath_sums(p, rows, bath)
    core_x = core_p = 0.0
    if s is not None:
        n_c, c_aa = central_moments(s)
        a_t, c_t = p.A[rows], p.C[rows]
        plus = a_t + np.conj(c_t)
        minus = a_t - np.conj(c_t)
        core_x = 2.0 * np.real(plus**2 * c_aa) + 2.0 * np.abs(plus) ** 2 * (n_c + 0.5)
        core_p = -2.0 * np.real(minus**2 * c_aa) + 2.0 * np.abs(minus) ** 2 * (n_c + 0.5)
    u = p.model.units
    xq = u.hbar / (2.0 * u.mass * p.model.nu)
    pq = u.hbar * u.mass * p.model.nu / 2.0
    var_x = xq * (core_x + 2.0 * (f.alpha + 2.0 * np.real(f.gamma)))
    var_p = pq * (core_p + 2.0 * (f.alpha - 2.0 * np.real(f.gamma)))
    return var_x, var_p


def variances(p: PropagatorCoefficients, i, bath: BathSpec, s: OscillatorState) -> tuple:
    """(var x, var p) shaped as mean_xp; coherent amplitudes drop out, and share one entry."""
    rows, bath = _at(p, i, bath)
    return _entries(_is_index(i), *_variance_kernel(p, rows, bath, s))


def asymptotic_variances(
    p: PropagatorCoefficients, i: int, bath: BathSpec
) -> tuple[float, float]:
    """Long-time limits (hbar/m nu)(alpha +- 2 Re gamma) evaluated at index i.

    The variances without the state's part, which decays with A and C.
    """
    return tuple(float(v) for v in _variance_kernel(p, i, bath, None))


def _discriminant(d0: float, a_s, g_s, a_t, c_t, alpha, gamma):
    """a^2 - 4|g|^2 of the total form a = a_s + alpha, g = g_s + gamma, without cancellation.

    (a_s, g_s) is the state's form (a0, g0) carried by eta -> eta A^* - eta^* C,
    a map of determinant |A|^2 - |C|^2, so a_s^2 - 4|g_s|^2 is the state's
    invariant d0 (|A|^2 - |C|^2)^2.  For a squeezed state a_s and |g_s| grow
    as e^{2r}, and a_s^2 - 4|g_s|^2 formed from them cancels to rounding; the
    rest is the bath's part, 2 a_s alpha - 8 Re(g_s gamma^*) + alpha^2 - 4|gamma|^2.
    """
    det = abs(a_t) ** 2 - abs(c_t) ** 2
    return (d0 * det * det + 2.0 * a_s * alpha - 8.0 * (g_s * gamma.conjugate()).real
            + alpha * alpha - 4.0 * abs(gamma) ** 2)


def _gaussian_purity(disc: np.ndarray, a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """1/(2 sqrt(disc)) elementwise, disc = a^2 - 4|g|^2; raises at the first non-positive form."""
    bad = disc <= 0.0
    if bad.any():
        k = np.unravel_index(np.argmax(bad), np.shape(bad))  # () at one grid index
        raise PhysicalityError(f"purity form not positive: a={a[k]}, |g|={abs(g[k])}")
    return 1.0 / (2.0 * np.sqrt(disc))


def asymptotic_purity(p: PropagatorCoefficients, i: int, bath: BathSpec) -> float:
    """Long-time purity 1/(2 sqrt(alpha^2 - 4 |gamma|^2)) evaluated at index i."""
    f = bath_sums(p, i, bath)
    return float(_gaussian_purity(f.alpha**2 - 4.0 * np.abs(f.gamma) ** 2, f.alpha, f.gamma))


def _total_gaussian_rows(
    p: PropagatorCoefficients, rows, s: OscillatorState, f
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a^2 - 4|g|^2, a, g) of the total Gaussian chi on the propagator rows p.X[rows].

    f holds the bath's Gaussian sums on those rows.
    """
    a_t, c_t = p.A[rows], p.C[rows]
    _, a, g = carried_gaussian_params(*gaussian_chi_params(s), a_t, c_t)
    disc = _discriminant(gaussian_chi_discriminant(s), a, g, a_t, c_t, f.alpha, f.gamma)
    return disc, a + f.alpha, g + f.gamma


def _whitening(a, g, disc, rows) -> tuple[np.ndarray, np.ndarray]:
    """(W, 1/(pi sqrt(det M))) for M = [[2a - 4 Re g, -4 Im g], [-4 Im g, 2a + 4 Re g]].

    Elementwise in the (R,) arrays a, g and disc of the grid indices rows:
    W is (R, 2, 2).  M = 2a I - 4 [[Re g, Im g], [Im g, -Re g]] has the
    eigenvalues 2a -+ 4|g|, on the unit vectors U at half the angle of g and
    at a right angle to it, so W = U Lambda^{-1/2} maps y to x with
    x^T M x = y^T y.  disc is a^2 - 4|g|^2, as `_discriminant` forms it:
    det M = 4 disc, and the smaller eigenvalue is 2a - 4|g| = 2 disc / (a + 2|g|).
    The first entry whose M is not positive-definite raises, named by its
    grid index.  Each entry is taken on its own, in Python floats and the
    math module, so its bits cannot depend on the chunk of _whitened it is
    in.  That costs about 2.7 us an entry, about 3 % of a stock cat row's
    quadrature.
    """
    whiten, scale = [], []
    for i, a_k, g_k, disc_k in zip(rows, a.tolist(), g.tolist(), disc.tolist()):
        # M is positive-definite iff a > 2|g|, iff a > 0 and disc > 0
        if not (a_k > 0.0 and disc_k > 0.0):
            raise PhysicalityError(
                f"purity envelope not positive at grid index {i}: a = {a_k}, "
                f"a^2 - 4|g|^2 = {disc_k}"
            )
        g_k = complex(g_k)
        small = math.sqrt(2.0 * disc_k / (a_k + 2.0 * abs(g_k)))
        large = math.sqrt(2.0 * a_k + 4.0 * abs(g_k))
        half = 0.5 * math.atan2(g_k.imag, g_k.real)
        cos, sin = math.cos(half), math.sin(half)
        whiten.append(((cos / small, -sin / large), (sin / small, cos / large)))
        scale.append(1.0 / (math.pi * math.sqrt(4.0 * disc_k)))
    return np.array(whiten).reshape(-1, 2, 2), np.array(scale)


_VACUUM = vacuum_state()


def _whitened(p: PropagatorCoefficients, rows, s: OscillatorState, gauss_bath):
    """_whitening of the Gaussian envelope exp(-x^T M x) of |chi|^2, x = (Re eta, Im eta).

    M holds the state's carried Gaussian parameters (a cat's are the
    vacuum's, a0 = 1/2, g0 = 0, d0 = 1/4) plus those of the members' common
    Gaussian bath, on each of the R grid indices of the integer array rows:
    (R, 2, 2) W and (R,) scales.  The bath's sums run in chunks of at most
    BLOCK_VALUES // (32 (N + 1)) rows, N the modes, so that their
    (rows x modes) temporaries stay within the budget of a node block of
    _quadrature whatever R is; every step is elementwise in the rows, so a
    row has the same bits in any chunk.
    """
    state = s if is_gaussian(s) else _VACUUM
    step = max(1, laguerre.BLOCK_VALUES // (32 * (p.n_modes + 1)))
    whiten, scale = np.empty((rows.size, 2, 2)), np.empty(rows.size)
    for start in range(0, rows.size, step):
        part = slice(start, start + step)
        f = bath_sums(p, rows[part], gauss_bath)
        disc, a, g = _total_gaussian_rows(p, rows[part], state, f)
        whiten[part], scale[part] = _whitening(a, g, disc, rows[part])
    return whiten, scale


def _fringe_nodes(p: PropagatorCoefficients, rows, s: OscillatorState, whiten) -> np.ndarray:
    """Nodes per axis that resolve a cat's |chi|^2 on the grid indices rows: FRINGE k^2.

    |chi|^2 sums 16 cross terms, one per lobe pair (g_a, d_a) of chi and (g_b, d_b)
    of chi^*.  In the coordinates y of x = W y each is exp(-|y|^2 + b.y) times a
    constant, with b = W^T (p + q, i (p - q)), p = u A^* - v C^*, q = v A - u C,
    u = g_a^* - d_b^* and v = g_b - d_a, and an n-point Gauss-Hermite rule
    resolves exp(b.y) once n >~ e |b_j|^2 / 8 on each axis j; k is the largest
    |b_j| over the terms and both axes.  b is linear, b = X^* f + Y f^* with
    f = W^T (A^* - C, i (A^* + C)), in X = g_a - d_b and Y = g_b - d_a, each 0 or
    +-(alpha - beta): up to sign the terms give b = z, z^*, 2 Re z and 2i Im z for
    z = (alpha - beta)^* f, so k is twice the largest |Re z_j|, |Im z_j|.  (R,)
    nodes for the (R, 2, 2) whitenings; zeros for a Gaussian state, whose
    integrand is a polynomial that the exact rule bounds.  k is capped at
    MAX_NODES, where FRINGE k^2 is still far past every level, so that k^2
    never overflows.
    """
    if is_gaussian(s):
        return np.zeros(len(rows))
    a_t, c_t = np.conj(p.A[rows])[:, None], p.C[rows][:, None]
    f = whiten[:, 0] * (a_t - c_t) + whiten[:, 1] * (1j * (a_t + c_t))
    z = np.conj(s.alpha - s.beta) * f
    k = np.minimum(2.0 * np.abs(z.view(float)).max(axis=-1), MAX_NODES)
    return FRINGE * k * k


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


# a table holds 3 n ceil(n/2) floats (0.75 MiB at n = 256), a row that walks the whole
# ladder visits 5 sets, and each exact level of a number bath is its own set, so only the
# recently used sets are kept
@functools.lru_cache(maxsize=8)
def _half_plane_table(ns: tuple[int, ...]):
    """Joined half-plane nodes of the levels ns: (y1, y2, offsets, weights, log_weights).

    Level n keeps the columns j < n/2 of its n x n rule: node (i, j) has the
    coordinates (y_i, y_j) and the weight w_i w'_j, with w' = 2 w on those
    columns and, for odd n, w' = w on the middle one.  y1 and y2 hold the
    coordinates of every level's n ceil(n/2) nodes in C order, level after
    level; level k owns the points offsets[k]:offsets[k+1].  weights holds
    each level's (w, w'), and log_weights the joined log w_i + log w'_j.
    """
    y1, y2, weights, log_weights = [], [], [], []
    for n in ns:
        y, wt = _hermite_table(n)
        half = (n + 1) // 2
        wt_half = 2.0 * wt[:half]
        if n % 2:
            wt_half[-1] = wt[half - 1]
        wt_half.setflags(write=False)
        y1.append(np.repeat(y, half))
        y2.append(np.tile(y[:half], n))
        weights.append((wt, wt_half))
        log_weights.append((np.log(wt)[:, None] + np.log(wt_half)[None, :]).ravel())
    offsets = np.cumsum([0, *(n * ((n + 1) // 2) for n in ns)])
    y1, y2, log_weights = (np.concatenate(parts) for parts in (y1, y2, log_weights))
    for arr in (y1, y2, offsets, log_weights):
        arr.setflags(write=False)
    return y1, y2, offsets, tuple(weights), log_weights


def _levels(p, rows, s, gauss_bath, whiten: np.ndarray, ns: tuple[int, ...], occs: np.ndarray):
    """The quadrature levels ns of the member matrix occs, from one chi_eval call.

    rows is an integer array of R grid indices, with their (R, 2, 2)
    whitenings.  Returns sums(members, levels=slice(None)), which gives, for
    the members occs[members], each level n of ns[levels] and each row, the
    sum sum_ij w_i w_j exp(y_i^2 + y_j^2) |chi|^2 over the n x n
    Gauss-Hermite nodes mapped by x = whiten y, as a (levels, members, rows)
    array.
    chi(-eta) = chi(eta)^* (rho is Hermitian), hermgauss's nodes are exactly
    antisymmetric and its weights symmetric, so node (i, j) is exactly minus
    node (n-1-i, n-1-j) and has the same |chi|^2: each level evaluates only
    the half plane of _half_plane_table, and the levels' nodes are joined
    into one evaluation of every node-wise step, each level summed on its
    own points.  |chi|^2 is |chi_g|^2 of the common Gaussian bath times
    prod_k L_{n_k}(x_k)^2.  A member with no occupied mode sums |chi_g|^2
    directly.  For the others, each occupied mode's argument
    |eta B_k^* - eta^* D_k|^2 is computed once, the products come from
    laguerre.log_products in member blocks on the points of the levels
    asked for, and |chi|^2 times the weights is formed in log space, so that
    an underflowed |chi_g|^2 never meets an overflowed product.  Every step
    is elementwise in the rows, or a sum within one row, so a row has the
    same bits in any row set.
    """
    y1, y2, offsets, weights, log_weights = _half_plane_table(ns)
    re = whiten[:, 0, 0, None] * y1 + whiten[:, 0, 1, None] * y2
    im = whiten[:, 1, 0, None] * y1 + whiten[:, 1, 1, None] * y2
    eta = re + 1j * im
    chi = chi_eval(p, rows, gauss_bath, s, eta)
    base = chi.real**2 + chi.imag**2
    base_sums = np.array([
        np.vecdot(wt @ base[:, offsets[k] : offsets[k + 1]].reshape(len(base), wt.size, -1),
                  wt_half)
        for k, (wt, wt_half) in enumerate(weights)
    ])
    if not occs.any():  # cats and Gaussian baths
        return lambda members, levels=slice(None): np.repeat(
            base_sums[levels, None], occs[members].shape[0], axis=1)
    modes = np.flatnonzero(occs.any(axis=0))
    xs = _mode_args_squared(p.B[rows][..., modes], p.D[rows][..., modes], eta)
    with np.errstate(divide="ignore"):
        log_weighted = np.log(base) + log_weights

    def sums(members, levels=slice(None)) -> np.ndarray:
        chosen = range(len(ns))[levels]
        points = slice(offsets[chosen.start], offsets[chosen.stop])
        sub = occs[members][:, modes]
        out = np.repeat(base_sums[levels, None], sub.shape[0], axis=1)
        busy = np.flatnonzero(sub.any(axis=1))
        for block, log_chi2, _ in laguerre.log_products(sub[busy], xs[..., points]):
            log_chi2 *= 2.0
            log_chi2 += log_weighted[..., points]
            np.exp(log_chi2, out=log_chi2)
            for k, level in enumerate(chosen):
                start, stop = offsets[level : level + 2] - offsets[chosen.start]
                out[k, busy[block]] = log_chi2[..., start:stop].sum(axis=-1)
        return out

    return sums


def _exact_nodes(s: OscillatorState, occs: np.ndarray) -> float:
    """Nodes per axis of the exact rule: 2 max_member sum_k n_k + 1 for a Gaussian state.

    For a Gaussian state |chi|^2 / envelope is a polynomial of degree
    4 sum_k n_k; for a cat it is not, and no rule is exact (inf).
    """
    return 2 * int(occs.sum(axis=1).max()) + 1 if is_gaussian(s) else math.inf


def _quadrature(p, rows: np.ndarray, s, gauss_bath, occs, probes, tol) -> np.ndarray:
    """Purities on the grid indices rows of the members F = F_g prod_k L_{n_k}, as (members, rows).

    occs is the (members, modes) matrix of the n_k, and F_g the influence of
    gauss_bath, a Gaussian bath common to the members.  With x = W y the
    whitening of _whitened, purity = sum_ij w_i w_j exp(y_i^2 + y_j^2)
    |chi(x_ij)|^2 / (pi sqrt(det M)) on a tensor Gauss-Hermite rule shared
    by the members (_levels evaluates its half plane j < n/2).  Every row
    starts at the first level: the exact rule of _exact_nodes when it has at
    most EXACT_FIRST nodes per axis, otherwise the first two rungs of LADDER
    joined.  A row leaves as soon as every probe member agrees with the
    row's previous level to tol on a level of at least its _fringe_nodes, and
    its other members, if any, are summed on that level only; the rows left
    go on one rung up, capped at the exact rule, which ends every row without
    a comparison.  A row still pending past the last rung raises
    AccuracyError; so does, before the first level, the first row whose
    fringe nodes no rung reaches.  Each level runs its pending rows in
    blocks with rows x nodes x m <= laguerre.BLOCK_VALUES, m the occupied
    modes of the Laguerre table, or 32 without one (about the float64 values
    a node holds through one chi evaluation), so the memory does not grow
    with the rows.
    Every row is whitened, and its fringe nodes taken, once, before the first
    level: _whitened takes the bath's sums in row chunks of the same budget.
    """
    exact = _exact_nodes(s, occs)
    ns = (exact,) if exact <= EXACT_FIRST else LADDER[:2]
    width = np.count_nonzero(occs.any(axis=0)) or 32
    out = np.empty((occs.shape[0], rows.size))
    whiten, scale = _whitened(p, rows, s, gauss_bath)
    fringe = _fringe_nodes(p, rows, s, whiten)
    prev = np.full((len(probes), rows.size), np.nan)  # compares False: no level before the first
    rest = np.ones(occs.shape[0], dtype=bool)
    rest[probes] = False  # summed on the level where their row leaves, and on no other
    done = np.zeros(rows.size, dtype=bool)
    unresolved = fringe > MAX_NODES  # no rung ends these rows: the first of them fails at once
    pending = np.flatnonzero(unresolved) if unresolved.any() else np.arange(rows.size)
    while pending.size:
        if ns[-1] > MAX_NODES or unresolved.any():
            i = rows[pending[0]]
            raise AccuracyError(
                f"purity quadrature did not converge to {tol:.1e} within {MAX_NODES} nodes "
                f"per axis at grid index {i} (t = {p.grid.t[i]})"
            )
        step = max(1, laguerre.BLOCK_VALUES // (width * sum(n * ((n + 1) // 2) for n in ns)))
        for start in range(0, pending.size, step):
            block = pending[start : start + step]
            sums = _levels(p, rows[block], s, gauss_bath, whiten[block], ns, occs)
            if ns[-1] == exact:
                out[:, block] = sums(slice(None))[-1] * scale[block]
                done[block] = True
                continue
            for k, cur in enumerate(sums(probes) * scale[block]):
                close = np.abs(cur - prev[:, block]) < tol * np.maximum(1.0, np.abs(cur))
                agree = close.all(axis=0) & (ns[k] >= fringe[block])
                prev[:, block] = cur
                if agree.any():
                    if rest.any():
                        every = np.empty((occs.shape[0], block.size))
                        every[probes] = cur
                        every[rest] = sums(rest, slice(k, k + 1))[0] * scale[block]
                        cur = every
                    out[:, block[agree]] = cur[:, agree]
                    done[block[agree]] = True
        pending = pending[~done[pending]]
        ns = (min(next((n for n in LADDER if n > ns[-1]), math.inf), exact),)
    return out


def purity(
    p: PropagatorCoefficients,
    i,
    bath: BathSpec,
    s: OscillatorState,
    *,
    method: str = "auto",
    tol: float = 1e-8,
) -> float | np.ndarray:
    """Tr rho^2 at grid index i, or on the row set p.X[i].

    An integer i returns a float; a slice, an integer array or a boolean
    mask returns an array of the shape p.A[i] has, each entry with the bits
    of its one-index call.  On a one-row set, a number-state member matrix
    returns one purity per member.  method: "auto" picks the closed
    Gaussian form when the state and bath are both Gaussian, quadrature
    otherwise; "closed" and "quadrature" force a path (closed raises for
    non-Gaussian inputs).  Quadrature is one call of the Gauss-Hermite
    driver on the bath's _laguerre_split with every row of i; a level ends
    once member 0, the most coupled and the most occupied member agree.
    """
    rows, bath = _at(p, i, bath)
    members = isinstance(bath, NumberStateBath) and bath.n.ndim > 1  # on a row set only
    bath = bath if members else _single(bath)
    if method == "auto":
        gaussian = is_gaussian(s) and not isinstance(bath, NumberStateBath)
        method = "closed" if gaussian else "quadrature"
    if method == "closed":
        f = bath_sums(p, rows, _gaussian(bath))
        values = _gaussian_purity(*_total_gaussian_rows(p, rows, s, f))
    elif method == "quadrature":
        indices = np.arange(p.n_times)[rows]
        gauss_bath, occs = _laguerre_split(p, bath, indices.shape)
        if not occs.shape[0]:
            raise ParameterError("purity needs at least one member")
        probes = [0]
        if members:
            row = indices.item()
            coupling = occs @ (np.abs(p.B[row]) ** 2 + np.abs(p.D[row]) ** 2)
            probes = sorted({0, int(np.argmax(coupling)), int(np.argmax(occs.sum(axis=1)))})
        values = _quadrature(p, indices.ravel(), s, gauss_bath, occs, probes, tol)
        values = values[:, 0] if members else values[0].reshape(indices.shape)
    else:
        raise ParameterError(f"unknown purity method {method!r}")
    return float(values[0]) if _is_index(i) else values


def number_variance_of_variance(p: PropagatorCoefficients, i: int, beta: float) -> float:
    """Ensemble variance of var x over number-state preparations drawn from P_n.

    var x is linear in the occupations, so the geometric per-mode variance
    nbar (nbar + 1) propagates directly:
    (hbar / m nu)^2 sum_k |B_k + D_k^*|^4 nbar_k (nbar_k + 1).
    """
    nbar = occupation(beta, p.model.omegas, p.model.units.hbar)
    b, d = (x[row_slice(p, i)] for x in (p.B, p.D))
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
) -> EnsembleSummary:
    """Monte-Carlo mean of purity over number-state preparations drawn from P_n.

    Draws the member matrix sample_number_states(beta, p.model, seed,
    n_samples) and summarizes its purities, one purity call on row i.
    """
    if n_samples < 2:
        raise ParameterError("need at least two samples")
    members = sample_number_states(beta, p.model, seed, n_samples)
    return summarize(purity(p, row_slice(p, i), members, s, tol=ENSEMBLE_TOL), seed)


def displaced_vacuum_check(
    p: PropagatorCoefficients,
    i: int,
    amps: np.ndarray,
    s: OscillatorState,
) -> float:
    """Sup of |chi - exp(delta^* eta - delta eta^*) chi_vac| over eta in [-3, 3]^2.

    The eta grid has 21 x 21 nodes.  chi uses the oscillator state s with a
    coherent bath; chi_vac is the same model with zero amplitudes and the
    oscillator in the vacuum.  At long times the defect is bounded by the
    residual |A|, |C|.
    """
    eta = square_eta_grid(3.0, 21)
    bath = CoherentStateBath(amps)
    chi = chi_eval(p, i, bath, s, eta)
    delta = bath_sums(p, i, bath).delta
    phase = np.exp(np.conj(delta) * eta - delta * np.conj(eta))
    vac_bath = CoherentStateBath(np.zeros(p.n_modes, dtype=complex))
    chi_vac = chi_eval(p, i, vac_bath, vacuum_state(), eta)
    return float(np.max(np.abs(chi - phase * chi_vac)))


def observable_series(
    p: PropagatorCoefficients, bath: BathSpec, s: OscillatorState
) -> dict[str, np.ndarray]:
    """Means, variances and purity on the whole grid."""
    out = {"t": p.grid.t.copy()}
    out["mean_x"], out["mean_p"] = mean_xp(p, slice(None), bath, s)
    out["var_x"], out["var_p"] = variances(p, slice(None), bath, s)
    out["purity"] = purity(p, slice(None), bath, s)
    return out
