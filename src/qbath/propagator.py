"""Heisenberg-picture propagator coefficients on a time grid.

The annihilation operator evolves linearly,

    a(t) = A(t) a + sum_k B_k(t) b_k + C(t) a^dag + sum_k D_k(t) b_k^dag,

so the coefficient row is the a-row of exp(M t) with M the dynamical matrix.
Preserving [a(t), a(t)^dag] = 1 gives the sum rule

    |A|^2 - |C|^2 + sum_k |B_k|^2 - sum_k |D_k|^2 = 1.

Coefficients are computed by one decomposition (exact in t, no time
stepping), chosen by the structure of the model.  Every route gives pair
frequencies E and matrices R_c, R_s, and one kernel, `_trig_rows`, writes
the rows cos(E t) R_c + i sin(E t) R_s:

  v = 0          "number": (a, b_k) evolve alone under the (N+1)-dim
                 Hermitian block Dk = [[nu, u], [u^dag, diag omega]]; `eigh`
                 of Dk gives exp(-i E t) w V^dag, so R_s = -R_c = -w V^dag
                 over the N+1 (a, b_k) columns, and C = D = 0 exactly.
  real K         "quadrature-svd" (real u, v != 0: PositionPosition, real
                 Custom): the real quadrature form splits, dx/dt = S_pp p and
                 dp/dt = -S_xx x (see `model`).  With S_xx = L_x L_x^T and
                 S_pp = L_p L_p^T, the SVD L_x^T L_p = Y E Z^T gives the
                 normal-mode frequencies E and real mode profiles L_x Y,
                 L_p Z: one (N+1) SVD.  Its softest pair takes R_c from the
                 t = 0 identity (on 480 random real models within 1e-14 ..
                 1e-6 of the edge, tools/edge_sweep.py --couplings real
                 seeds 0-3, the largest sup defect is 1.8e-11).
  complex K      "williamson-svd": with the real form S = L L^T, y = L^T z
                 obeys dy/dt = A y, A = L^T J L the real antisymmetric
                 Williamson matrix (Am. J. Math. 58, 141 (1936)); for real K
                 an SVD of its off-diagonal block L_x^T L_p suffices.  S is
                 an arrow, so L comes from the Cholesky factor L_s of its
                 2 x 2 Schur complement, A is built in O(N^2), and one real
                 (2N+2) SVD is the only cubic step.  At the stability edge
                 L_s has a soft pivot; `_williamson_pairs` takes no product
                 that amplifies the SVD's rounding by it (on 240 random models
                 within 1e-14 .. 1e-6 of the edge, tools/edge_sweep.py seeds
                 0 and 1, the largest sup defect is 1.1e-11).

No route forms an inverse.  Only stable models are served.  An unstable one
is a ParameterError; a form that has no Cholesky factor although
validate_model finds it positive sits at the stability edge and is a
NumericalError.

Every route hands the kernel one (N+1, 2, W) stack whose pair k is
[R_c,k; R_s,k], or [R_c,k; i R_s,k] when they are complex: the layout its
product reads.  The kernel fills the phase table exp(i E t) one block of
rows at a time, in one reused buffer, and multiplies each block straight
into its rows, so beyond the rows it holds O(block N + N^2) memory, not a
(T, N+1) table.  On a uniform grid, t[:-1] == arange(T - 1) * t[1] exactly,
as `TimeGrid.linspace` writes it, a table of at least PHASE_TABLE_MIN
entries T (N+1) takes cos and sin at ceil(sqrt(T)) offsets and about as
many anchors only; every other entry is an anchor times an offset (angle
addition), and the last row, t_max, is evaluated directly.  Other grids
and smaller tables evaluate every phase.  Each block is within
2 eps max|E t| + 4 eps of cos and sin of the exact phases of the stored
times, against eps max|E t| / 2 + eps evaluated directly.

The sum rule is the contract on every row compute_propagator returns: its
sup defect over the grid must be at most SUM_RULE_TOL, or the rows are
refused with a NumericalError that names the defect.  The defects are
computed once, in that check, in real arithmetic, and kept on the
coefficients.

Real R_c, R_s (real K, real u with v = 0) keep the kernel real.  The rows
are kept as one (T, 2N+2) array, of which A, B_k, C, D_k are views.  Time
derivatives are the exact rows row(t) . M, built on first read: only the
master-equation generators and bath sums with derivatives use them.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericalError, ParameterError
from .model import ModelSpec, _number_block, dynamical_matrix, validate_model

__all__ = [
    "TimeGrid",
    "PropagatorCoefficients",
    "DecayReport",
    "compute_propagator",
    "sum_rule_defects",
    "decay_report",
]

SUM_RULE_TOL = 1e-10  # largest sup |sum-rule defect| that compute_propagator accepts
COND_LIMIT = 1e10  # largest ||K||_1 / min E (bounds cond of the normal modes) accepted
DECAY_THRESHOLD = 0.1  # |A| level that decay_report's recurrence onset is measured against
LATE_FRACTION = 0.2  # trailing share of the grid that decay_report calls late
PLATEAU_THRESHOLD = 0.05  # |A|, |C| level below which decay_report counts memory as lost
PHASE_TABLE_MIN = 1024  # fewest entries T (N+1) where angle addition beat direct cos and sin
_ROW_BLOCK = 256  # grid rows per phase block of the row kernel (uniform grids: whole anchor groups)


@dataclass
class TimeGrid:
    """Strictly increasing times starting at 0."""

    t: np.ndarray

    def __post_init__(self) -> None:
        self.t = np.atleast_1d(np.asarray(self.t, dtype=float))
        if self.t.size < 1 or self.t[0] != 0.0:
            raise ParameterError("time grid must start at t = 0")
        if np.any(np.diff(self.t) <= 0.0):
            raise ParameterError("time grid must be strictly increasing")
        if not np.all(np.isfinite(self.t)):
            raise ParameterError("non-finite entries in time grid")

    @classmethod
    def linspace(cls, t_max: float, steps: int) -> "TimeGrid":
        """Uniform grid with `steps` intervals on [0, t_max]."""
        if not (t_max > 0.0 and steps >= 1):
            raise ParameterError("need t_max > 0 and steps >= 1")
        return cls(np.linspace(0.0, t_max, steps + 1))

    def __len__(self) -> int:
        return self.t.size


@dataclass
class PropagatorCoefficients:
    """Coefficient rows A, B_k, C, D_k and their exact time derivatives.

    `rows` is the (T, 2N+2) array of a-rows of exp(M t); A, B, C, D are views
    into it, so the coefficients share its memory.  The derivative rows
    row(t) M are built on the first read of dA, dB, dC or dD and then kept;
    so are the sum-rule defects, on the first sum_rule_defects call.

    `route` is compute_propagator's decomposition and `cond_bound` its
    ||K||_1 / min E, None for the "number" route.

    Shapes: A, C, dA, dC are (T,); B, D, dB, dD are (T, N).
    """

    model: ModelSpec
    grid: TimeGrid
    rows: np.ndarray
    route: str
    cond_bound: float | None
    A: np.ndarray = field(init=False, repr=False)
    B: np.ndarray = field(init=False, repr=False)
    C: np.ndarray = field(init=False, repr=False)
    D: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.A, self.B, self.C, self.D = _split(self.rows)

    @cached_property
    def _derivs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        mat = dynamical_matrix(self.model)
        drows = self.rows @ mat
        # row(0) is the identity, so drow(0) is M's a-row exactly
        drows[0, :] = mat[0, :]
        return _split(drows)

    dA = property(lambda self: self._derivs[0])
    dB = property(lambda self: self._derivs[1])
    dC = property(lambda self: self._derivs[2])
    dD = property(lambda self: self._derivs[3])

    @cached_property
    def _defects(self) -> np.ndarray:
        # on the float view each half of a row, (a, b_k) and (a^dag, b_k^dag),
        # is one real vector whose squared norm is the half's sum of |.|^2
        parts = self.rows.view(np.float64)
        half = parts.shape[1] // 2
        plus, minus = parts[:, :half], parts[:, half:]
        defects = np.vecdot(plus, plus)
        defects -= np.vecdot(minus, minus)
        defects -= 1.0
        return defects

    @property
    def n_times(self) -> int:
        return self.A.size

    @property
    def n_modes(self) -> int:
        return self.B.shape[1]


def _split(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Views (A, B, C, D) of the a, b_k, a^dag and b_k^dag columns of rows."""
    n = (rows.shape[1] - 2) // 2
    return rows[:, 0], rows[:, 1 : n + 1], rows[:, n + 1], rows[:, n + 2 :]


def compute_propagator(m: ModelSpec, grid: TimeGrid) -> PropagatorCoefficients:
    """Evaluate the coefficient rows on the whole grid.

    The route follows the structure of the model (see the module docstring)
    and gives the pair frequencies E and the matrices R_c, R_s: "number",
    `eigh` of Dk for v = 0; "quadrature-svd", one (N+1) SVD for real K;
    "williamson-svd", one real (2N+2) SVD for complex K.  One call of
    `_trig_rows` writes the rows from the route's stack of R_c, R_s.  The
    coefficients keep the route and the ||K||_1 / min E bound of the pair
    routes.
    Without a Cholesky factor the model is unstable (ParameterError) or at
    the stability edge (NumericalError); a bound above COND_LIMIT and a sup
    sum-rule defect above SUM_RULE_TOL are NumericalErrors too.  Derivative
    rows drow(t) = row(t) M are left to the first read of dA, dB, dC or dD.
    """
    if not m.v.any():
        # the eigenvectors of Dk are unitary (cond = 1): no conditioning guard
        route, (freqs, stack) = "number", _number_pairs(m)
    elif m.u.imag.any() or m.v.imag.any():
        route, (freqs, stack) = "williamson-svd", _williamson_pairs(m)
    else:
        route, (freqs, stack) = "quadrature-svd", _quadrature_pairs(*_quadrature_modes(m))
    # the pair frequencies E descend: E[-1] is the smallest
    cond_bound = None if route == "number" else _check_conditioning(m, freqs[-1])
    # v = 0 fills only the (a, b_k) columns: C and D stay exactly zero
    rows = np.zeros((len(grid), 2 * m.n_modes + 2), dtype=complex)
    _trig_rows(grid.t, freqs, stack, rows[:, : stack.shape[-1]])
    # t = 0 is the identity exactly; drop the reconstruction rounding there
    rows[0, :] = 0.0
    rows[0, 0] = 1.0
    p = PropagatorCoefficients(m, grid, rows, route, cond_bound)
    sup_defect = float(np.max(np.abs(sum_rule_defects(p))))
    if not sup_defect <= SUM_RULE_TOL:
        raise NumericalError(f"sum-rule defect {sup_defect:.3e} exceeds {SUM_RULE_TOL:.0e}")
    return p


def _check_stable(m: ModelSpec) -> float:
    """The smallest quadratic-form eigenvalue; ParameterError unless it is > 0."""
    bound = validate_model(m)
    if bound <= 0.0:
        raise ParameterError(
            f"model is not stable: smallest quadratic-form eigenvalue {bound:.3e} <= 0"
        )
    return bound


def _cholesky(m: ModelSpec, form: np.ndarray) -> np.ndarray:
    """Cholesky factors of m's quadratic-form blocks (one or a stack), or the typed failure."""
    try:
        return np.linalg.cholesky(form)
    except np.linalg.LinAlgError:
        bound = _check_stable(m)
        raise NumericalError(
            f"no Cholesky factor of the quadratic form at the stability edge "
            f"(smallest eigenvalue {bound:.3e})"
        ) from None


def _check_conditioning(m: ModelSpec, min_freq: float) -> float:
    """The bound ||K||_1 / min E; NumericalError unless it is finite and within COND_LIMIT.

    ||K||_1 is the largest column sum of |K|, in O(N): nu + sum|u| + sum|v|
    for a and a^dag, omega_k + |u_k| + |v_k| for b_k and b_k^dag.
    """
    abs_u, abs_v = np.abs(m.u), np.abs(m.v)
    k_norm = max(m.nu + abs_u.sum() + abs_v.sum(), np.max(m.omegas + abs_u + abs_v))
    bound = k_norm / min_freq
    if not np.isfinite(bound) or bound > COND_LIMIT:
        raise NumericalError(
            f"ill-conditioned normal modes (cond bound = {bound:.3e} > {COND_LIMIT:.1e})"
        )
    return float(bound)


def _number_pairs(m: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """(E, stack) of `_trig_rows` for v = 0, from `eigh` of Dk.

    (a, b_k) evolve alone under exp(-i Dk t), for any Hermitian Dk.  With
    Dk = V diag(E) V^dag the a-row is exp(-i E t) w V^dag, w = V's a-row, so
    R_c = w V^dag and R_s = -R_c over the N+1 (a, b_k) columns.  A real Dk
    (real u) keeps V, R_c and R_s real; a complex one stacks R_c and
    i R_s = -i R_c.
    """
    block = _number_block(m)
    freqs, vecs = np.linalg.eigh(block if m.u.imag.any() else block.real)
    if freqs[0] <= 0.0:
        _check_stable(m)
    stack = np.empty((freqs.size, 2, freqs.size), dtype=vecs.dtype)
    np.multiply(vecs[0, :, None], vecs.T.conj(), out=stack[:, 0])
    np.multiply(stack[:, 0], -1j if np.iscomplexobj(stack) else -1.0, out=stack[:, 1])
    return freqs, stack


def _williamson_modes(m: ModelSpec) -> tuple[np.ndarray, ...]:
    """SVD of the Williamson matrix A = L^T J L of the real form S = L L^T: (A, U, sigma, V^T, g).

    In the quadratures (x_b, p_b, x_0, p_0) S is the arrow [[D, D^{1/2} Y^T],
    [Y D^{1/2}, nu I]], D = diag(omega, omega), with the 2 x 2N border Y of
    rows (Re(u + v), Im(v - u)) / sqrt(omega), (Im(u + v), Re(u - v)) /
    sqrt(omega) (see `model`).  So L = [[D^{1/2}, 0], [Y, L_s]], L_s the
    Cholesky factor of the Schur complement nu I - Y Y^T, and in O(N^2)

        A = [[omega J_N + y_x y_p^T - y_p y_x^T, Y^T J_0 L_s],
             [L_s^T J_0 Y, det(L_s) J_0]].

    In y = L^T z, dz/dt = J S z reads dy/dt = A y, and a = c^T z = g^T y
    with c = (1, i) / sqrt(2) on (x_0, p_0) and g = (0, L_s^{-1} c).
    """
    n = m.n_modes
    root = np.sqrt(m.omegas)
    # the real and imaginary parts of (u + v, i (u - v)) / sqrt(omega) are the rows of Y
    y = np.concatenate(((m.u + m.v) / root, 1j * (m.u - m.v) / root)).view(float)
    y = y.reshape(2 * n, 2).T
    ls = _cholesky(m, m.nu * np.eye(2) - y @ y.T)
    size = 2 * n + 2
    # the upper parts of A's blocks; subtracting the transpose makes A exactly antisymmetric
    will = np.zeros((size, size))
    np.multiply.outer(y[0], y[1], out=will[: 2 * n, : 2 * n])
    will.reshape(-1)[n : n * (size + 1) : size + 1] += m.omegas
    np.matmul(y.T, [[ls[1, 0], ls[1, 1]], [-ls[0, 0], 0.0]], out=will[: 2 * n, 2 * n :])
    will[2 * n, 2 * n + 1] = ls[0, 0] * ls[1, 1]
    will -= will.T
    (l00, _), (l10, l11) = ls.tolist()
    g_x = math.sqrt(0.5) / l00  # L_s^{-1} c by forward substitution
    return will, *np.linalg.svd(will), np.array([g_x, (1j * math.sqrt(0.5) - l10 * g_x) / l11])


def _williamson_pairs(m: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """(E, stack [R_c; i R_s]) of `_trig_rows` from `_williamson_modes`.

    A is antisymmetric, so its singular values come in equal pairs, and on
    the span of a pair exp(A t) = cos(sigma t) + sin(sigma t) A / sigma:

        a(t) = sum_j [cos(E t) alpha_j + sin(E t) beta_j / E] (L v_j)^T z(0)

    with alpha_j = g^T v_j, beta_j = g^T A v_j and E the mean sigma of the
    pair of v_j.  At the stability edge g is large along the soft pivot of
    L_s, and the SVD error is not antisymmetric, so no product takes g times
    a computed vector whose soft entry lacks that pivot:
      - beta and the oscillator rows -J_0 L_s^{-T} (A V)_0 of L V come from
        A's oscillator rows, whose soft row carries the pivot (the direct sum
        Y V_b + L_s V_0 cancels);
      - alpha_j = (A g)^T u_j / sigma_j, from A v_j = sigma_j u_j, and
        A g = L^T J (0, c) is free of the pivot;
      - the softest pair, where dividing by sigma fails, takes R_c from the
        t = 0 identity sum_k R_c,k = e_a.
    The bath rows of L V are D^{1/2} V_b.  In w, x = (a + a^dag) / sqrt(2)
    and p = -i (a - a^dag) / sqrt(2).
    """
    will, left, sigma, vt, g = _williamson_modes(m)
    n = m.n_modes
    freqs = 0.5 * (sigma[::2] + sigma[1::2])
    beta = vt @ will[2 * n :].T @ g
    # the rows (L v_j)^T in the columns (a, b_k, a^dag, b_k^dag)
    modes = np.empty((2 * n + 2, 2 * n + 2), dtype=complex)
    modes[:, 0], modes[:, n + 1] = -1j * np.conj(beta), 1j * beta
    root = np.sqrt(0.5 * m.omegas)
    np.multiply(vt[:, :n], root, out=modes[:, 1 : n + 1].real)
    np.multiply(vt[:, n : 2 * n], -root, out=modes[:, 1 : n + 1].imag)
    modes[:, n + 2 :] = np.conj(modes[:, 1 : n + 1])
    weights = np.stack(((will[:, 2 * n :] @ g) @ left / sigma, beta / np.repeat(freqs, 2)))
    del will, left  # so the stack below and the kernel's phase block can reuse their memory
    # pair k: [alpha; beta / E] of its two columns times their two rows is [R_c,k; i R_s,k]
    stack = np.matmul(weights.reshape(2, n + 1, 2).transpose(1, 0, 2), modes.reshape(n + 1, 2, -1))
    r_cos = stack[:, 0]
    r_cos[-1] = -r_cos[:-1].sum(axis=0)
    r_cos[-1, 0] += 1.0
    return freqs, stack


def _quadrature_modes(m: ModelSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normal modes of dx/dt = S_pp p, dp/dt = -S_xx x for real K: (E, X, P).

    S_xx and S_pp are the arrows with diagonal (nu, omega) and borders u + v
    and u - v (see `model`).  With S_xx = L_x L_x^T, S_pp = L_p L_p^T and
    L_x^T L_p = Y E Z^T, X = L_x Y and P = L_p Z.  In xi = Y^T L_x^T x and
    pi = Z^T L_p^T p each pair obeys dxi/dt = E pi, dpi/dt = -E xi.  Back in
    (x, p), x(t) = P E^{-1} xi(t) and p(t) = X E^{-1} pi(t), and xi(0) =
    X^T x, pi(0) = P^T p: no inverse is formed.  X^T P = diag(E), the
    symplectic normalization.  The frequencies, in descending order, are the
    pair frequencies of `_williamson_pairs`; compute_propagator holds
    ||K||_1 / min E against COND_LIMIT.
    """
    forms = np.tile(np.diag(np.concatenate(([m.nu], m.omegas))), (2, 1, 1))
    u, v = m.u.real, m.v.real
    # couplings near the float range can overflow to inf here
    with np.errstate(over="ignore"):
        forms[:, 0, 1:] = forms[:, 1:, 0] = (u + v, u - v)
    chol_x, chol_p = _cholesky(m, forms)
    ys, freqs, zts = np.linalg.svd(chol_x.T @ chol_p)
    return freqs, chol_x @ ys, chol_p @ zts.T


def _quadrature_pairs(
    freqs: np.ndarray, x_modes: np.ndarray, p_modes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(E, stack [R_c; R_s]) of `_trig_rows` from the modes of `_quadrature_modes`.

    With a = (x_0 + i p_0) / sqrt(2), a(t) takes alpha_j = P_0j / E_j of
    xi_j(t) and beta_j = X_0j / E_j of pi_j(t); xi_j(t) = cos xi_j + sin pi_j
    and pi_j(t) = cos pi_j - sin xi_j.  Written in w through x = (a + a^dag)
    / sqrt(2) and p = -i (a - a^dag) / sqrt(2), the a- and a^dag-columns are

        R_c = [alpha X^T + beta P^T, alpha X^T - beta P^T] / 2,
        R_s = -[beta X^T + alpha P^T, beta X^T - alpha P^T] / 2,

    real (N+1) x (2N+2) matrices.  As in `_williamson_pairs`, the softest
    pair, whose 1/E amplifies the SVD's rounding most near the stability
    edge, takes R_c from the t = 0 identity sum_k R_c,k = e_a.
    """
    alpha = (0.5 * p_modes[0] / freqs)[:, None]
    beta = (0.5 * x_modes[0] / freqs)[:, None]
    ax, bx = alpha * x_modes.T, beta * x_modes.T
    ap, bp = alpha * p_modes.T, beta * p_modes.T
    r_cos = np.hstack((ax + bp, ax - bp))
    r_cos[-1] = -r_cos[:-1].sum(axis=0)
    r_cos[-1, 0] += 1.0
    return freqs, np.stack((r_cos, np.hstack((-(bx + ap), ap - bx))), axis=1)


def _trig_rows(t: np.ndarray, freqs: np.ndarray, stack: np.ndarray, out: np.ndarray) -> None:
    """Write the rows cos(E t) @ R_c + i sin(E t) @ R_s, one per grid time, into out.

    The kernel of every route.  stack is the route's (n, 2, W) array, whose
    pair k is the two rows [R_c,k; R_s,k] when they are real (real K; real u,
    v = 0) and [R_c,k; i R_s,k] when they are complex.  The phase table
    exp(i E t) comes one row block at a time from `_phase_blocks`, and each
    block is multiplied straight into its rows of out.  Real stacks take one
    real product each, of the block's real and imaginary parts into out's
    real and imaginary parts (numpy buffers these strided views).  Complex
    ones take one real product of the block's interleaved float view
    [cos_k, sin_k] with the stack, interleaved alike: half the arithmetic of
    a complex product.
    """
    if np.iscomplexobj(stack):
        flat = stack.reshape(2 * freqs.size, -1).view(np.float64)
        for rows, phases in _phase_blocks(t, freqs):
            np.matmul(phases.view(np.float64), flat, out=out[rows].view(np.float64))
        return
    for rows, phases in _phase_blocks(t, freqs):
        np.matmul(phases.real, stack[:, 0], out=out[rows].real)
        np.matmul(phases.imag, stack[:, 1], out=out[rows].imag)


def _phase_blocks(t: np.ndarray, freqs: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """The phase table exp(i E t) of the grid times t, as (rows, block) pairs in grid order.

    Every block is the same reused buffer, overwritten by the next one.  A
    grid is uniform when t[:-1] == arange(T - 1) * t[1] holds exactly, as it
    does for every `TimeGrid.linspace`.  There, from PHASE_TABLE_MIN table
    entries T n on, `_uniform_blocks` fills the table from cos and sin at
    about 2 sqrt(T) n phases.  Smaller tables, where that costs more than it
    saves, and other grids take cos and sin of every phase t E, in
    `_direct_blocks`.
    """
    head = t[:-1]
    if t.size * freqs.size >= PHASE_TABLE_MIN and np.array_equal(
            head, np.arange(head.size) * t[1:2]):
        return _uniform_blocks(t, freqs)
    return _direct_blocks(t, freqs)


def _direct_phases(t: np.ndarray, freqs: np.ndarray, table: np.ndarray) -> None:
    """Write cos(t E) + i sin(t E) of every grid time into table."""
    phase = np.multiply.outer(t, freqs)
    np.cos(phase, out=table.real)
    np.sin(phase, out=table.imag)


def _direct_blocks(t: np.ndarray, freqs: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """`_phase_blocks` of _ROW_BLOCK rows, each phase by cos and sin."""
    phases = np.empty((min(t.size, _ROW_BLOCK), freqs.size), dtype=complex)
    for first in range(0, t.size, _ROW_BLOCK):
        rows = slice(first, min(first + _ROW_BLOCK, t.size))
        block = phases[: rows.stop - first]
        _direct_phases(t[rows], freqs, block)
        yield rows, block


def _uniform_blocks(t: np.ndarray, freqs: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """`_phase_blocks` for a uniform grid, t[i] = i t[1] for i < T - 1, by angle addition.

    With b = ceil(sqrt(T)) the time of row q b + r is the anchor t[q b] plus
    the offset t[r], r < b.  Only the b offsets and the ceil((T - 1) / b)
    anchors take cos and sin; each group of b rows is then the anchor's
    exp(i E t[q b]) times the offsets' exp(i E t[r]):

        cos(x + y) = cos x cos y - sin x sin y,
        sin(x + y) = sin x cos y + cos x sin y.

    A block holds whole groups: as many as fit in _ROW_BLOCK rows, at least
    one.  The last row holds t_max, which `linspace` sets apart from (T - 1)
    t[1], and is evaluated directly.  Against cos and sin of the exact phases
    t E of the stored times, the error is at most 2 eps max|E t| + 4 eps: the
    anchor's and the offset's phases each carry the rounding of a product
    t E, and the stored times the rounding of i t[1].  Direct evaluation
    carries the first alone.
    """
    head = t.size - 1
    span = math.isqrt(head) + 1  # ceil(sqrt(T)), never more than T
    offsets = np.empty((span, freqs.size), dtype=complex)
    _direct_phases(t[:span], freqs, offsets)
    anchors = np.empty(((head + span - 1) // span, freqs.size), dtype=complex)
    _direct_phases(t[:head:span], freqs, anchors)
    height = span * max(1, _ROW_BLOCK // span)
    phases = np.empty((min(t.size, height), freqs.size), dtype=complex)
    for first in range(0, t.size, height):
        rows = slice(first, min(first + height, t.size))
        block = phases[: rows.stop - first]
        lead = block[: head - first]  # the rows before t_max
        full, part = divmod(lead.shape[0], span)
        group = anchors[first // span :]
        np.multiply(group[:full, None], offsets,
                    out=lead[: full * span].reshape(full, span, freqs.size))
        np.multiply(group[full : full + 1], offsets[:part], out=lead[full * span :])
        if rows.stop == t.size:
            _direct_phases(t[head:], freqs, block[head - first :])
        yield rows, block


def row_slice(p: PropagatorCoefficients, i: int) -> slice:
    """The one-row slice of grid index i of p (negative indices count from the end).

    Scalar entry points evaluate the whole-grid row kernels on this slice and
    unwrap the single entry, so they agree bitwise with the series.  An index
    outside p's grid is a ParameterError naming the index and the grid length.
    """
    if not -p.n_times <= i < p.n_times:
        raise ParameterError(f"grid index {i} is outside the grid of {p.n_times} points")
    return slice(i, i + 1 or None)


def sum_rule_defects(p: PropagatorCoefficients) -> np.ndarray:
    """|A|^2 - |C|^2 + sum|B_k|^2 - sum|D_k|^2 - 1 at every grid point.

    Two row-wise dot products on the float view of p.rows, the (a, b_k) half
    minus the (a^dag, b_k^dag) half, minus 1: no complex abs and no (T, N)
    temporaries.  Computed on the first call, which compute_propagator makes
    for its contract check, and kept on p.
    """
    return p._defects


@dataclass
class DecayReport:
    """Late-window coefficient magnitudes, a recurrence-onset estimate and the plateau.

    plateau is the first longest run (i0, i1) of max(|A|, |C|) < `PLATEAU_THRESHOLD`,
    where initial-state memory has decayed; probe is the first index of its least
    max(|A|, |C|), the row that asymptotic values are read at.  Both None without one.
    """

    late_sup_A: float
    late_sup_C: float
    recurrence_onset: float | None
    plateau: tuple[int, int] | None
    probe: int | None


def _local_maxima(y: np.ndarray) -> np.ndarray:
    """Indices i with y[i-1] <= y[i] > y[i+1], plus the final point if rising."""
    idx = np.nonzero((y[1:-1] >= y[:-2]) & (y[1:-1] > y[2:]))[0] + 1
    if y.size >= 2 and y[-1] > y[-2]:
        idx = np.append(idx, y.size - 1)
    return idx


def decay_report(p: PropagatorCoefficients) -> DecayReport:
    """Summarize coefficient decay over the grid.

    The late window is the trailing `LATE_FRACTION` of the grid.  The
    recurrence onset is the first local maximum of |A| at or above
    `DECAY_THRESHOLD` after |A| first drops below it; None when |A| never
    drops below the threshold or never comes back up.
    """
    abs_a = np.abs(p.A)
    abs_c = np.abs(p.C)
    start = int(np.floor((1.0 - LATE_FRACTION) * (abs_a.size - 1)))
    level = np.maximum(abs_a, abs_c)
    runs = np.flatnonzero(np.diff(np.concatenate(([False], level < PLATEAU_THRESHOLD, [False]))))
    plateau = probe = None
    if runs.size:  # run starts and run stops, alternating
        best = int(np.argmax(runs[1::2] - runs[::2]))
        i0, i1 = int(runs[2 * best]), int(runs[2 * best + 1]) - 1
        plateau, probe = (i0, i1), i0 + int(np.argmin(level[i0 : i1 + 1]))
    report = DecayReport(
        late_sup_A=float(abs_a[start:].max()),
        late_sup_C=float(abs_c[start:].max()),
        recurrence_onset=None,
        plateau=plateau,
        probe=probe,
    )
    below = np.nonzero(abs_a < DECAY_THRESHOLD)[0]
    if below.size == 0:
        return report
    first_dip = below[0]
    maxima = _local_maxima(abs_a)
    maxima = maxima[(maxima > first_dip) & (abs_a[maxima] >= DECAY_THRESHOLD)]
    if maxima.size:
        report.recurrence_onset = float(p.grid.t[maxima[0]])
    return report
