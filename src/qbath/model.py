"""Model definition: one oscillator linearly coupled to a finite set of bosonic modes.

The Hamiltonian is

    H = hbar nu a^dag a + sum_k hbar omega_k b_k^dag b_k
        + sum_k hbar (u_k a^dag b_k + u_k^* b_k^dag a)
        + sum_k hbar (v_k a^dag b_k^dag + v_k^* b_k a)

with a single oscillator frequency nu > 0, mode frequencies omega_k > 0,
co-rotating couplings u_k and counter-rotating couplings v_k.  A coupling
family restricts (u, v): "RWA" requires v = 0, "PositionPosition" requires
u = v real (pure x-x coupling), "Custom" accepts both sets verbatim.
ModelSpec alone applies that rule: v = None is the family's v (u for
PositionPosition, else 0), and a given v must obey it.  The couplings come
from a band recipe (SpectralDiscretization, build_model) or explicit arrays.

In the basis w = (a, b_k, a^dag, b_k^dag) all couplings sit in one Hermitian
matrix K.  The quadratic form is h = hbar K / 2 (H = w^dag h w up to a
constant) and the Heisenberg generator is M = -i Sigma K, with
Sigma = diag(+1,...,-1,...) the commutator metric of w.

In the quadratures z = (x, p), with a = (x + i p) / sqrt(2) for the
oscillator and each mode, w = T z with T unitary, and the same form is the
real symmetric S = T^dag K T.  With K = [[Dk, X], [X^*, Dk^*]],

    S_xx = Re(Dk + X),   S_pp = Re(Dk - X),   S_xp = Im(X - Dk),

and the equations of motion read dz/dt = J S z, J = [[0, 1], [-1, 0]].
S_xp = 0 exactly when K is real (real u and v: every PositionPosition model
and real Custom ones); S then splits into two real (N+1) blocks, the arrows
with diagonal (nu, omega) and borders u + v (S_xx) and u - v (S_pp), which
the propagator builds and factors for real K.

Every mode couples to the oscillator and to nothing else, so in the basis
(b_k, b_k^dag, a, a^dag) K is an arrow matrix: D = diag(omega, omega) on the
bath, a 2N x 2 border G, and nu I on (a, a^dag).  The model is stable iff K
(or S) is positive-definite.  For lambda < min omega, K - lambda is
positive-definite iff its 2 x 2 Schur complement

    R(lambda) = (nu - lambda) I - G^dag (D - lambda)^{-1} G

is: the renormalized oscillator of Caldeira and Leggett (Physica A 121, 587
(1983)).  R(lambda) decreases strictly with lambda, and its smaller
eigenvalue is

    nu - lambda - sum_k (|u_k|^2 + |v_k|^2) / (omega_k - lambda)
       - 2 |sum_k u_k v_k / (omega_k - lambda)|.

validate_model takes the smallest eigenvalue of K as the root of that
function, or min omega when that is smaller: O(N) per step, for every
coupling family, with no matrix built.  The propagator factors the same R(0)
for complex K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DataError, ParameterError

__all__ = [
    "CouplingFamily",
    "SpectralFamily",
    "Units",
    "SpectralDiscretization",
    "ModelSpec",
    "spectral_density",
    "build_model",
    "dynamical_matrix",
    "quadratic_form_matrix",
    "validate_model",
]


MAX_SCHUR_STEPS = 100  # cap on the safeguarded Newton steps of validate_model's root
EPS = np.finfo(float).eps


class CouplingFamily(str, Enum):
    RWA = "RWA"
    POSITION_POSITION = "PositionPosition"
    CUSTOM = "Custom"


class SpectralFamily(str, Enum):
    OHMIC_EXP_CUTOFF = "OhmicExpCutoff"
    FLAT_BAND = "FlatBand"
    EXPLICIT = "Explicit"


@dataclass(frozen=True)
class Units:
    """Dimensional constants entering position/momentum observables."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self) -> None:
        if not (self.hbar > 0.0 and np.isfinite(self.hbar)):
            raise ParameterError(f"hbar must be positive and finite, got {self.hbar}")
        if not (self.mass > 0.0 and np.isfinite(self.mass)):
            raise ParameterError(f"mass must be positive and finite, got {self.mass}")


@dataclass
class SpectralDiscretization:
    """Band recipe for the bath frequencies and coupling magnitudes.

    The band [omega_min, omega_max] of a parametric family is split into N
    equal cells; omega_k sits at the cell midpoint and |u_k|^2 = J(omega_k)
    * delta_omega, so couplings scale as 1/sqrt(N) at fixed band.  The
    Explicit family has no recipe (its arrays go straight into ModelSpec).
    """

    family: SpectralFamily
    strength: float = 0.0
    cutoff: float = 1.0
    omega_min: float = 0.0
    omega_max: float = 1.0
    n_modes: int = 1

    def __post_init__(self) -> None:
        self.family = SpectralFamily(self.family)
        if self.family is SpectralFamily.EXPLICIT:
            raise ParameterError(
                "the Explicit family has no band recipe: give its arrays to ModelSpec")
        if self.n_modes < 1:
            raise ParameterError(f"need at least one bath mode, got N={self.n_modes}")
        if self.n_modes > np.iinfo(np.intp).max:
            raise ParameterError(f"N = {self.n_modes} exceeds the largest array size")
        if not (self.omega_max > self.omega_min >= 0.0):
            raise ParameterError(
                f"need omega_max > omega_min >= 0, got [{self.omega_min}, {self.omega_max}]"
            )
        if self.strength < 0.0:
            raise ParameterError(f"strength must be >= 0, got {self.strength}")
        if self.family is SpectralFamily.OHMIC_EXP_CUTOFF and self.cutoff <= 0.0:
            raise ParameterError(f"cutoff must be > 0, got {self.cutoff}")


def spectral_density(disc: SpectralDiscretization, omega: np.ndarray) -> np.ndarray:
    """Evaluate the coupling density J(omega) of a band recipe."""
    omega = np.asarray(omega, dtype=float)
    if disc.family is SpectralFamily.OHMIC_EXP_CUTOFF:
        return disc.strength * omega * np.exp(-omega / disc.cutoff)
    return np.full_like(omega, disc.strength)


@dataclass
class ModelSpec:
    """A fully assembled model: frequencies, couplings, units, coupling family.

    v = None is the family's v (u for PositionPosition, else 0); a given v must obey the family.
    """

    nu: float
    omegas: np.ndarray
    u: np.ndarray
    v: np.ndarray | None = None
    units: Units = field(default_factory=Units)
    coupling_family: CouplingFamily = CouplingFamily.CUSTOM

    def __post_init__(self) -> None:
        self.coupling_family = CouplingFamily(self.coupling_family)
        self.omegas = np.atleast_1d(np.asarray(self.omegas, dtype=float))
        self.u = np.atleast_1d(np.asarray(self.u, dtype=complex))
        if self.v is None:
            pp = self.coupling_family is CouplingFamily.POSITION_POSITION
            self.v = self.u if pp else np.zeros_like(self.u)
        self.v = np.atleast_1d(np.asarray(self.v, dtype=complex))
        if not (self.omegas.shape == self.u.shape == self.v.shape):
            raise ParameterError("omegas, u, v must have matching shapes")
        if self.omegas.ndim != 1 or self.omegas.size < 1:
            raise ParameterError("need a one-dimensional, non-empty mode list")
        for name, arr in (("omegas", self.omegas), ("u", self.u), ("v", self.v)):
            if not np.all(np.isfinite(arr)):
                raise DataError(f"non-finite entries in {name}")
        if not (np.isfinite(self.nu) and self.nu > 0.0):
            raise ParameterError(f"nu must be positive and finite, got {self.nu}")
        if np.any(self.omegas <= 0.0):
            raise ParameterError("all mode frequencies must be positive")
        if self.coupling_family is CouplingFamily.RWA and np.any(self.v != 0.0):
            raise ParameterError("RWA family requires v_k = 0")
        if self.coupling_family is CouplingFamily.POSITION_POSITION:
            if np.any(self.u != self.v) or np.any(self.u.imag != 0.0):
                raise ParameterError("PositionPosition family requires u_k = v_k, both real")

    @property
    def n_modes(self) -> int:
        return self.omegas.size


def build_model(
    disc: SpectralDiscretization,
    nu: float,
    family: CouplingFamily | str,
    units: Units | None = None,
) -> ModelSpec:
    """Assemble a ModelSpec from a band recipe.

    omega_k sits at the cell midpoints and u_k = sqrt(J(omega_k) * delta_omega)
    is real; v_k is left to ModelSpec, which takes the coupling family's.  The
    Custom coupling family needs explicit u and v, so it has no band recipe.
    """
    family = CouplingFamily(family)
    if family is CouplingFamily.CUSTOM:
        raise ParameterError(
            "Custom coupling family needs explicit u and v arrays; "
            "use the Explicit spectral family"
        )
    delta = (disc.omega_max - disc.omega_min) / disc.n_modes
    omegas = disc.omega_min + (np.arange(disc.n_modes) + 0.5) * delta
    # a band or strength near the float range overflows here; ModelSpec rejects the result
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.sqrt(spectral_density(disc, omegas) * delta).astype(complex)
    return ModelSpec(nu=nu, omegas=omegas, u=u, units=units or Units(), coupling_family=family)


def _number_block(m: ModelSpec) -> np.ndarray:
    """Hermitian block Dk = [[nu, u], [u^dag, diag omega]] acting on (a, b_k)."""
    dk = np.diag(np.concatenate(([m.nu], m.omegas))).astype(complex)
    dk[0, 1:] = m.u
    dk[1:, 0] = np.conj(m.u)
    return dk


def _coupling_matrix(m: ModelSpec) -> np.ndarray:
    """Hermitian coupling matrix K = [[Dk, X], [X^*, Dk^*]] in the basis w.

    Basis ordering w = (a, b_k, a^dag, b_k^dag): index 0 is a, 1..N are b_k,
    N+1 is a^dag, N+2..2N+1 are b_k^dag.  Dk = [[nu, u], [u^dag, diag omega]]
    couples (a, b_k) among themselves and X = [[0, v], [v^T, 0]] (symmetric)
    couples them to the daggered operators.
    """
    n = m.n_modes
    dk = _number_block(m)
    x = np.zeros((n + 1, n + 1), dtype=complex)
    x[0, 1:] = m.v
    x[1:, 0] = m.v
    return np.block([[dk, x], [np.conj(x), np.conj(dk)]])


def dynamical_matrix(m: ModelSpec) -> np.ndarray:
    """Generator M = -i Sigma K of the Heisenberg equations d/dt w = M w.

    K is the coupling matrix of `quadratic_form_matrix` (h = hbar K / 2) and
    Sigma = diag(+1,...,-1,...) with one sign per basis entry of w.  The
    daggered block is the elementwise complex conjugate of the undaggered one,
    and M = -Sigma M^dag Sigma.
    """
    n = m.n_modes
    mat = -1j * _coupling_matrix(m)
    # Sigma as an exact negation: a float multiply would flip signed zeros,
    # which the Householder sign choices inside eig read (rows move by ~1e-14)
    mat[n + 1 :] = -mat[n + 1 :]
    return mat


def quadratic_form_matrix(m: ModelSpec) -> np.ndarray:
    """Hermitian coefficient matrix h = hbar K / 2 of H = w^dag h w.

    Each quadratic monomial is split evenly between its two Hermitian-conjugate
    placements, so the diagonal carries half frequencies; the ground-state
    offset dropped in the splitting is irrelevant to dynamics.
    """
    return (m.units.hbar / 2.0) * _coupling_matrix(m)


def _schur_min_at_zero(nu: float, omegas: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """f(0) of `_schur_root` from the stored floats in exact rational arithmetic, then rounded.

    With d = nu - sum |.|^2 / omega and c = 2 sum u v / omega, f(0) = d - |c|,
    taken as (d^2 - |c|^2) / (d + |c|) when d > 0, so that its sign is exact.
    """
    # imported here: only models within rounding of the stability edge get here
    from fractions import Fraction

    d, c_re, c_im = Fraction(nu), Fraction(0), Fraction(0)
    for w, a, b in zip(omegas.tolist(), u.tolist(), v.tolist()):
        a_re, a_im, b_re, b_im = map(Fraction, (a.real, a.imag, b.real, b.imag))
        inv = 1 / Fraction(w)
        d -= (a_re * a_re + a_im * a_im + b_re * b_re + b_im * b_im) * inv
        c_re += 2 * (a_re * b_re - a_im * b_im) * inv
        c_im += 2 * (a_re * b_im + a_im * b_re) * inv
    size = math.hypot(c_re, c_im)
    if d <= 0:
        return float(d) - size
    return float(d * d - c_re * c_re - c_im * c_im) / (float(d) + size)


def _schur_root(nu: float, omegas: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """The root lam of f(lam) = lambda_min(R(lam)) on (-inf, min omega), over the coupled modes.

    f = nu - lam - sum w / (omega - lam) - |sum x / (omega - lam)|, with
    w = |u|^2 + |v|^2 >= |x| = 2 |u v| (module docstring), is strictly
    decreasing there and falls to -inf at min omega, so the root exists and
    is unique.  Newton steps run on h = f (min omega - lam), which has the
    same root and no pole: with r = (min omega - lam) / (omega - lam) in
    (0, 1], h = (nu - lam)(min omega - lam) - sum w r - |sum x r|; where h
    does not fall, the step is f's.  A step that leaves the bracket
    [lo, min omega), lo the Gershgorin bound less 1 (scaled K), or that is
    not below half the last one, bisects the bracket instead.  lam = 0 comes
    first, so the root takes the sign of f(0); where f(0) is within its
    rounding of 0 it is taken in exact arithmetic, so that sign is exact.
    The iteration ends on a step below the rounding of h.
    """
    weight = u.real**2 + u.imag**2 + v.real**2 + v.imag**2
    mix = 2.0 * u * v
    reach = np.abs(u) + np.abs(v)
    lo = min(nu - reach.sum(), np.min(omegas - reach)) - 1.0  # f(lo) >= 1
    hi = pole = omegas.min()
    lam, last = 0.0, np.inf
    for _ in range(MAX_SCHUR_STEPS):
        gap = pole - lam
        inv = 1.0 / (omegas - lam)
        ratio = gap * inv
        mixed = mix @ ratio
        size = abs(mixed)
        pull = weight @ ratio + size
        h = (nu - lam) * gap - pull
        noise = (omegas.size + 12) * EPS * (abs(nu - lam) * gap + pull)
        if lam == 0.0 and abs(h) <= noise:
            h = gap * _schur_min_at_zero(nu, omegas, u, v)
        if h == 0.0:
            return lam
        if h > 0.0:
            lo = lam
        else:
            hi = lam
        inv *= 1.0 - ratio  # -dr/dlam
        slope = lam - nu - gap + weight @ inv
        if size > 0.0:
            slope += (mixed.conjugate() * (mix @ inv)).real / size
        if slope >= 0.0:  # far from the root h need not fall, but f always does: step on f
            slope += h / gap
        step = h / slope
        if abs(step) <= max(noise / -slope, 4.0 * EPS * abs(lam)):
            return lam - step if lo < lam - step < hi else lam
        if lo < lam - step < hi and abs(step) <= 0.5 * last:
            lam -= step
        else:  # out of the bracket, or not converging: bisect
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                return lam
            step, lam = lam - mid, mid
        last = abs(step)
    return lam


def validate_model(m: ModelSpec) -> float:
    """Smallest eigenvalue of the quadratic form h = hbar K / 2; the model is stable iff > 0.

    The smallest eigenvalue of K is the smaller of min omega and the root of
    lambda_min(R(lambda)) (module docstring) over the coupled modes; no
    matrix is built.  K is scaled by a power of two first, so that squared
    couplings neither overflow nor lose bits.
    """
    _, exponent = np.frexp(max(m.nu, m.omegas.max(), np.abs(m.u).max(), np.abs(m.v).max()))
    scale = math.ldexp(1.0, int(exponent) - 1)  # the largest entry scales into [1, 2)
    nu, omegas, u, v = m.nu / scale, m.omegas / scale, m.u / scale, m.v / scale
    coupled = (u != 0.0) | (v != 0.0)
    root = _schur_root(nu, omegas[coupled], u[coupled], v[coupled]) if coupled.any() else nu
    bound = m.units.hbar / 2.0 * scale * min(root, omegas.min())
    if not np.isfinite(bound):
        raise DataError("the quadratic form overflows: non-finite smallest eigenvalue")
    return float(bound)
