"""Model definition: one oscillator linearly coupled to a finite set of bosonic modes.

The Hamiltonian is

    H = hbar nu a^dag a + sum_k hbar omega_k b_k^dag b_k
        + sum_k hbar (u_k a^dag b_k + u_k^* b_k^dag a)
        + sum_k hbar (v_k a^dag b_k^dag + v_k^* b_k a)

with a single oscillator frequency nu > 0, mode frequencies omega_k > 0,
co-rotating couplings u_k and counter-rotating couplings v_k.  A coupling
family restricts (u, v): "RWA" forces v = 0, "PositionPosition" forces
u = v real (pure x-x coupling), "Custom" accepts both sets verbatim.

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
and real Custom ones); S then splits into two real (N+1) blocks.

Stability (S, or K, positive-definite) is decided on the smallest matrices
the structure allows, all real whenever they can be:

  v = 0          Dk, the (N+1) block of (a, b_k); K = Dk (+) Dk^*.
  real K         S_xx and S_pp, two real (N+1) blocks.
  complex K      the real (2N+2) S.
"""

from __future__ import annotations

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
    """Recipe for the bath frequencies and coupling magnitudes.

    For the parametric families the band [omega_min, omega_max] is split into
    N equal cells; omega_k sits at the cell midpoint and |u_k|^2 = J(omega_k)
    * delta_omega, so couplings scale as 1/sqrt(N) at fixed band.  For the
    Explicit family the arrays are supplied verbatim and the band parameters
    are ignored.
    """

    family: SpectralFamily
    strength: float = 0.0
    cutoff: float = 1.0
    omega_min: float = 0.0
    omega_max: float = 1.0
    n_modes: int = 1
    omegas: np.ndarray | None = None
    u: np.ndarray | None = None
    v: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.family = SpectralFamily(self.family)
        if self.family is SpectralFamily.EXPLICIT:
            if self.omegas is None or self.u is None:
                raise ParameterError("Explicit discretization requires omegas and u arrays")
            self.omegas = np.asarray(self.omegas, dtype=float)
            self.u = np.asarray(self.u, dtype=complex)
            if self.v is None:
                self.v = np.zeros_like(self.u)
            self.v = np.asarray(self.v, dtype=complex)
            if not (self.omegas.shape == self.u.shape == self.v.shape):
                raise ParameterError("explicit omegas, u, v must have matching shapes")
            self.n_modes = self.omegas.size
        else:
            if self.n_modes < 1:
                raise ParameterError(f"need at least one bath mode, got N={self.n_modes}")
            if not (self.omega_max > self.omega_min >= 0.0):
                raise ParameterError(
                    f"need omega_max > omega_min >= 0, got [{self.omega_min}, {self.omega_max}]"
                )
            if self.strength < 0.0:
                raise ParameterError(f"strength must be >= 0, got {self.strength}")
            if self.family is SpectralFamily.OHMIC_EXP_CUTOFF and self.cutoff <= 0.0:
                raise ParameterError(f"cutoff must be > 0, got {self.cutoff}")


def spectral_density(disc: SpectralDiscretization, omega: np.ndarray) -> np.ndarray:
    """Evaluate the coupling density J(omega) of a parametric family."""
    omega = np.asarray(omega, dtype=float)
    if disc.family is SpectralFamily.OHMIC_EXP_CUTOFF:
        return disc.strength * omega * np.exp(-omega / disc.cutoff)
    if disc.family is SpectralFamily.FLAT_BAND:
        return np.full_like(omega, disc.strength)
    raise ParameterError("spectral_density is undefined for the Explicit family")


@dataclass
class ModelSpec:
    """A fully assembled model: frequencies, couplings, units, coupling family."""

    nu: float
    omegas: np.ndarray
    u: np.ndarray
    v: np.ndarray
    units: Units = field(default_factory=Units)
    coupling_family: CouplingFamily = CouplingFamily.CUSTOM

    def __post_init__(self) -> None:
        self.coupling_family = CouplingFamily(self.coupling_family)
        self.omegas = np.atleast_1d(np.asarray(self.omegas, dtype=float))
        self.u = np.atleast_1d(np.asarray(self.u, dtype=complex))
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
    """Assemble a ModelSpec from a discretization recipe.

    Parametric families place omega_k at cell midpoints and set
    u_k = sqrt(J(omega_k) * delta_omega) real; v_k then follows the coupling
    family (0 for RWA, u_k for PositionPosition).  The Custom coupling family
    requires the Explicit discretization, where u and v are given verbatim.
    """
    family = CouplingFamily(family)
    units = units if units is not None else Units()
    if disc.family is SpectralFamily.EXPLICIT:
        omegas = disc.omegas
        u = disc.u
        v = disc.v
        if family is CouplingFamily.RWA:
            v = np.zeros_like(u)
        elif family is CouplingFamily.POSITION_POSITION:
            v = u
    else:
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
        v = np.zeros_like(u) if family is CouplingFamily.RWA else u
    return ModelSpec(nu=nu, omegas=omegas, u=u, v=v, units=units, coupling_family=family)


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


def _has_real_couplings(m: ModelSpec) -> bool:
    """True when K is real: neither u nor v has an imaginary part."""
    return not (m.u.imag.any() or m.v.imag.any())


def _arrow(diag: np.ndarray, row: np.ndarray, col: np.ndarray) -> np.ndarray:
    """The matrix diag(diag) with row 0 and column 0 past the diagonal set to row, col."""
    s = np.diag(diag)
    s[0, 1:] = row
    s[1:, 0] = col
    return s


def _stability_blocks(m: ModelSpec) -> list[np.ndarray]:
    """Real-when-possible Hermitian matrices whose smallest eigenvalue is K's.

    Dk for v = 0, [S_xx, S_pp] for real K, the (2N+2) S otherwise (module
    docstring); each has no more rows than it needs.  Couplings near the
    float range can overflow to inf here, which validate_model rejects.
    """
    if not m.v.any():
        dk = _number_block(m)
        return [dk if dk.imag.any() else dk.real.copy()]
    freqs = np.concatenate(([m.nu], m.omegas))
    u, v = m.u, m.v
    with np.errstate(over="ignore"):
        sxx = _arrow(freqs, u.real + v.real, u.real + v.real)
        spp = _arrow(freqs, u.real - v.real, u.real - v.real)
        if _has_real_couplings(m):
            return [sxx, spp]
        sxp = _arrow(np.zeros(freqs.size), v.imag - u.imag, v.imag + u.imag)
    return [np.block([[sxx, sxp], [sxp.T, spp]])]


def validate_model(m: ModelSpec) -> float:
    """Smallest eigenvalue of the quadratic form; the model is stable iff > 0.

    The eigenvalues are those of (hbar / 2) times the `_stability_blocks`,
    whose joint spectrum holds the smallest eigenvalue of the full
    quadratic-form matrix: T is unitary, so S has the spectrum of K.
    """
    half = m.units.hbar / 2.0
    bound = np.inf
    for block in _stability_blocks(m):
        h = half * block
        if not np.all(np.isfinite(h)):
            raise DataError("non-finite entries in the quadratic form matrix")
        bound = min(bound, float(np.linalg.eigvalsh(h)[0]))
    return bound
