"""Initial oscillator states and their characteristic functions.

Every state exposes chi0(w) = <exp(w a^dag - w^* a)> together with its
Wirtinger derivatives in (w, w^*), and first/second moments of (a, a^dag).
Gaussian states are carried by their moments; a squeezed-displaced pure state
is a special case; cat states (superpositions of two coherent states) are the
non-Gaussian branch.  States are frozen and carry the constants every
evaluation needs, computed once at construction: a squeezed state its
GaussianMoments, a cat its four lobe overlaps <g|d> and its norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, PhysicalityError

__all__ = [
    "GaussianMoments",
    "SqueezedDisplaced",
    "CatState",
    "OscillatorState",
    "is_gaussian",
    "initial_moments",
    "central_moments",
    "gaussian_chi_params",
    "gaussian_chi_discriminant",
    "gaussian_exponent",
    "gaussian_exponent_wirtinger",
    "carried_gaussian_params",
    "chi0_eval",
    "chi0_wirtinger",
    "coherent_overlap",
    "vacuum_state",
]

_PHYS_TOL = 1e-12


@dataclass(frozen=True)
class GaussianMoments:
    """Gaussian state specified by <a>, <a^dag a>, <a a>.

    The central moments n_c = n_ex - |mean_a|^2 and c_aa = aa - mean_a^2
    are kept beside the raw ones.  They are formed by subtraction unless
    given: the subtraction cancels for a large mean, so a state that knows
    them in closed form (SqueezedDisplaced) passes them.  Construction
    enforces the single-mode covariance bound (n_c + 1/2)^2 >= 1/4 + |c_aa|^2
    and n_c >= 0 on the central moments.  Both hold to _PHYS_TOL relative to
    the larger of 1 and the size of the terms, (n_c + 1/2)^2 and n_ex: a pure
    state sits on the bound, and its rounding grows with its moments.
    Moments whose squares overflow are a ParameterError.
    """

    mean_a: complex = 0.0 + 0.0j
    n_ex: float = 0.0
    aa: complex = 0.0 + 0.0j
    n_c: float | None = field(default=None, repr=False)
    c_aa: complex | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean_a", complex(self.mean_a))
        object.__setattr__(self, "n_ex", float(self.n_ex))
        object.__setattr__(self, "aa", complex(self.aa))
        try:
            n_c = self.n_ex - abs(self.mean_a) ** 2 if self.n_c is None else float(self.n_c)
            c_aa = self.aa - self.mean_a**2 if self.c_aa is None else complex(self.c_aa)
        except OverflowError:  # a mean whose square is past the float range
            n_c, c_aa = -math.inf, complex(math.inf)
        object.__setattr__(self, "n_c", n_c)
        object.__setattr__(self, "c_aa", c_aa)
        # products, not ** 2: a float square past the range is inf, not an OverflowError
        spread = (n_c + 0.5) * (n_c + 0.5)
        bound = 0.25 + abs(c_aa) * abs(c_aa)
        if not (math.isfinite(spread) and math.isfinite(bound)):
            raise ParameterError(
                f"Gaussian moments overflow: n_ex = {self.n_ex:.3e}, |aa| = {abs(self.aa):.3e}"
            )
        if n_c < -_PHYS_TOL * max(1.0, self.n_ex):
            raise PhysicalityError(f"negative central occupation n_c = {n_c:.3e}")
        if spread + _PHYS_TOL * max(1.0, spread) < bound:
            raise PhysicalityError(
                f"covariance bound violated: (n_c+1/2)^2 = {spread:.6e} "
                f"< 1/4 + |c_aa|^2 = {bound:.6e}"
            )


@dataclass(frozen=True)
class SqueezedDisplaced:
    """Pure state D(disp) S(r e^{2 i phi}) |0>."""

    disp: complex = 0.0 + 0.0j
    r: float = 0.0
    phi: float = 0.0
    moments: GaussianMoments = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "disp", complex(self.disp))
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "phi", float(self.phi))
        if self.r < 0.0 or not math.isfinite(self.r):
            raise ParameterError(f"squeezing magnitude must be >= 0, got {self.r}")
        try:
            sh, ch = math.sinh(self.r), math.cosh(self.r)
        except OverflowError:
            raise ParameterError(f"squeezing magnitude {self.r} overflows the moments") from None
        # hypot and a product, not abs and ** 2: past the range they give inf, not an
        # OverflowError
        size = math.hypot(self.disp.real, self.disp.imag)
        if not math.isfinite(size * size):
            raise ParameterError(f"displacement past the float range: |disp| = {size:.3e}")
        # Python floats and complex, not numpy scalars: moments that overflow come out
        # as inf without a warning, and GaussianMoments refuses them
        squeeze = complex(math.cos(2 * self.phi), math.sin(2 * self.phi)) * sh * ch
        moments = GaussianMoments(
            mean_a=self.disp,
            n_ex=abs(self.disp) ** 2 + sh * sh,
            aa=self.disp**2 - squeeze,
            n_c=sh * sh,
            c_aa=-squeeze,
        )
        object.__setattr__(self, "moments", moments)

    def to_gaussian_moments(self) -> GaussianMoments:
        return self.moments


@dataclass(frozen=True)
class CatState:
    """Normalized superposition (|alpha> + |beta>)/sqrt(2 + 2 Re<alpha|beta>).

    overlaps holds <g|d> for (g, d) = (alpha, alpha), (alpha, beta),
    (beta, alpha), (beta, beta), in that order.  Lobes whose squares overflow
    are a ParameterError.
    """

    alpha: complex
    beta: complex
    overlaps: tuple[complex, ...] = field(init=False, repr=False, compare=False)
    norm_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        _check_lobes(self.alpha, self.beta)
        lobes = (self.alpha, self.beta)
        overlaps = tuple(coherent_overlap(g, d) for g in lobes for d in lobes)
        object.__setattr__(self, "overlaps", overlaps)
        object.__setattr__(self, "norm_sq", 2.0 + 2.0 * float(np.real(overlaps[1])))
        if self.norm_sq < 1e-12:
            raise ParameterError("cat state norm vanishes (destructive overlap)")

    @property
    def overlap(self) -> complex:
        """<alpha|beta>."""
        return self.overlaps[1]


OscillatorState = GaussianMoments | SqueezedDisplaced | CatState


def _check_lobes(alpha: complex, beta: complex) -> None:
    """ParameterError when |alpha|^2, |beta|^2 or |alpha - beta|^2 is past the float range."""
    # hypot and products, not abs and ** 2: past the range they give inf, not an OverflowError
    sizes = [math.hypot(g.real, g.imag) for g in (alpha, beta, alpha - beta)]
    if not all(math.isfinite(r * r) for r in sizes):
        raise ParameterError(
            f"cat lobes past the float range: |alpha| = {sizes[0]:.3e}, |beta| = {sizes[1]:.3e}"
        )


def coherent_overlap(g: complex, d: complex) -> complex:
    """<g|d> = exp(-|g|^2/2 - |d|^2/2 + g^* d)."""
    return complex(np.exp(-0.5 * abs(g) ** 2 - 0.5 * abs(d) ** 2 + np.conj(g) * d))


def vacuum_state() -> GaussianMoments:
    return GaussianMoments(0.0, 0.0, 0.0)


def is_gaussian(s: OscillatorState) -> bool:
    return isinstance(s, (GaussianMoments, SqueezedDisplaced))


def _as_moments(s: OscillatorState) -> GaussianMoments:
    return s.to_gaussian_moments() if isinstance(s, SqueezedDisplaced) else s


def initial_moments(s: OscillatorState) -> tuple[complex, float, complex]:
    """(<a>, <a^dag a>, <a a>) of the initial state."""
    if isinstance(s, CatState):
        ov = s.overlap
        ov_c = np.conj(ov)
        nsq = s.norm_sq
        a, b = s.alpha, s.beta
        mean_a = (a + b + b * ov + a * ov_c) / nsq
        n_ex = (abs(a) ** 2 + abs(b) ** 2 + np.conj(a) * b * ov + np.conj(b) * a * ov_c) / nsq
        aa = (a**2 + b**2 + b**2 * ov + a**2 * ov_c) / nsq
        return complex(mean_a), float(np.real(n_ex)), complex(aa)
    mom = _as_moments(s)
    return mom.mean_a, mom.n_ex, mom.aa


def central_moments(s: OscillatorState) -> tuple[float, complex]:
    """(n_c, c_aa): second moments with the mean subtracted; a Gaussian state keeps its own."""
    if is_gaussian(s):
        mom = _as_moments(s)
        return mom.n_c, mom.c_aa
    mean_a, n_ex, aa = initial_moments(s)
    return n_ex - abs(mean_a) ** 2, aa - mean_a**2


def gaussian_chi_params(s: OscillatorState) -> tuple[complex, float, complex]:
    """(d0, a0, g0) with chi0(w) = exp(d0^* w - d0 w^* - a0 |w|^2 + g0^* w^2 + g0 w^*2)."""
    if not is_gaussian(s):
        raise ParameterError("state is not Gaussian")
    mom = _as_moments(s)
    return mom.mean_a, mom.n_c + 0.5, mom.c_aa / 2.0


def gaussian_chi_discriminant(s: OscillatorState) -> float:
    """a0^2 - 4 |g0|^2 of gaussian_chi_params(s), from the state's own parameters.

    It is (n_c + 1/2)^2 - |c_aa|^2, which a pure state holds at 1/4.  A
    SqueezedDisplaced state gives 1/4 exactly: its moments grow as e^{2r},
    and their difference would cancel to rounding.
    """
    if isinstance(s, SqueezedDisplaced):
        return 0.25
    if not is_gaussian(s):
        raise ParameterError("state is not Gaussian")
    spread, c_aa = s.n_c + 0.5, abs(s.c_aa)
    return (spread - c_aa) * (spread + c_aa)


def gaussian_exponent(d, a, g, eta):
    """Q(eta) = d^* eta - d eta^* - a |eta|^2 + g^* eta^2 + g eta^*2."""
    return (
        np.conj(d) * eta
        - d * np.conj(eta)
        - a * np.abs(eta) ** 2
        + np.conj(g) * eta**2
        + g * np.conj(eta) ** 2
    )


def gaussian_exponent_wirtinger(d, a, g, eta):
    """(dQ/deta, dQ/deta^*) of the Gaussian exponent, eta and eta^* independent."""
    eta_c = np.conj(eta)
    return np.conj(d) - a * eta_c + 2.0 * np.conj(g) * eta, -d - a * eta + 2.0 * g * eta_c


def carried_gaussian_params(d0, a0, g0, a_t, c_t):
    """(d, a, g) of chi0(eta A^* - eta^* C) for chi0 with parameters (d0, a0, g0)."""
    d = d0 * a_t + np.conj(d0) * c_t
    a = a0 * (np.abs(a_t) ** 2 + np.abs(c_t) ** 2) + 4.0 * np.real(g0 * a_t * np.conj(c_t))
    g = a0 * a_t * c_t + g0 * a_t**2 + np.conj(g0) * c_t**2
    return d, a, g


def _cat_terms(s: CatState, w: np.ndarray):
    """Yield (term, g^*, d) of the four displacement overlaps.

    <g|D(w)|d> = <g|d> exp(-|w|^2/2 + g^* w - d w^*), summed over
    (g, d) in {alpha, beta}^2, with <g|d> stored in s.overlaps.  The
    exponent's imaginary part is Im(g^* w) + Im(d^* w), so the four terms
    share two phases cis(Im alpha^* w) and cis(Im beta^* w); its real part
    -|w|^2/2 + Re(g^* w) - Re(d^* w) is at most |g - d|^2/2, which exp can
    overflow once |g - d|^2 is above about 1418.
    """
    lobes = (s.alpha, s.beta)
    env = -0.5 * np.abs(w) ** 2
    gw = [np.conj(g) * w for g in lobes]
    phases = [np.empty(w.shape, dtype=complex) for _ in lobes]
    for x, phase in zip(gw, phases):
        np.cos(x.imag, out=phase.real)
        np.sin(x.imag, out=phase.imag)
    for a, g in enumerate(lobes):
        for b, d in enumerate(lobes):
            real = np.exp(env + gw[a].real - gw[b].real)
            yield s.overlaps[2 * a + b] * real * (phases[a] * phases[b]), np.conj(g), d


def chi0_eval(s: OscillatorState, w: np.ndarray) -> np.ndarray:
    """chi0 evaluated at an array of complex arguments."""
    w = np.asarray(w, dtype=complex)
    if isinstance(s, CatState):
        return sum(term for term, _, _ in _cat_terms(s, w)) / s.norm_sq
    return np.exp(gaussian_exponent(*gaussian_chi_params(s), w))


def chi0_wirtinger(
    s: OscillatorState, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(chi0, d chi0/dw, d chi0/dw^*) treating w and w^* as independent."""
    w = np.asarray(w, dtype=complex)
    if isinstance(s, CatState):
        val = np.zeros(w.shape, dtype=complex)
        dw = np.zeros(w.shape, dtype=complex)
        dwb = np.zeros(w.shape, dtype=complex)
        for term, gc, d in _cat_terms(s, w):
            val += term
            dw += term * (gc - 0.5 * np.conj(w))
            dwb += term * (-d - 0.5 * w)
        n = s.norm_sq
        return val / n, dw / n, dwb / n
    val = chi0_eval(s, w)
    dq_w, dq_wb = gaussian_exponent_wirtinger(*gaussian_chi_params(s), w)
    return val, val * dq_w, val * dq_wb
