"""Closed-form purity references for number-conserving couplings.

When v_k = 0 the dagger sector decouples (C = D = 0) and, with the bath in
vacuum, the reduced state depends on time only through the survival
probability s = |A(t)|^2.  For two families of initial states the purity is
then available in closed form:

  squeezed (optionally displaced) vacuum, squeeze parameter r:
      P(s) = 1 / sqrt(1 + 4 s (1 - s) sinh(r)^2)
  superposition of coherent states alpha, beta (overlap <alpha|beta> = R e^{i phi}):
      P(s) = 1 + (2 / N^2) (e^{-(1-s) d^2} + e^{-s d^2} - e^{-d^2} - 1),
      d^2 = |alpha - beta|^2,  N = 2 + 2 R cos(phi);
      at s = 1/2 this reduces to 1 - (1-R)^2 / (2 (1 + R cos phi)^2).

Both are symmetric under s <-> 1 - s with the minimum at s = 1/2, and the
superposition purity never drops below 1/2.  The forms take s directly, not
time, so any decaying trajectory can be compared against them; they are
derived independently of the characteristic-function machinery, making the
comparison a nontrivial cross-check of the whole pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .states import _check_lobes, coherent_overlap

__all__ = [
    "purity_squeezed_rwa",
    "purity_cat_rwa",
    "MinPurityReport",
    "first_min_index",
    "min_purity_check",
]

N_PAIRS = 101  # (s, 1 - s) probe pairs of the min_purity_check symmetry defect
MIN_TIE_TOL = 1e-12  # relative width of the band counted as the minimum


def _check_survival(absA2: float) -> float:
    s = float(absA2)
    if not 0.0 <= s <= 1.0:
        raise ParameterError(f"|A|^2 must lie in [0, 1], got {s}")
    return s


def purity_squeezed_rwa(absA2: float, r: float) -> float:
    """Purity of an initially squeezed state after losing 1 - |A|^2 of its weight.

    A displacement of the initial state drops out: it shifts the mean but not
    the covariance, and purity is a covariance functional.
    """
    s = _check_survival(absA2)
    return 1.0 / math.sqrt(1.0 + 4.0 * s * (1.0 - s) * math.sinh(r) ** 2)


def purity_cat_rwa(absA2: float, alpha: complex, beta: complex) -> float:
    """Purity of an initial (|alpha> + |beta>)/sqrt(N) superposition."""
    s = _check_survival(absA2)
    _check_lobes(alpha, beta)
    d2 = abs(alpha - beta) ** 2
    norm = 2.0 + 2.0 * coherent_overlap(alpha, beta).real
    if norm < 1e-12:
        raise ParameterError("superposition components nearly cancel")
    return 1.0 + (2.0 / norm**2) * (
        math.exp(-(1.0 - s) * d2) + math.exp(-s * d2) - math.exp(-d2) - 1.0
    )


@dataclass
class MinPurityReport:
    """Where a purity series bottoms out, and how symmetric it is in |A|^2."""

    index_min: int
    absA2_min: float
    purity_min: float
    symmetry_defect: float


def first_min_index(values) -> int:
    """First index whose value lies within MIN_TIE_TOL max(1, |min|) of the minimum.

    A bare argmin lets round-off choose among minima that are tied exactly,
    such as the two |A|^2 = 1/2 points per exchange period of a resonant pair.
    """
    v = np.asarray(values, dtype=float)
    low = float(v.min())
    return int(np.argmax(v <= low + MIN_TIE_TOL * max(1.0, abs(low))))


def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """Three-point end slope, clamped so the end cell stays monotone."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(x: np.ndarray, y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Monotone piecewise-cubic Hermite curve through (x, y), evaluated at s.

    x is strictly increasing with at least three knots.  The slopes are
    Fritsch-Carlson's (F. N. Fritsch and R. E. Carlson, SIAM J. Numer. Anal.
    17, 238 (1980)) in the form scipy's PchipInterpolator uses: a weighted
    harmonic mean of the neighbouring secants inside, 0 where they differ in
    sign or one vanishes, and the clamped three-point formula at both ends.
    Points outside [x[0], x[-1]] continue the end cubics.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = (w1 + w2) / (w1 / m[:-1] + w2 / m[1:])
    d = np.concatenate([
        [_end_slope(h[0], h[1], m[0], m[1])],
        np.where(flat, 0.0, inner),
        [_end_slope(h[-1], h[-2], m[-1], m[-2])],
    ])
    j = np.clip(np.searchsorted(x, s, side="right") - 1, 0, x.size - 2)
    t = s - x[j]
    c2 = (3.0 * m[j] - 2.0 * d[j] - d[j + 1]) / h[j]
    c3 = (d[j] + d[j + 1] - 2.0 * m[j]) / h[j] ** 2
    return y[j] + t * (d[j] + t * (c2 + t * c3))


def min_purity_check(purity_series, absA2_series) -> MinPurityReport:
    """Locate the purity minimum along a trajectory and test s <-> 1-s symmetry.

    The series is re-parametrized by s = |A|^2 via monotone interpolation of
    the sampled (s, purity) pairs; the symmetry defect is
    sup |P(s) - P(1-s)| over `N_PAIRS` pairs both of which fall in the sampled range.
    The defect is resolution-limited: it reflects interpolation error on
    coarse grids even when the underlying curve is exactly symmetric.
    index_min is the first_min_index of the purity series.
    """
    pur = np.asarray(purity_series, dtype=float)
    surv = np.asarray(absA2_series, dtype=float)
    if pur.shape != surv.shape or pur.ndim != 1 or pur.size == 0:
        raise ParameterError("purity and |A|^2 series must be equal-length 1-d arrays")
    i_min = first_min_index(pur)

    order = np.argsort(surv)
    x_sorted, y_sorted = surv[order], pur[order]
    # merge near-coincident knots (mirror times land on the same |A|^2 up to
    # rounding); degenerate cells would poison the interpolant's slopes
    groups = np.concatenate([[0], np.cumsum(np.diff(x_sorted) > 1e-9)])
    counts = np.bincount(groups)
    x_all = np.bincount(groups, weights=x_sorted) / counts
    y_all = np.bincount(groups, weights=y_sorted) / counts
    lo = max(float(x_all.min()), 1.0 - float(x_all.max()))
    hi = 1.0 - lo
    if hi > lo and x_all.size >= 2:
        s_probe = np.linspace(lo, hi, N_PAIRS)
        if x_all.size >= 4:
            curve = _pchip(x_all, y_all, np.concatenate([s_probe, 1.0 - s_probe]))
            defect = float(np.max(np.abs(curve[:N_PAIRS] - curve[N_PAIRS:])))
        else:
            defect = float(
                np.max(
                    np.abs(
                        np.interp(s_probe, x_all, y_all)
                        - np.interp(1.0 - s_probe, x_all, y_all)
                    )
                )
            )
    else:
        # constant series (e.g. r = 0) or no overlapping pairs: nothing to compare
        defect = float(np.ptp(pur)) if x_all.size < 2 else math.nan

    return MinPurityReport(
        index_min=i_min,
        absA2_min=float(surv[i_min]),
        purity_min=float(pur[i_min]),
        symmetry_defect=defect,
    )
