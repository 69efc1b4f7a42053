"""Cat purities by quadrature against their closed form, on random cats and baths.

    python3 tools/cat_oracle_sweep.py [--seed S] [--cats C]

It imports qbath from the ``src`` of its own checkout.  Each cat has two
lobes of modulus up to LOBE_MAX, drawn with a thermal bath of inverse
temperature from BETAS and the model of one of the sample configs MODELS
(configs/<name>.json), on ROWS grid times up to t_max in [1, 40].  Every
row's purity is taken by quadrature, one grid index at a time, and set
against ``closed_form``: each line gives a cat's rows that are
wrong (an accepted purity off the closed form by more than TOL) and refused
(AccuracyError), and its largest accepted error; the last line counts the
wrong and the refused rows.  The cats depend on the seed alone, so two
checkouts sweep the same ones.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402  (after qbath's source is on the path)

from qbath import TimeGrid, compute_propagator, load_config  # noqa: E402
from qbath.baths import CoherentStateBath, EquilibriumBath, occupation  # noqa: E402
from qbath.errors import AccuracyError  # noqa: E402
from qbath.observables import purity  # noqa: E402
from qbath.states import CatState  # noqa: E402

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
MODELS = ("purity-cat-vacuum", "ensemble-number", "propagate-ohmic-pp")
BETAS = (0.02, 0.1, 0.5, 2.0, math.inf)
LOBE_MAX = 8.0
ROWS = 13
TOL = 1e-8  # purity's default level agreement, which the closed form checks


def closed_form(p, i: int, bath, s: CatState) -> float:
    """Tr rho^2 of the cat s at grid index i against an equilibrium or coherent bath.

    |chi|^2 is exp(-x^T M x) times a sum of 16 cross terms
    <g_a|d_a> <g_b|d_b>^* exp(b_x . x) / norm^2, x = (Re eta, Im eta), one per
    lobe pair (g_a, d_a) of chi and (g_b, d_b) of chi^*, with
    b_x = (p + q, i (p - q)), p = u A^* - v C^*, q = v A - u C, u = g_a^* - d_b^*
    and v = g_b - d_a.  M = [[2a - 4 Re g, -4 Im g], [-4 Im g, 2a + 4 Re g]]
    holds the total Gaussian parameters, the cat's vacuum part carried by
    (A, C), a = (|A|^2 + |C|^2)/2 and g = A C/2, plus the bath's sums
    alpha = sum_k (|B_k|^2 + |D_k|^2)(nbar_k + 1/2) and
    gamma = sum_k B_k D_k (nbar_k + 1/2); a coherent bath's displacement is a
    phase and drops out of |chi|^2.  Each term integrates to
    pi exp(b_x^T M^-1 b_x / 4) / sqrt(det M), and purity is (1/pi) int |chi|^2.
    The coefficients are kept in log space, so no overlap underflows.
    """
    a_t, c_t, b_k, d_k = p.A[i], p.C[i], p.B[i], p.D[i]
    nbar = (np.zeros(p.n_modes) if isinstance(bath, CoherentStateBath)
            else occupation(bath.beta, p.model.omegas, p.model.units.hbar))
    weights = nbar + 0.5
    a = (0.5 * (abs(a_t) ** 2 + abs(c_t) ** 2)
         + np.sum((np.abs(b_k) ** 2 + np.abs(d_k) ** 2) * weights))
    g = 0.5 * a_t * c_t + np.sum(b_k * d_k * weights)
    m = np.array([[2 * a - 4 * g.real, -4 * g.imag], [-4 * g.imag, 2 * a + 4 * g.real]])
    m_inv = np.linalg.inv(m)
    total = sum(np.exp(log_coef + b_x @ m_inv @ b_x / 4.0)
                for log_coef, b_x in cross_terms(a_t, c_t, s))
    return float(total.real / (s.norm_sq**2 * math.sqrt(np.linalg.det(m))))


def cross_terms(a_t: complex, c_t: complex, s: CatState):
    """(log <g_a|d_a> <g_b|d_b>^*, b_x) of each of the cat's 16 cross terms (closed_form)."""
    lobes = (s.alpha, s.beta)
    pairs = [(left, right) for left in lobes for right in lobes]
    for g_a, d_a in pairs:
        for g_b, d_b in pairs:
            u, v = np.conj(g_a - d_b), g_b - d_a
            p_, q_ = u * np.conj(a_t) - v * np.conj(c_t), v * a_t - u * c_t
            b_x = np.array([p_ + q_, 1j * (p_ - q_)])
            yield _log_overlap(g_a, d_a) + np.conj(_log_overlap(g_b, d_b)), b_x


def _log_overlap(g: complex, d: complex) -> complex:
    """log <g|d> = -|g|^2/2 - |d|^2/2 + g^* d."""
    return -0.5 * abs(g) ** 2 - 0.5 * abs(d) ** 2 + np.conj(g) * d


def draw(rng: np.random.Generator) -> tuple:
    """(model name, bath beta, alpha, beta lobe, t_max) of one sweep draw."""
    name = MODELS[rng.integers(len(MODELS))]
    beta = BETAS[rng.integers(len(BETAS))]
    alpha, lobe = (LOBE_MAX * rng.uniform() * np.exp(2j * math.pi * rng.uniform())
                   for _ in range(2))
    return name, beta, complex(alpha), complex(lobe), rng.uniform(1.0, 40.0)


def sweep(seed: int, cats: int) -> tuple[int, int]:
    """Print one line per cat and the wrong and refused counts; return those counts."""
    rng = np.random.default_rng(seed)
    models = {name: load_config(CONFIGS / f"{name}.json").model for name in MODELS}
    wrong = refused = 0
    for k in range(cats):
        name, beta, alpha, lobe, t_max = draw(rng)
        p = compute_propagator(models[name], TimeGrid.linspace(t_max, ROWS - 1))
        s, bath = CatState(alpha, lobe), EquilibriumBath(beta)
        cat_wrong = cat_refused = 0
        worst = 0.0
        for i in range(ROWS):
            try:
                value = purity(p, i, bath, s, tol=TOL)
            except AccuracyError:
                cat_refused += 1
                continue
            error = abs(value - closed_form(p, i, bath, s))
            cat_wrong += error > TOL
            worst = max(worst, error)
        wrong += cat_wrong
        refused += cat_refused
        print(f"cat {k}: {name}, beta = {beta:g}, lobes {alpha:.3f} and {lobe:.3f}, "
              f"t_max = {t_max:4.1f}: {cat_wrong} wrong, {cat_refused} refused, "
              f"max error {worst:.1e}")
    print(f"{wrong} wrong and {refused} refused of {cats * ROWS} rows (tol {TOL:.0e})")
    return wrong, refused


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0, help="seed of the cat draws (default 0)")
    ap.add_argument("--cats", type=int, default=70, help="cats to sweep (default 70)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.cats < 0:
        ap.error("--seed and --cats must be >= 0")
    sweep(args.seed, args.cats)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
