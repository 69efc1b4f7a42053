"""Sum-rule defects of random models near the stability edge.

    python3 tools/edge_sweep.py [--seed S] [--models M] [--couplings complex|real]

It imports qbath from the ``src`` of its own checkout.  Each model has
N <= 12 bath modes, random frequencies and random couplings u, v, complex
(the "williamson-svd" route, the default) or real ("quadrature-svd"),
scaled to (1 - delta) of the stability edge: the edge scale is found by
bisection on ``validate_model``, and delta = 10^U(-14, -6).  The propagator
runs on 400 steps up to t_max in [20, 200].  With the defect refusal lifted,
each line gives the sup sum-rule defect, or the typed refusal the model met
(no Cholesky factor, ill-conditioned modes); the last line counts the models
whose defect exceeds ``SUM_RULE_TOL``, which ``compute_propagator`` refuses.
The models depend on the seed alone, so two checkouts sweep the same ones.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402  (after qbath's source is on the path)

from qbath import QbathError, TimeGrid, compute_propagator, validate_model  # noqa: E402
from qbath import propagator  # noqa: E402
from qbath.model import ModelSpec  # noqa: E402

BISECTION_STEPS = 200  # cap; bisection ends when the bracket stops shrinking


def _edge_scale(nu: float, omegas: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """The largest scale s with validate_model > 0 at couplings (s u, s v), by bisection."""

    def stable(s: float) -> bool:
        return validate_model(ModelSpec(nu, omegas, s * u, s * v)) > 0.0

    lo, hi = 0.0, 1.0
    while stable(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        lo, hi = (mid, hi) if stable(mid) else (lo, mid)
    return lo


def draw(rng: np.random.Generator, couplings: str = "complex") -> tuple:
    """(nu, omegas, u, v, delta, t_max) of one sweep draw, before the edge is found.

    Real couplings keep the real parts of the complex draws, so both kinds
    consume the generator alike.
    """
    n = int(rng.integers(1, 13))
    nu = rng.uniform(0.2, 3.0)
    omegas = rng.uniform(0.05, 4.0, n)
    u, v = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    if couplings == "real":
        u, v = u.real + 0j, v.real + 0j
    delta = 10.0 ** rng.uniform(-14.0, -6.0)
    t_max = rng.uniform(20.0, 200.0)
    return nu, omegas, u, v, delta, t_max


def edge_model(
    rng: np.random.Generator, couplings: str = "complex"
) -> tuple[ModelSpec, float, float]:
    """(model, delta, t_max) of one sweep draw, its couplings at (1 - delta) of the edge."""
    nu, omegas, u, v, delta, t_max = draw(rng, couplings)
    scale = (1.0 - delta) * _edge_scale(nu, omegas, u, v)
    return ModelSpec(nu, omegas, scale * u, scale * v), delta, t_max


def sweep(seed: int, models: int, couplings: str = "complex") -> int:
    """Print one line per model and the count above SUM_RULE_TOL; return that count."""
    rng = np.random.default_rng(seed)
    tol, above = propagator.SUM_RULE_TOL, 0
    propagator.SUM_RULE_TOL = np.inf  # report every defect; the count applies tol
    try:
        for k in range(models):
            m, delta, t_max = edge_model(rng, couplings)
            head = f"model {k}: N = {m.n_modes:2d}, delta = {delta:.2e}, t_max = {t_max:6.1f}:"
            try:
                p = compute_propagator(m, TimeGrid.linspace(t_max, 400))
            except QbathError as err:
                print(f"{head} {type(err).__name__}: {err}")
                continue
            defect = float(np.max(np.abs(propagator.sum_rule_defects(p))))
            above += defect > tol
            print(f"{head} sup defect {defect:.3e}")
    finally:
        propagator.SUM_RULE_TOL = tol
    print(f"{above} of {models} models above {tol:.0e}")
    return above


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0, help="seed of the model draws (default 0)")
    ap.add_argument("--models", type=int, default=120, help="models to sweep (default 120)")
    ap.add_argument("--couplings", choices=("complex", "real"), default="complex",
                    help="coupling draws, and so the propagator route (default complex)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.models < 0:
        ap.error("--seed and --models must be >= 0")
    sweep(args.seed, args.models, args.couplings)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
