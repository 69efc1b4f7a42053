"""How the oscillator amplitude decays into a finite bath, and when it comes back.

The reduced dynamics are fixed by four coefficient families A, B_k, C, D_k that
propagate the oscillator operators. With a finite bath, |A(t)| decays toward a
plateau and then revives at the Poincaré recurrence; a denser spectrum (larger
N at fixed band) pushes the recurrence later while leaving the early decay
unchanged. The sum rule |A|^2 - |C|^2 + sum|B_k|^2 - sum|D_k|^2 = 1 is an exact
commutator identity and holds at every instant.
"""

import dataclasses
from pathlib import Path

import numpy as np

from qbath import (
    TimeGrid,
    build_model,
    compute_propagator,
    decay_report,
    load_config,
    sum_rule_defects,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
grid = TimeGrid.linspace(200.0, 800)
rwa = load_config(CONFIGS / "ensemble-number.json")

print("=== N = 64 Ohmic band, rotating-wave coupling ===")
p = compute_propagator(rwa.model, grid)
print(f"sum-rule defect, sup over grid: {np.max(np.abs(sum_rule_defects(p))):.3e}")
print()
print("   t      |A(t)|")
for i in range(0, 801, 80):
    print(f"{grid.t[i]:6.1f}   {abs(p.A[i]):.6f}")

rep = decay_report(p)
print()
print(f"late-time sup |A|: {rep.late_sup_A:.4f}")
print(f"recurrence onset:  {rep.recurrence_onset}")

print()
print("=== recurrence onset vs mode count (same band, rediscretized) ===")
for n in (16, 32, 64, 128):
    model = build_model(dataclasses.replace(rwa.band, n_modes=n), rwa.model.nu,
                        rwa.model.coupling_family, rwa.model.units)
    rep = decay_report(compute_propagator(model, grid))
    onset = "beyond grid" if rep.recurrence_onset is None else f"{rep.recurrence_onset:8.1f}"
    print(f"N = {n:3d}: onset {onset}, plateau sup|A| ~ {rep.late_sup_A:.4f}")

print()
print("=== pair coupling also populates the conjugate coefficients C, D ===")
p = compute_propagator(load_config(CONFIGS / "propagate-ohmic-pp.json").model,
                       TimeGrid.linspace(40.0, 100))
i = 60
print(f"at t = {p.grid.t[i]:.1f}: |A| = {abs(p.A[i]):.4f}, |C| = {abs(p.C[i]):.4f}, "
      f"sum|B|^2 = {np.sum(np.abs(p.B[i])**2):.4f}, sum|D|^2 = {np.sum(np.abs(p.D[i])**2):.4f}")
print("(the rotating-wave family keeps C = D = 0 exactly)")
