"""Decomposing the thermal bath into number states: what survives the average.

A thermal bath is a geometric mixture of product number states |n_1...n_N>.
Sampling baths from that distribution and evolving each one reproduces the
thermal ensemble mean exactly, but individual members fluctuate: the variance
of var_x across members has a closed form, and it scales like 1/N, so the
decomposition becomes deterministic in the thermodynamic limit.

The averaged purity is subtler: averaging Tr rho^2 over members is a different
nonlinear statistic than the purity of the averaged state, and at finite N it
sits strictly above the equilibrium purity. The gap closes as N grows.
"""

import dataclasses
import math
from pathlib import Path

from qbath import (
    EquilibriumBath,
    TimeGrid,
    averaged_purity_number_ensemble,
    build_model,
    compute_propagator,
    decay_report,
    load_config,
    number_variance_of_variance,
    purity,
    row_slice,
    sample_number_states,
    vacuum_state,
    variances,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
beta, seed, n_samples = 2.0, 7, 2000
cfg = load_config(CONFIGS / "ensemble-number.json")
model = cfg.model
p = compute_propagator(model, TimeGrid.linspace(40.0, 100))
i = decay_report(p).probe
state = vacuum_state()

print(f"=== {n_samples} number-state bath samples at beta = {beta}, t = {p.grid.t[i]:.1f} ===")
members = sample_number_states(beta, model, seed, n_samples)  # one row per member
vx, _ = variances(p, row_slice(p, i), members, state)

eq_vx, _ = variances(p, i, EquilibriumBath(beta=beta), state)
se = vx.std(ddof=1) / math.sqrt(n_samples)
print(f"ensemble mean var_x: {vx.mean():.6f} +- {se:.6f}")
print(f"equilibrium  var_x:  {eq_vx:.6f}   (z = {(vx.mean() - eq_vx) / se:+.2f})")

pop = vx.var(ddof=1)
pred = number_variance_of_variance(p, i, beta)
print()
print(f"population variance of var_x: {pop:.3e}")
print(f"closed-form prediction:       {pred:.3e}")

print()
print("=== member-to-member scatter dies off as 1/N ===")
for n in (32, 64, 128, 256):
    model_n = build_model(dataclasses.replace(cfg.band, n_modes=n), model.nu,
                          model.coupling_family, model.units)
    pn = compute_propagator(model_n, p.grid)
    j = decay_report(pn).probe
    print(f"N = {n:3d}: var-of-var = {number_variance_of_variance(pn, j, beta):.4e}")

print()
print("=== averaged purity exceeds equilibrium purity at finite N ===")
pur = averaged_purity_number_ensemble(p, i, beta, state, 500, seed)
eq_pur = purity(p, i, EquilibriumBath(beta=beta), state)
print(f"mean purity over 500 members: {pur.estimate:.5f} +- {pur.std_error:.5f}")
print(f"equilibrium purity:           {eq_pur:.5f}")
print("(members are less entangled with the bath than the thermal average;")
print(" the excess is a finite-size effect and vanishes as N -> infinity)")
