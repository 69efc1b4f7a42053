"""Decomposing the thermal bath into coherent states: noise without heating.

Under the coherent-state (P-function) decomposition, every member bath is a
product of coherent states. Each member leaves the oscillator in a displaced
zero-temperature state: the per-sample variances equal the T = 0 values as an
identity, and all thermal broadening comes from the scatter of the mean values
<x>, <p> across members. The drift delta(t) = sum(B_k beta_k + D_k beta_k^*)
acts as a colored Gaussian noise whose two-time correlators have closed forms.
"""

import math

import numpy as np

from qbath import (
    CoherentStateBath,
    EquilibriumBath,
    TimeGrid,
    asymptotic_variances,
    bath_delta,
    compute_propagator,
    delta_correlations,
    displaced_vacuum_check,
    mean_rows,
    plateau_window,
    purity,
    row_slice,
    sample_coherent_states,
    stock_model,
    vacuum_state,
    variance_rows,
)

beta, seed, n_samples = 2.0, 19, 4000
model = stock_model("ohmic-rwa-n64")
p = compute_propagator(model, TimeGrid.linspace(40.0, 100))
i0, i1 = plateau_window(p)
i = i0 + int(np.argmin(np.abs(p.A[i0 : i1 + 1])))
j = i // 2
state = vacuum_state()
members = sample_coherent_states(beta, model, seed, n_samples)  # one row per member

print("=== every member is a displaced zero-temperature state ===")
vx0, vp0 = variance_rows(p, row_slice(i), EquilibriumBath(beta=math.inf), state)
vxk, vpk = variance_rows(p, row_slice(i), CoherentStateBath(members.amps[:200]), state)
worst = max(np.max(np.abs(vxk - vx0)), np.max(np.abs(vpk - vp0)))
print(f"max |per-sample variance - T=0 variance| over 200 members: {worst:.2e}")

amps_0 = members.amps[0]
print(f"member purity on the RWA plateau: {purity(p, i, CoherentStateBath(amps_0), state):.12f}")
print(f"displaced-vacuum factorization defect: {displaced_vacuum_check(p, i, amps_0, state):.2e}")

print()
print(f"=== thermal broadening lives in the scatter of the means ({n_samples} samples) ===")
mx, mp = mean_rows(p, row_slice(i), members, state)
di, dj = (bath_delta(p, row_slice(k), members) for k in (i, j))

thermal, cold = (asymptotic_variances(p, i, EquilibriumBath(beta=b)) for b in (beta, math.inf))
pred_x2, pred_p2 = np.subtract(thermal, cold)
se_x = (mx**2).std(ddof=1) / math.sqrt(n_samples)
se_p = (mp**2).std(ddof=1) / math.sqrt(n_samples)
print(f"mean <x>^2: {np.mean(mx**2):.5f} +- {se_x:.5f}, predicted {pred_x2:.5f}")
print(f"mean <p>^2: {np.mean(mp**2):.5f} +- {se_p:.5f}, predicted {pred_p2:.5f}")
print("(prediction = thermal influence sums minus their T=0 part)")

print()
print(f"=== drift correlators between t = {p.grid.t[i]:.1f} and t = {p.grid.t[j]:.1f} ===")
corr = delta_correlations(p, i, j, beta)
c1 = np.mean(di * np.conj(dj))
c2 = np.mean(di * dj)
print(f"E[delta_i conj(delta_j)]: MC {c1:+.5f}, closed form {corr.c1:+.5f}")
print(f"E[delta_i delta_j]:       MC {c2:+.5f}, closed form {corr.c2:+.5f}")
print("(the second correlator vanishes identically for rotating-wave coupling)")
