"""Relaxation of a squeezed oscillator against a thermal bath, exactly.

With the bath in a thermal state, the reduced state stays Gaussian whenever
the initial oscillator state is Gaussian, and every observable follows from
two influence sums alpha(t), gamma(t). On the plateau (after |A|, |C| decay,
before the recurrence) the variances and purity settle onto the closed forms

    var_x -> (hbar / m nu) (alpha + 2 Re gamma)
    var_p -> (hbar m nu)   (alpha - 2 Re gamma)
    purity -> 1 / (2 sqrt(alpha^2 - 4 |gamma|^2))

and in the high-temperature limit var_x doubles when beta is halved.
"""

import math
from pathlib import Path

from qbath import (
    EquilibriumBath,
    SqueezedDisplaced,
    TimeGrid,
    asymptotic_purity,
    asymptotic_variances,
    compute_propagator,
    decay_report,
    load_config,
    purity,
    variances,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
model = load_config(CONFIGS / "propagate-flat-custom.json").model
p = compute_propagator(model, TimeGrid.linspace(100.0, 500))
bath = EquilibriumBath(beta=1.0)
state = SqueezedDisplaced(0.8 - 0.3j, 0.9, 0.2)  # displaced and squeezed

print("=== relaxation of a displaced squeezed state (N = 128, beta = 1) ===")
print("   t      var_x     var_p     purity")
for i in range(0, 501, 50):
    vx, vp = variances(p, i, bath, state)
    pur = purity(p, i, bath, state)
    print(f"{p.grid.t[i]:6.1f}   {vx:8.5f}  {vp:8.5f}   {pur:.5f}")

i0, i1 = decay_report(p).plateau
i = (i0 + i1) // 2
vx, vp = variances(p, i, bath, state)
pur = purity(p, i, bath, state)
ax, ap = asymptotic_variances(p, i, bath)
apur = asymptotic_purity(p, i, bath)
print()
print(f"plateau window t in [{p.grid.t[i0]:.1f}, {p.grid.t[i1]:.1f}], probe t = {p.grid.t[i]:.1f}")
print(f"var_x  {vx:.6f}  vs closed form {ax:.6f}  (rel {abs(vx - ax) / ax:.1e})")
print(f"var_p  {vp:.6f}  vs closed form {ap:.6f}  (rel {abs(vp - ap) / ap:.1e})")
print(f"purity {pur:.6f}  vs closed form {apur:.6f}  (rel {abs(pur - apur) / apur:.1e})")
print("(the residual is the plateau drift: |A|, |C| are small but not zero)")

print()
print("=== high-temperature check: halving beta doubles var_x ===")
for beta in (0.2, 0.1, 0.05):
    vx, _ = variances(p, i, EquilibriumBath(beta=beta), state)
    print(f"beta = {beta:5.2f}: var_x = {vx:9.4f}")
vx_1, _ = variances(p, i, EquilibriumBath(beta=0.1), state)
vx_2, _ = variances(p, i, EquilibriumBath(beta=0.05), state)
print(f"ratio var(beta/2)/var(beta) = {vx_2 / vx_1:.5f} (classical equipartition -> 2)")

print()
print("=== the zero-temperature plateau state is dressed, not the bare vacuum ===")
cold = EquilibriumBath(beta=math.inf)
vx, vp = variances(p, i, cold, state)
print(f"T = 0 plateau: var_x = {vx:.6f}, var_p = {vp:.6f}, "
      f"purity = {purity(p, i, cold, state):.6f}")
print("(purity < 1: the oscillator is entangled with the bath even at T = 0)")
