"""The exact time-local master equation behind the reduced dynamics.

For Gaussian bath preparations the reduced characteristic function obeys a
time-local equation with five coefficients: xi (drift/damping), zeta (pair
mixing), kappa (diffusion), mu (anomalous diffusion), sigma (linear drive).
All five follow from the propagator coefficients and the influence sums, and
generator_coefficients(p, i, bath) returns them on a grid index or a row set;
this script extracts them on the whole grid, verifies the evolution identity
pointwise, and shows the one place the construction legitimately breaks: the
generator denominator |A|^2 - |C|^2 can cross zero, where no time-local
generator exists.
"""

import math
from pathlib import Path

import numpy as np

from qbath import (
    EquilibriumBath,
    SingularGeneratorError,
    SqueezedDisplaced,
    TimeGrid,
    compute_propagator,
    generator_coefficients,
    generator_residual,
    load_config,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
model = load_config(CONFIGS / "propagate-ohmic-pp.json").model
p = compute_propagator(model, TimeGrid.linspace(40.0, 100))
bath = EquilibriumBath(beta=1.5)
series = generator_coefficients(p, slice(None), bath)

print("=== generator coefficients, pair-coupled Ohmic bath (beta = 1.5) ===")
print("   t      Re xi     Im xi     |zeta|    kappa     |mu|      denom")
for i in (0, 5, 10, 20, 30, 40, 56):
    flag = "" if series["valid"][i] else "  <- flagged (near-singular)"
    print(f"{p.grid.t[i]:6.1f}  {series['xi'][i].real:+8.4f}  {series['xi'][i].imag:+8.4f}  "
          f"{abs(series['zeta'][i]):8.4f}  {series['kappa'][i].real:+8.4f}  "
          f"{abs(series['mu'][i]):8.4f}  {series['denom'][i]:+9.2e}{flag}")
print("(sigma is identically zero for any equilibrium bath; kappa(0) = mu(0) = 0)")

state = SqueezedDisplaced(0.6 - 0.3j, 0.5, 0.8)
res = generator_residual(p, np.array([3, 12, 25, 40]), bath, state).max()
print(f"\nevolution-identity residual, sup over probe times: {res:.2e}")

print()
print("=== the denominator crosses zero deep in the plateau ===")
d = series["denom"]
sign_change = np.nonzero(np.sign(d[1:]) != np.sign(d[:-1]))[0]
if sign_change.size:
    k = int(sign_change[0]) + 1
    print(f"first sign change near t = {p.grid.t[k]:.1f} (denom {d[k-1]:+.2e} -> {d[k]:+.2e})")
print(f"flagged nodes on this grid: {int((~series['valid']).sum())} of {d.size}")
print("(pair coupling lets |C| catch up with |A|; the generator does not exist there)")

print()
print("=== single-mode resonant case: the singularity in closed form ===")
m1 = load_config(CONFIGS / "purity-cat-vacuum.json").model
u = float(np.real(m1.u[0]))
t_sing = math.pi / (2 * u)
p1 = compute_propagator(m1, TimeGrid(np.array([0.0, 0.9 * t_sing, 0.99 * t_sing, t_sing])))
for i in (1, 2):
    c = generator_coefficients(p1, i, bath)
    print(f"t = {c['t']:.3f}: xi = {c['xi']:+.3f}, denom = {c['denom']:.2e} "
          f"(exact: xi = -i nu - u tan(ut), denom = cos^2(ut))")
try:
    generator_coefficients(p1, 3, bath)
except SingularGeneratorError as exc:
    print(f"t = {t_sing:.3f} (u t = pi/2): raises SingularGeneratorError: {exc}")
