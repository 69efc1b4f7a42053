"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

Criterion 8 audits every (var_x, var_p, purity) triple recorded by the earlier
criteria, so this module is meant to run as a whole (pytest collects in file
order). Run with -rA to see the printed lines for passing tests too.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from qbath import (
    CatState,
    CoherentStateBath,
    EquilibriumBath,
    NumberStateBath,
    SingularGeneratorError,
    SqueezedDisplaced,
    TimeGrid,
    asymptotic_purity,
    asymptotic_variances,
    averaged_purity_number_ensemble,
    bath_sums,
    compute_propagator,
    decay_report,
    delta_correlations,
    displaced_vacuum_check,
    dynamical_matrix,
    general_generator_apply,
    general_generator_residual,
    generator_coefficients,
    generator_residual,
    mean_xp,
    min_purity_check,
    number_variance_of_variance,
    parse_config,
    purity,
    purity_cat_rwa,
    purity_squeezed_rwa,
    sample_coherent_states,
    sample_number_states,
    sum_rule_defects,
    vacuum_state,
    variances,
)

from conftest import STOCK_CONFIGS, load_sample_config, load_sample_model

HBAR = 1.0  # stock models use hbar = m = 1
GRID = TimeGrid.linspace(40.0, 100)
SEED = 2026  # fixed before any ensemble run; shared by criteria 4 and 5

# (var_x, var_p, purity, label) triples accumulated by criteria 1-7 for the
# criterion-8 physicality audit
PHYS = []


def record(p, i, bath, s, label):
    vx, vp = variances(p, i, bath, s)
    pur = purity(p, i, bath, s)
    PHYS.append((vx, vp, pur, label))
    return vx, vp, pur


def report(num, label, ok, detail):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_1_sum_rule():
    t0 = time.perf_counter()
    grid = TimeGrid.linspace(100.0, 1000)
    worst = 0.0
    for name in STOCK_CONFIGS:
        p = compute_propagator(load_sample_model(name), grid)
        worst = max(worst, float(np.max(np.abs(sum_rule_defects(p)))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed <= 10.0
    report(1, "sum rule", ok,
           f"max defect {worst:.2e} over 5 models, t in [0, 100], {elapsed:.1f}s")


def test_criterion_2_propagator_oracles():
    m1 = load_sample_model("purity-cat-vacuum")
    grid = TimeGrid.linspace(9.0, 300)
    p1 = compute_propagator(m1, grid)
    nu, u = m1.nu, float(np.real(m1.u[0]))
    phase = np.exp(-1j * nu * grid.t)
    err_closed = max(
        float(np.max(np.abs(p1.A - phase * np.cos(u * grid.t)))),
        float(np.max(np.abs(p1.B[:, 0] + 1j * phase * np.sin(u * grid.t)))),
    )

    doc = load_sample_config("propagate-ohmic-pp")["model"]
    doc["spectral"]["N"] = 16
    m2 = parse_config({"model": doc}).model
    p2 = compute_propagator(m2, GRID)
    mat = dynamical_matrix(m2)
    # a(t)'s coefficient row solves r' = r M from the unit row
    r0 = np.zeros(mat.shape[0], dtype=complex)
    r0[0] = 1.0
    sol = solve_ivp(lambda t, r: r @ mat, (0.0, GRID.t[-1]), r0, t_eval=GRID.t,
                    method="DOP853", rtol=1e-10, atol=1e-12)
    rows = sol.y.T
    n = m2.n_modes
    err_ode = max(
        float(np.max(np.abs(rows[:, 0] - p2.A))),
        float(np.max(np.abs(rows[:, 1:n + 1] - p2.B))),
        float(np.max(np.abs(rows[:, n + 1] - p2.C))),
        float(np.max(np.abs(rows[:, n + 2:] - p2.D))),
    )
    ok = err_closed < 1e-10 and sol.success and err_ode < 1e-8
    report(2, "propagator oracles", ok,
           f"closed form {err_closed:.2e}, N=16 ODE cross-check {err_ode:.2e}")


def test_criterion_3_equilibrium_asymptotics(flat_custom, plateau_index):
    p = flat_custom
    i = plateau_index(p)
    bath = EquilibriumBath(beta=1.0)
    s = SqueezedDisplaced(0.4 - 0.2j, 0.5, 0.7)
    vx, vp, pur = record(p, i, bath, s, "flat-custom-n128 plateau")
    ax, ap = asymptotic_variances(p, i, bath)
    apur = asymptotic_purity(p, i, bath)
    drift = max(abs(vx - ax) / ax, abs(vp - ap) / ap, abs(pur - apur) / apur)

    hot_x, _, _ = record(p, i, EquilibriumBath(beta=0.1), vacuum_state(),
                         "flat-custom-n128 beta=0.1")
    hotter_x, _, _ = record(p, i, EquilibriumBath(beta=0.05), vacuum_state(),
                            "flat-custom-n128 beta=0.05")
    ratio = hotter_x / hot_x
    ok = drift < 0.02 and abs(ratio - 2.0) <= 0.10
    report(3, "equilibrium asymptotics", ok,
           f"N=128 plateau drift {drift:.2e}, var(beta/2)/var(beta) = {ratio:.4f}")


def test_criterion_4_number_state_ensemble(ohmic_rwa, plateau_index):
    t0 = time.perf_counter()
    p = ohmic_rwa
    m = p.model
    i = plateau_index(p)
    beta = 2.0
    s = vacuum_state()

    n = 10_000
    vx = np.empty(n)
    for k, occs in enumerate(sample_number_states(beta, m, SEED, n).n):
        bath = NumberStateBath(occs)
        vx[k], _ = variances(p, i, bath, s)
        if k % 200 == 0:
            record(p, i, bath, s, f"number sample {k}")
    eq_vx, _ = variances(p, i, EquilibriumBath(beta=beta), s)
    se_mean = vx.std(ddof=1) / math.sqrt(n)
    z_mean = (vx.mean() - eq_vx) / se_mean

    centered = vx - vx.mean()
    pop = float(np.sum(centered**2) / (n - 1))
    m4 = float(np.mean(centered**4))
    se_var = math.sqrt(max(m4 - pop**2, 0.0) / n)
    z_var = (pop - number_variance_of_variance(p, i, beta)) / se_var

    pur = averaged_purity_number_ensemble(p, i, beta, s, 1000, SEED)
    eq_pur = purity(p, i, EquilibriumBath(beta=beta), s)
    z_pur = (pur.estimate - eq_pur) / pur.std_error

    # variance-of-variance must fall off as 1/N when the band is rediscretized
    vv, ns = [], (32, 64, 128, 256)
    for n_modes in ns:
        doc = load_sample_config("ensemble-number")["model"]
        doc["spectral"]["N"] = n_modes
        pn = compute_propagator(parse_config({"model": doc}).model, GRID)
        vv.append(number_variance_of_variance(pn, plateau_index(pn), beta))
    slope = float(np.polyfit(np.log(ns), np.log(vv), 1)[0])

    elapsed = time.perf_counter() - t0
    ok = (abs(z_mean) < 4.0 and abs(z_var) < 4.0 and abs(z_pur) < 4.0
          and -1.3 <= slope <= -0.7 and elapsed <= 300.0)
    report(4, "number-state ensemble", ok,
           f"z_mean {z_mean:+.2f}, z_var {z_var:+.2f}, z_purity {z_pur:+.2f}, "
           f"1/N slope {slope:.3f}, {elapsed:.0f}s")


def test_criterion_5_coherent_state_ensemble(ohmic_rwa, plateau_index):
    p = ohmic_rwa
    m = p.model
    i = plateau_index(p)
    j = i // 2
    beta = 2.0
    s = vacuum_state()
    u = m.units

    vx0, vp0 = variances(p, i, EquilibriumBath(beta=math.inf), s)
    n = 10_000
    mx = np.empty(n)
    mp = np.empty(n)
    di = np.empty(n, complex)
    dj = np.empty(n, complex)
    identity_defect = 0.0
    first_amps = None
    for k, amps in enumerate(sample_coherent_states(beta, m, SEED, n).amps):
        bath = CoherentStateBath(amps)
        if k == 0:
            first_amps = bath.amps
        mx[k], mp[k] = mean_xp(p, i, bath, s)
        di[k] = np.sum(p.B[i] * bath.amps + p.D[i] * np.conj(bath.amps))
        dj[k] = np.sum(p.B[j] * bath.amps + p.D[j] * np.conj(bath.amps))
        if k < 100:
            vxk, vpk = variances(p, i, bath, s)
            identity_defect = max(identity_defect, abs(vxk - vx0), abs(vpk - vp0))
        if k % 500 == 0:
            record(p, i, bath, s, f"coherent sample {k}")

    fb = bath_sums(p, i, EquilibriumBath(beta=beta))
    f0 = bath_sums(p, i, EquilibriumBath(beta=math.inf))
    da, dg = fb.alpha - f0.alpha, fb.gamma - f0.gamma
    pred_x2 = (u.hbar / (u.mass * m.nu)) * (da + 2.0 * dg.real)
    pred_p2 = (u.hbar * u.mass * m.nu) * (da - 2.0 * dg.real)

    def z(vals, pred):
        return (vals.mean() - pred) / (vals.std(ddof=1) / math.sqrt(vals.size))

    corr = delta_correlations(p, i, j, beta)
    c1_mc, c2_mc = di * np.conj(dj), di * dj
    z_stats = [z(mx**2, pred_x2), z(mp**2, pred_p2),
               z(c1_mc.real, corr.c1.real), z(c1_mc.imag, corr.c1.imag),
               z(c2_mc.real, corr.c2.real), z(c2_mc.imag, corr.c2.imag)]
    z_worst = max(abs(v) for v in z_stats)

    plateau_pur = purity(p, i, CoherentStateBath(first_amps), s)
    dv_defect = displaced_vacuum_check(p, i, first_amps, s)
    ok = (identity_defect < 1e-12 and z_worst < 4.0
          and plateau_pur > 0.999 and dv_defect < 1e-3)
    report(5, "coherent-state ensemble", ok,
           f"per-sample variance defect {identity_defect:.1e}, worst |z| {z_worst:.2f}, "
           f"RWA plateau purity {plateau_pur:.6f}, displaced-vacuum defect {dv_defect:.1e}")


def test_criterion_6_master_equation(ohmic_rwa, keyed_rng):
    p = ohmic_rwa
    m = p.model
    onset = decay_report(p).recurrence_onset
    idx = [k for k in (0, 10, 25, 45, 70, 96)
           if onset is None or p.grid.t[k] < onset]
    eq = EquilibriumBath(beta=1.5)
    coh = CoherentStateBath(sample_coherent_states(1.5, m, keyed_rng(SEED, 0), 1).amps[0])
    num = NumberStateBath(sample_number_states(1.5, m, keyed_rng(SEED, 1), 1).n[0])
    sq = SqueezedDisplaced(0.5 - 0.1j, 0.6, 0.3)
    cat = CatState(1.3 + 0.4j, -0.8 - 0.6j)

    res_eq = max(generator_residual(p, k, eq, sq) for k in idx)
    res_coh = max(generator_residual(p, k, coh, cat) for k in idx)
    reports = [general_generator_residual(p, k, num, sq) for k in idx]
    res_num = max(r.max_residual for r in reports)

    series = generator_coefficients(p, slice(None), eq)
    sigma_zero = bool(np.all(series["sigma"] == 0.0)) and bool(np.all(series["valid"]))

    origin = 0.0
    for bath in (eq, coh, num):
        for k in idx:
            rhs, _ = general_generator_apply(p, k, bath, sq, np.array([0.0j]))
            origin = max(origin, abs(rhs[0]))

    m1 = load_sample_model("purity-cat-vacuum")
    u1 = float(np.real(m1.u[0]))
    t_sing = math.pi / (2.0 * u1)
    p1 = compute_propagator(m1, TimeGrid(np.array([0.0, 0.5 * t_sing, t_sing])))
    with pytest.raises(SingularGeneratorError):
        generator_coefficients(p1, 2, eq)

    worst = max(res_eq, res_coh, res_num)
    ok = worst < 1e-8 and sigma_zero and origin < 1e-12
    report(6, "master equation", ok,
           f"residuals eq {res_eq:.1e} / coherent {res_coh:.1e} / number {res_num:.1e}, "
           f"sigma==0 {sigma_zero}, RHS at eta=0 {origin:.1e}, singular raise ok")


def test_criterion_7_purity_oracles():
    m = load_sample_model("purity-cat-vacuum")
    u = float(np.real(m.u[0]))
    # an even grid over [0, pi/u] pairs each node with its exact mirror, so
    # |A(t_k)|^2 + |A(t_{-k})|^2 = 1 holds to machine precision
    grid = TimeGrid.linspace(math.pi / u, 360)
    p = compute_propagator(m, grid)
    bath = EquilibriumBath(beta=math.inf)
    absA2 = np.abs(p.A) ** 2

    sq = SqueezedDisplaced(0.5 - 0.1j, 1.0, 0.3)
    cat = CatState(1.3 + 0.4j, -0.8 - 0.6j)
    pur_sq = np.array([purity(p, k, bath, sq) for k in range(grid.t.size)])
    pur_cat = np.array([purity(p, k, bath, cat) for k in range(grid.t.size)])
    oracle_sq = np.array([purity_squeezed_rwa(a, sq.r) for a in absA2])
    oracle_cat = np.array([purity_cat_rwa(a, cat.alpha, cat.beta) for a in absA2])
    err = max(float(np.max(np.abs(pur_sq - oracle_sq))),
              float(np.max(np.abs(pur_cat - oracle_cat))))

    cat_min = float(np.min(pur_cat))
    ds = float(np.max(np.abs(np.diff(absA2))))
    rep_sq = min_purity_check(pur_sq, absA2)
    rep_cat = min_purity_check(pur_cat, absA2)
    loc_defect = max(abs(rep_sq.absA2_min - 0.5), abs(rep_cat.absA2_min - 0.5))

    sym = max(float(np.max(np.abs(pur_sq - pur_sq[::-1]))),
              float(np.max(np.abs(pur_cat - pur_cat[::-1]))),
              rep_sq.symmetry_defect, rep_cat.symmetry_defect)

    for k in (0, 60, 135, 180, 270):
        record(p, k, bath, sq, f"rwa-n1 squeezed k={k}")
        record(p, k, bath, cat, f"rwa-n1 cat k={k}")

    ok = (err < 1e-7 and cat_min >= 0.5 - 1e-9 and loc_defect <= ds and sym < 1e-7)
    report(7, "purity oracles", ok,
           f"oracle defect {err:.1e}, cat min {cat_min:.6f}, "
           f"min at |A|^2 = 0.5 +- {loc_defect:.1e} (grid {ds:.1e}), symmetry {sym:.1e}")


def test_criterion_8_physicality_suite(keyed_rng):
    # widen the audit beyond what criteria 1-7 recorded
    for name in ("ensemble-number", "propagate-ohmic-pp"):
        p = compute_propagator(load_sample_model(name), GRID)
        amps = sample_coherent_states(1.0, p.model, keyed_rng(5, 0), 1).amps[0]
        number = NumberStateBath(sample_number_states(1.0, p.model, keyed_rng(5, 1), 1).n[0])
        baths = (EquilibriumBath(beta=2.0), EquilibriumBath(beta=math.inf),
                 CoherentStateBath(amps), number)
        states = (vacuum_state(), SqueezedDisplaced(0.3 + 0.2j, 0.8, 0.4),
                  CatState(1.1 + 0.0j, -1.1 + 0.3j))
        for k in (0, 13, 48, 96):
            for bath in baths:
                for s in states:
                    record(p, k, bath, s, f"{name} k={k}")

    floor = 0.25 * HBAR**2 * (1.0 - 1e-9)
    worst_heis = min(vx * vp for vx, vp, _, _ in PHYS)
    bad = [(label, pur) for _, _, pur, label in PHYS
           if not (0.0 < pur <= 1.0 + 1e-9)]
    # the sweep above contributes 96 entries on its own; a full module run
    # adds the states recorded by criteria 3-7
    ok = worst_heis >= floor and not bad and len(PHYS) >= 96
    report(8, "physicality suite", ok,
           f"{len(PHYS)} states audited, min var_x*var_p {worst_heis:.6f} "
           f">= {floor:.6f}, purity violations {len(bad)}")
