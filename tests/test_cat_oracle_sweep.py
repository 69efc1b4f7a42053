"""tools/cat_oracle_sweep.py: cat purities by quadrature against their closed form."""

import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest

from qbath import TimeGrid, compute_propagator, parse_config, realize_bath
from qbath import observables as obs
from qbath.baths import CoherentStateBath, EquilibriumBath
from qbath.states import CatState, SqueezedDisplaced

from conftest import load_sample_model

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cat_oracle_sweep.py"
CAT = CatState(alpha=1.3 + 0.4j, beta=-0.8 - 0.6j)


def _tool():
    spec = importlib.util.spec_from_file_location("cat_oracle_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_prints_one_line_per_cat_and_accepts_no_wrong_purity(capsys):
    # seed 3 holds cat 35, whose row 1 has two levels below its fringe nodes agree 1.7e-6 off
    tool = _tool()
    assert tool.main(["--seed", "3", "--cats", "36"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 37
    for k, line in enumerate(lines[:-1]):
        assert re.fullmatch(
            rf"cat {k}: [\w-]+, beta = \S+, lobes \S+ and \S+, t_max = +\S+: "
            r"0 wrong, \d+ refused, max error \S+", line
        ), line
    assert re.fullmatch(r"0 wrong and \d+ refused of 468 rows \(tol 1e-08\)", lines[-1])
    assert tool.TOL == 1e-8


def test_closed_form_is_one_for_a_pure_cat_at_t0(rwa_n1):
    tool = _tool()
    for alpha, beta in ((1.3 + 0.4j, -0.8 - 0.6j), (7.0, -7.0), (5.0 - 6.0j, -4.0 + 6.5j)):
        for bath in (EquilibriumBath(math.inf), EquilibriumBath(0.02)):
            assert tool.closed_form(rwa_n1, 0, bath, CatState(alpha, beta)) == pytest.approx(
                1.0, abs=1e-13)


@pytest.mark.parametrize("model", ["ohmic_rwa", "ohmic_pp"])
@pytest.mark.parametrize("kind", ["vacuum", "thermal", "coherent"])
def test_closed_form_matches_the_quadrature_on_the_stock_cat_rows(request, model, kind):
    p = request.getfixturevalue(model)
    bath = {"vacuum": EquilibriumBath(math.inf), "thermal": EquilibriumBath(1.0),
            "coherent": CoherentStateBath(0.4 * np.exp(1j * np.arange(p.n_modes)))}[kind]
    tool = _tool()
    quadrature = obs.purity(p, slice(None), bath, CAT)
    closed = np.array([tool.closed_form(p, i, bath, CAT) for i in range(p.n_times)])
    assert np.max(np.abs(quadrature - closed)) <= 1e-12


def test_closed_form_matches_the_quadrature_on_the_sample_cat_config(sample_config):
    cfg = parse_config(sample_config("purity-cat-vacuum"))
    p = compute_propagator(cfg.model, cfg.grid)
    bath, cat = realize_bath(cfg), cfg.oscillator
    tool = _tool()
    quadrature = obs.purity(p, slice(None), bath, cat)
    closed = np.array([tool.closed_form(p, i, bath, cat) for i in range(p.n_times)])
    assert np.max(np.abs(quadrature - closed)) <= 1e-12


@pytest.mark.parametrize("model", ["rwa_n1", "ohmic_pp"])
def test_fringe_nodes_bound_every_cross_term(request, model):
    # _fringe_nodes takes k in closed form; here k is the largest |W^T b_x| over the terms
    p = request.getfixturevalue(model)
    tool, rng = _tool(), np.random.default_rng(8)
    rows = np.arange(0, p.n_times, 7)
    for _ in range(6):
        alpha, beta = (complex(*rng.uniform(-6.0, 6.0, 2)) for _ in range(2))
        cat = CatState(alpha, beta)
        whiten, _ = obs._whitened(p, rows, cat, EquilibriumBath(1.0))
        got = obs._fringe_nodes(p, rows, cat, whiten)
        k = [max(np.abs(w.T @ b_x).max() for _, b_x in tool.cross_terms(p.A[i], p.C[i], cat))
             for i, w in zip(rows, whiten)]
        np.testing.assert_allclose(got, obs.FRINGE * np.square(k), rtol=1e-12)
    squeezed = SqueezedDisplaced(disp=0.5 - 0.1j, r=0.6, phi=0.3)
    assert not obs._fringe_nodes(p, rows, squeezed, whiten).any()  # no guard: a polynomial


# the sweep's cat 35 at seed 3: its row 1 needs 139 nodes per axis, and levels below
# that agree to 1e-8 on a purity 1.7e-6 off the closed form
ACCIDENT = ("propagate-ohmic-pp", 0.02, CatState(4.9408832820555055 - 4.8614361192614455j,
                                           5.067171601504741 + 5.797147569382509j),
            5.4997229950664455, 1)


def test_fringe_guard_rejects_an_accidental_agreement_and_goes_on_to_the_right_value(
        monkeypatch):
    name, beta, cat, t_max, i = ACCIDENT
    p = compute_propagator(load_sample_model(name), TimeGrid.linspace(t_max, 12))
    bath = EquilibriumBath(beta)
    closed = _tool().closed_form(p, i, bath, cat)
    assert abs(obs.purity(p, i, bath, cat) - closed) <= 1e-12
    monkeypatch.setattr(obs, "FRINGE", 0.0)
    assert abs(obs.purity(p, i, bath, cat) - closed) > 1e-6

