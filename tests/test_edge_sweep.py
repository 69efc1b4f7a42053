"""tools/edge_sweep.py: sum-rule defects of random models near the stability edge."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from qbath import propagator

TOOL = Path(__file__).resolve().parents[1] / "tools" / "edge_sweep.py"


def _tool():
    spec = importlib.util.spec_from_file_location("edge_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_prints_one_line_per_model_and_the_count(capsys):
    assert _tool().main(["--seed", "0", "--models", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    for k, line in enumerate(lines[:-1]):
        assert re.fullmatch(
            rf"model {k}: N = +\d+, delta = \S+, t_max = +\S+: (sup defect \S+|\w+Error: .+)", line
        ), line
    assert re.fullmatch(r"\d of 5 models above 1e-10", lines[-1])
    # the defect refusal is lifted for the sweep only
    assert propagator.SUM_RULE_TOL == 1e-10


@pytest.mark.parametrize("couplings", ["complex", "real"])
def test_sweep_takes_the_route_of_its_couplings(capsys, couplings):
    assert _tool().main(["--seed", "1", "--models", "3", "--couplings", couplings]) == 0
    assert re.fullmatch(r"\d of 3 models above 1e-10", capsys.readouterr().out.splitlines()[-1])
    route = {"complex": "williamson-svd", "real": "quadrature-svd"}[couplings]
    rng = np.random.default_rng(1)
    for _ in range(3):
        m, _, t_max = _tool().edge_model(rng, couplings)
        assert (m.u.imag.any() or m.v.imag.any()) == (couplings == "complex")
        grid = propagator.TimeGrid.linspace(t_max, 40)
        assert propagator.compute_propagator(m, grid).route == route


def test_real_draws_are_the_real_parts_of_the_complex_draws():
    complex_draw, real_draw = (_tool().draw(np.random.default_rng(5), kind)
                               for kind in ("complex", "real"))
    for c, r in zip(complex_draw, real_draw):
        np.testing.assert_array_equal(np.real(c), r)


def test_models_sit_just_inside_the_stability_edge():
    _check_inside_the_edge("complex")


def test_real_models_sit_just_inside_the_stability_edge():
    _check_inside_the_edge("real")


def _check_inside_the_edge(couplings):
    tool = _tool()
    rng = np.random.default_rng(3)
    for _ in range(5):
        m, delta, t_max = tool.edge_model(rng, couplings)
        assert 1e-14 <= delta <= 1e-6 and 20.0 <= t_max <= 200.0 and m.n_modes <= 12
        assert propagator.validate_model(m) > 0.0
        # past the edge by twice delta, the same couplings are unstable
        scale = (1.0 + delta) / (1.0 - delta)
        past = type(m)(m.nu, m.omegas, scale * m.u, scale * m.v)
        assert propagator.validate_model(past) <= 0.0
