"""End-to-end tests of the qbath command line driver, run in-process."""

import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qbath
from qbath import (
    BLAS_THREAD_VARS,
    EquilibriumBath,
    TimeGrid,
    averaged_purity_number_ensemble,
    compute_propagator,
    parse_config,
)
from qbath import laguerre
from qbath import cli
from qbath.cli import _json_text, main
from qbath.config import _MAX_SIZE
from qbath.errors import NumericalError
from qbath.model import ModelSpec

from conftest import load_sample_config, load_sample_model

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SMALL_MODEL = {
    "nu": 1.0,
    "coupling_family": "RWA",
    "spectral": {"family": "OhmicExpCutoff", "N": 16, "strength": 0.1,
                 "cutoff": 5.0, "omega_min": 0.5, "omega_max": 1.6},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, subcommand, doc, *extra, outdir="out"):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / outdir
    rc = main([subcommand, "--config", cfg, "--out", str(out), *extra])
    return rc, out


def load_json(out, name):
    return json.loads((out / name).read_text())


def read_csv(out, name):
    lines = (out / name).read_text().splitlines()
    header = lines[0].split(",")
    data = np.loadtxt(out / name, delimiter=",", skiprows=1)
    return header, data


def test_validate_prints_min_eigenvalue(tmp_path, capsys, sample_config):
    cfg = write_config(tmp_path, sample_config("validate-decoupled"))
    rc = main(["validate", "--config", cfg])
    out = capsys.readouterr().out
    assert rc == 0
    assert "min eigenvalue 0.5" in out
    assert "stable true" in out
    # no --out and no outputs.directory: nothing written
    assert sorted(q.name for q in tmp_path.iterdir()) == ["config.json"]


def test_validate_writes_artifacts(tmp_path, sample_config):
    rc, out = run(tmp_path, "validate", sample_config("validate-decoupled"))
    assert rc == 0
    doc = load_json(out, "validate.json")
    assert doc["min_eigenvalue"] == pytest.approx(0.5, abs=1e-12)
    assert doc["stable"] is True
    man = load_json(out, "manifest.json")
    assert man["subcommand"] == "validate"
    assert man["artifacts"] == ["validate.json"]


def test_unknown_config_key_exits_2(tmp_path, capsys):
    rc, _ = run(tmp_path, "validate", {"modle": {"nu": 1.0}})
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert "modle" in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["validate", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("subcommand, name, edit, message", [
    # an occupation past the int64 range, a cat lobe whose square is past the
    # float range, and nesting past the parser's recursion limit
    ("observables", "observables-rwa-coherent",
     lambda doc: doc.update(bath={"kind": "number", "n": [10**30] + [0] * 63}), "bath.n"),
    ("purity", "purity-cat-vacuum", lambda doc: doc["oscillator"].update(alpha_re=1e200),
     "oscillator: cat lobes"),
    ("validate", None, None, "nested too deeply"),
])
def test_malformed_config_exits_2(tmp_path, capsys, sample_config, subcommand, name, edit,
                                  message):
    path = tmp_path / "config.json"
    if name is None:
        path.write_text("[" * 100000)
    else:
        doc = sample_config(name)
        edit(doc)
        path.write_text(json.dumps(doc))
    rc = main([subcommand, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and message in err


def test_negative_seed_exits_2(tmp_path, capsys, sample_config):
    cfg = write_config(tmp_path, sample_config("validate-decoupled"))
    rc = main(["validate", "--config", cfg, "--seed", "-1"])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_unstable_model_exits_2(tmp_path, capsys):
    doc = {
        "model": {"nu": 0.04, "coupling_family": "Custom",
                  "spectral": {"family": "Explicit", "N": 1},
                  "explicit": {"omegas": [0.04], "u_re": [0.35], "v_re": [0.35]}},
        "time_grid": {"t_max": 5.0, "steps": 10},
    }
    rc, _ = run(tmp_path, "propagate", doc)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: model is not stable")


def test_unstable_explicit_model_exits_2(tmp_path, capsys):
    # a well-formed config whose quadratic form is not positive-definite
    doc = {
        "model": {"nu": 1.0, "coupling_family": "Custom",
                  "spectral": {"family": "Explicit", "N": 1},
                  "explicit": {"omegas": [0.04], "u_re": [0.35], "v_re": [0.35]}},
        "time_grid": {"t_max": 5.0, "steps": 10},
    }
    rc, out = run(tmp_path, "propagate", doc)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: model is not stable")
    assert not (out / "propagator.csv").exists()


def _explicit_doc(family, v_re=None):
    explicit = {"omegas": [0.8, 1.3], "u_re": [0.3, 0.1]}
    if v_re is not None:
        explicit["v_re"] = v_re
    return {"model": {"nu": 1.0, "coupling_family": family,
                      "spectral": {"family": "Explicit", "N": 2}, "explicit": explicit}}


@pytest.mark.parametrize("family, v_re, error", [
    pytest.param("RWA", [0.2, 0.0], "RWA family requires v_k = 0", id="rwa-nonzero-v"),
    pytest.param("PositionPosition", [0.3, 0.2],
                 "PositionPosition family requires u_k = v_k, both real", id="pp-v-not-u"),
    pytest.param("RWA", None, None, id="rwa-without-v"),
    pytest.param("PositionPosition", None, None, id="pp-without-v"),
    pytest.param("Custom", None, None, id="custom-without-v"),
    pytest.param("PositionPosition", [0.3, 0.1], None, id="pp-v-equal-u"),
    pytest.param("Custom", [0.2, 0.0], None, id="custom-given-v"),
])
def test_explicit_v_must_agree_with_the_coupling_family(tmp_path, capsys, family, v_re, error):
    # a given v is checked against the family, never replaced; an absent v is the family's
    doc = _explicit_doc(family, v_re)
    rc = main(["validate", "--config", write_config(tmp_path, doc)])
    err = capsys.readouterr().err
    if error is not None:
        assert rc == 2
        assert err.startswith(f"error: {error}")
        return
    assert rc == 0
    m = parse_config(doc).model
    if v_re is not None:
        want = np.asarray(v_re) + 0j
    else:
        want = m.u if family == "PositionPosition" else np.zeros(2, complex)
        assert ModelSpec(m.nu, m.omegas, m.u, coupling_family=family).v.tobytes() == want.tobytes()
    assert m.v.tobytes() == want.tobytes()


def test_missing_out_dir_exits_2(tmp_path, capsys, sample_config):
    doc = sample_config("propagate-ohmic-pp")
    doc.get("outputs", {}).pop("directory", None)
    cfg = write_config(tmp_path, doc)
    rc = main(["propagate", "--config", cfg])
    assert rc == 2
    assert "output directory" in capsys.readouterr().err


def test_unwritable_out_dir_exits_2_after_the_computation(tmp_path, capsys, sample_config):
    blocker = tmp_path / "out"
    blocker.write_text("a file, not a directory")
    rc, _ = run(tmp_path, "validate", sample_config("validate-decoupled"))
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("min eigenvalue")  # the subcommand ran first
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    assert blocker.read_text() == "a file, not a directory"


def test_quadrature_failure_exits_3(tmp_path, capsys):
    # widely separated cat lobes at high temperature: the purity integrand
    # oscillates too fast for the node cap, so the quadrature gives up
    doc = {
        "model": load_sample_config("purity-cat-vacuum")["model"],
        "bath": {"kind": "equilibrium", "beta": 0.02},
        "oscillator": {"kind": "cat", "alpha_re": 7.0, "beta_re": -7.0},
        "time_grid": {"t_max": 2.0, "steps": 4},
    }
    rc, _ = run(tmp_path, "purity", doc)
    err = capsys.readouterr().err
    assert rc == 3
    report = json.loads(err)
    assert report["error"] == "AccuracyError"
    assert "did not converge" in report["message"]
    assert "at grid index 0 (t = 0.0)" in report["message"]  # the first row in row order


@pytest.mark.parametrize("alpha_re", [1e150, 1.3e154])
def test_far_apart_cat_lobes_exit_3_with_only_the_error_line(tmp_path, capsys, alpha_re):
    # no level resolves the fringes of such lobes, so the quadrature refuses the first
    # row before it evaluates a node, where the cross terms would overflow
    doc = json.loads((CONFIGS / "purity-cat-vacuum.json").read_text())
    doc["oscillator"]["alpha_re"] = alpha_re
    rc, _ = run(tmp_path, "purity", doc)
    err = capsys.readouterr().err
    assert rc == 3
    (line,) = err.splitlines()
    report = json.loads(line)
    assert report["error"] == "AccuracyError"
    assert "did not converge" in report["message"]
    assert "at grid index 0 (t = 0.0)" in report["message"]


@pytest.mark.parametrize("subcommand, config, key, value", [
    ("ensemble", "ensemble-number", "disp_re", 1.4e154),
    ("rwa-compare", "rwa-compare-squeezed", "disp_im", 1e300),
])
def test_displacement_past_the_float_range_exits_2(tmp_path, capsys, sample_config, subcommand,
                                                   config, key, value):
    # |disp|^2 overflows the moments: a state no configuration can have
    doc = sample_config(config)
    doc["oscillator"][key] = value
    rc, out = run(tmp_path, subcommand, doc)
    assert rc == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: oscillator: displacement past the float range")
    assert not out.exists()  # refused while the config loads


def test_displacement_whose_square_is_in_range_runs(tmp_path, sample_config):
    doc = sample_config("ensemble-number")
    doc["oscillator"]["disp_re"] = 1e154  # |disp|^2 = 1e308
    rc, out = run(tmp_path, "ensemble", doc)
    assert rc == 0
    assert (out / "ensemble_summary.json").exists()


def test_overflow_in_a_subcommand_exits_3_before_its_summary(tmp_path, capsys, sample_config):
    # a cat lobe of 1e150 overflows exp in the characteristic function the generator
    # residual evaluates: numpy raises under the subcommand's errstate, where the residual
    # would have been NaN in the JSON
    doc = sample_config("purity-cat-vacuum")
    doc["oscillator"]["alpha_re"] = 1e150
    rc, out = run(tmp_path, "master-eq", doc)
    assert rc == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "FloatingPointError",
                                "message": "overflow encountered in exp"}
    assert not (out / "master_eq.csv").exists()  # computed before the residual, never written
    assert not (out / "master_eq_residual.json").exists()
    assert not (out / "manifest.json").exists()


def test_json_artifacts_refuse_non_finite_numbers(tmp_path, capsys, monkeypatch, sample_config):
    for value in (math.nan, math.inf):
        with pytest.raises(NumericalError, match="^summary.json: Out of range float"):
            _json_text("summary.json", {"max_residual": value})
        # through main: exit 3 naming the file, with nothing written
        monkeypatch.setitem(cli._DISPATCH, "validate",
                            lambda cfg: {"summary.json": {"max_residual": value}})
        rc, out = run(tmp_path, "validate", sample_config("validate-decoupled"))
        assert rc == 3
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "NumericalError"
        assert report["message"].startswith("summary.json: Out of range float")
        assert not out.exists()


def test_huge_number_occupation_exits_3_promptly(tmp_path):
    # an order past laguerre.MAX_ORDER is refused before the recurrence's first step
    doc = json.loads((CONFIGS / "observables-rwa-coherent.json").read_text())
    doc["bath"] = {"kind": "number", "n": [2**62] + [0] * (doc["model"]["spectral"]["N"] - 1)}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(qbath.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from qbath.cli import main; sys.exit(main())",
         "observables", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3
    report = json.loads(proc.stderr)
    assert report["error"] == "AccuracyError"
    assert f"order {2**62} " in report["message"]
    assert f"MAX_ORDER = {laguerre.MAX_ORDER}" in report["message"]


@pytest.mark.parametrize("subcommand, section, key", [
    ("validate", "spectral", "N"),
    ("propagate", "time_grid", "steps"),
    ("ensemble", "experiment", "n_samples"),
])
def test_refused_allocation_exits_3(tmp_path, run_python, subcommand, section, key):
    # a size within intp whose arrays the machine refuses: the address space is
    # capped so that the refusal does not depend on the overcommit policy
    pytest.importorskip("resource")
    doc = {"model": json.loads(json.dumps(SMALL_MODEL)), "time_grid": {"t_max": 5.0, "steps": 10}}
    if subcommand == "ensemble":  # a member matrix of 10**12 rows
        doc.update(bath={"kind": "sample_number", "beta": 2.0, "seed": 5},
                   oscillator={"kind": "gaussian"}, experiment={"kind": "number", "time_index": 5})
    (doc["model"] if section == "spectral" else doc)[section][key] = 10**12
    cfg, out = write_config(tmp_path, doc), str(tmp_path / "out")
    code = (
        "import contextlib, io, json, resource\n"
        "cap, hard = 2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "cap = cap if hard == resource.RLIM_INFINITY else min(cap, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "from qbath.cli import main\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        f"    rc = main([{subcommand!r}, '--config', {cfg!r}, '--out', {out!r}])\n"
        "print(json.dumps({'rc': rc, 'err': err.getvalue()}))"
    )
    result = json.loads(run_python(code).splitlines()[-1])
    assert result["rc"] == 3
    assert json.loads(result["err"])["error"].endswith("MemoryError")
    assert not Path(out).exists() or not any(Path(out).iterdir())


def test_linalg_failure_exits_3(tmp_path, capsys, monkeypatch, sample_config):
    # LinAlgError subclasses ValueError, yet a failed factorization is numerical
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr("qbath.cli.compute_propagator", singular)
    rc, _ = run(tmp_path, "propagate", sample_config("propagate-ohmic-pp"))
    assert rc == 3
    report = json.loads(capsys.readouterr().err)
    assert report == {"error": "LinAlgError", "message": "Singular matrix"}


def test_ill_conditioned_modes_exit_3(tmp_path, capsys, monkeypatch, sample_config):
    monkeypatch.setattr("qbath.propagator.COND_LIMIT", 1.0)
    rc, out = run(tmp_path, "propagate", sample_config("propagate-ohmic-pp"))
    assert rc == 3
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "NumericalError"
    assert report["message"].startswith("ill-conditioned normal modes")
    assert not (out / "propagator.csv").exists()


@pytest.mark.parametrize("subcommand, config", [
    ("propagate", "propagate-ohmic-pp"),
    ("observables", "observables-rwa-coherent"),
    ("purity", "purity-cat-vacuum"),
    ("master-eq", "master-eq-equilibrium"),
    pytest.param("propagate", "propagate-flat-custom", id="propagate-complex-custom"),
])
def test_sum_rule_contract_exits_3(tmp_path, capsys, monkeypatch, sample_config, subcommand,
                                   config):
    # rows scaled by 1 + 1e-9 break the sum rule by about 2e-9, twenty times the contract,
    # which compute_propagator enforces for every subcommand that propagates; every route,
    # v = 0 (observables-rwa-coherent) included, writes its rows in _trig_rows
    kernel = qbath.propagator._trig_rows

    def scaled_kernel(t, freqs, stack, out):
        kernel(t, freqs, stack, out)
        out *= 1.0 + 1e-9

    monkeypatch.setattr(qbath.propagator, "_trig_rows", scaled_kernel)
    doc = sample_config(config)
    rc, out = run(tmp_path, subcommand, doc)
    assert rc == 3
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "NumericalError"
    assert report["message"].startswith("sum-rule defect 2.0")
    assert report["message"].endswith("exceeds 1e-10")
    assert not out.exists()  # a failed run creates no output directory


@pytest.mark.parametrize("config, route", [
    ({"model": SMALL_MODEL, "time_grid": {"t_max": 10.0, "steps": 20}}, "number"),
    ("propagate-ohmic-pp", "quadrature-svd"),
    ("propagate-flat-custom", "williamson-svd"),
], ids=["rwa", "position-position", "complex-custom"])
def test_propagate_summary_names_the_route_and_its_cond_bound(tmp_path, sample_config, config,
                                                             route):
    doc = sample_config(config) if isinstance(config, str) else dict(config)
    doc["outputs"] = {"formats": ["json"]}
    rc, out = run(tmp_path, "propagate", doc)
    assert rc == 0
    summary = load_json(out, "propagate_summary.json")
    cfg = parse_config(doc)
    p = compute_propagator(cfg.model, cfg.grid)
    assert summary["route"] == p.route == route
    assert summary["cond_bound"] == p.cond_bound
    assert (p.cond_bound is None) == (route == "number")


def test_model_just_past_the_stability_edge_exits_2(tmp_path, capsys):
    # det S_xx = 0.04 - 0.2^2 is -3.6e-18 in the stored floats: the model is unstable
    doc = {
        "model": {"nu": 1.0, "coupling_family": "Custom",
                  "spectral": {"family": "Explicit", "N": 1},
                  "explicit": {"omegas": [0.04], "u_re": [0.1], "v_re": [0.1]}},
        "time_grid": {"t_max": 5.0, "steps": 10},
    }
    rc, out = run(tmp_path, "propagate", doc)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: model is not stable")
    assert not (out / "propagator.csv").exists()


def test_stability_edge_exits_3(tmp_path, capsys, no_cholesky, sample_config):
    # a stable model without a Cholesky factor has no route: a typed numerical failure
    rc, out = run(tmp_path, "propagate", sample_config("propagate-ohmic-pp"))
    assert rc == 3
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "NumericalError"
    assert "stability edge" in report["message"]
    assert not (out / "propagator.csv").exists()


def test_propagate_artifacts_round_trip(tmp_path, sample_config):
    rc, out = run(tmp_path, "propagate", sample_config("propagate-ohmic-pp"))
    assert rc == 0
    p = compute_propagator(load_sample_model("propagate-ohmic-pp"), TimeGrid.linspace(30.0, 300))

    raw = (out / "propagator_bd.bin").read_bytes()
    n_modes, n_times = struct.unpack_from("<QQ", raw)
    assert (n_modes, n_times) == (64, 301)
    body = np.frombuffer(raw, dtype="<c16", offset=16)
    b = body[: n_times * n_modes].reshape(n_times, n_modes)
    d = body[n_times * n_modes:].reshape(n_times, n_modes)
    assert np.array_equal(b, p.B)
    assert np.array_equal(d, p.D)

    header, data = read_csv(out, "propagator.csv")
    assert header == ["t", "re_A", "im_A", "re_C", "im_C", "sum_rule_defect"]
    # 17 significant digits make the decimal round trip exact
    assert np.array_equal(data[:, 1] + 1j * data[:, 2], p.A)
    assert np.array_equal(data[:, 3] + 1j * data[:, 4], p.C)
    assert np.max(np.abs(data[:, 5])) < 1e-10


def test_propagate_byte_identity_and_manifest(tmp_path, sample_config):
    doc = sample_config("propagate-ohmic-pp")
    rc1, out1 = run(tmp_path, "propagate", doc, outdir="out1")
    rc2, out2 = run(tmp_path, "propagate", doc, outdir="out2")
    assert rc1 == rc2 == 0
    for name in ("propagator.csv", "propagator_bd.bin"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    man1, man2 = load_json(out1, "manifest.json"), load_json(out2, "manifest.json")
    man1.pop("wall_time_s"), man2.pop("wall_time_s")
    assert man1 == man2
    config_bytes = (tmp_path / "config.json").read_bytes()
    assert man1["config_sha256"] == hashlib.sha256(config_bytes).hexdigest()
    assert sorted(man1["artifacts"]) == ["propagator.csv", "propagator_bd.bin"]
    assert sorted(man1["versions"]) == ["numpy", "python", "qbath"]


def test_propagate_bytes_do_not_depend_on_blas_threads_env(tmp_path):
    # OpenBLAS bits depend on its thread count; qbath pins one unless the caller sets it
    config = Path(__file__).resolve().parents[1] / "configs" / "propagate-ohmic-pp.json"
    src = str(Path(qbath.__file__).resolve().parents[1])

    def propagate(threads, first_import):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env.update(dict.fromkeys(BLAS_THREAD_VARS, threads) if threads else {})
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        out = tmp_path / f"{first_import}-{threads}"
        code = f"import sys, {first_import}; from qbath.cli import main; sys.exit(main())"
        subprocess.run(
            [sys.executable, "-c", code, "propagate", "--config", str(config), "--out", str(out)],
            check=True, env=env, timeout=120,
        )
        return out, load_json(out, "manifest.json")["blas_threads"]

    (unset, unset_vars), (one, one_vars) = (propagate(t, "qbath") for t in (None, "1"))
    for name in ("propagator.csv", "propagator_bd.bin"):
        assert (unset / name).read_bytes() == (one / name).read_bytes()
    assert unset_vars == one_vars == dict.fromkeys(BLAS_THREAD_VARS, "1")
    # numpy imported first has read the variables already: the manifest does not guess
    assert propagate("1", "numpy")[1] is None


def test_ensemble_bytes_do_not_depend_on_blas_threads_env(tmp_path):
    # one stream per ensemble: the same files for any BLAS thread setting, other ones
    # for another seed
    configs = Path(__file__).resolve().parents[1] / "configs"
    src = str(Path(qbath.__file__).resolve().parents[1])

    def ensemble(name, threads, *extra):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env.update(dict.fromkeys(BLAS_THREAD_VARS, threads) if threads else {})
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        out = tmp_path / f"{name}-{threads}-{len(extra)}"
        config = configs / f"{name}.json"
        subprocess.run(
            [sys.executable, "-c", "import sys; from qbath.cli import main; sys.exit(main())",
             "ensemble", "--config", str(config), "--out", str(out), *extra],
            check=True, env=env, timeout=120,
        )
        # every data file; the manifest records the wall time and the thread variables
        return {f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.json"}

    for name in ("ensemble-number", "ensemble-coherent"):
        unset, one = ensemble(name, None), ensemble(name, "1")
        assert list(unset) == ["ensemble_summary.json"]
        assert unset == one
        reseeded = ensemble(name, None, "--seed", "8")
        assert reseeded["ensemble_summary.json"] != unset["ensemble_summary.json"]


def test_tests_run_at_the_pinned_blas_thread_count():
    # conftest imports qbath before numpy, so in-process runs record the pin
    assert qbath.BLAS_THREADS is not None


def test_validate_leaves_scipy_unloaded(tmp_path, sample_config, run_python):
    # scipy is a test dependency only; the manifest no longer records its version
    cfg = write_config(tmp_path, sample_config("validate-decoupled"))
    code = ("import sys; from qbath.cli import main; "
            f"rc = main(['validate', '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]); "
            "print(rc, 'scipy' in sys.modules)")
    assert run_python(code).split()[-2:] == ["0", "False"]


def test_purity_summary_reports_the_first_of_tied_minima(tmp_path, monkeypatch, sample_config):
    # the resonant pair reaches |A|^2 = 1/2 at indices 45 and 135; round-off
    # one ulp lower at the later one must not move t_min
    def tied(p, rows, bath, s, **kwargs):
        vals = np.ones(p.n_times)
        vals[45], vals[135] = 0.7, np.nextafter(0.7, 0.0)
        return vals

    monkeypatch.setattr("qbath.cli.purity", tied)
    doc = sample_config("rwa-compare-squeezed")
    doc["outputs"] = {"formats": ["json"]}
    rc, out = run(tmp_path, "purity", doc)
    assert rc == 0
    doc = load_json(out, "purity_summary.json")
    assert doc["t_min"] == pytest.approx(8.975979010256552 / 4.0, abs=1e-12)
    assert doc["min_purity"] == 0.7


def test_observables_purity_plateau(tmp_path, sample_config):
    rc, out = run(tmp_path, "observables", sample_config("observables-rwa-coherent"))
    assert rc == 0
    header, data = read_csv(out, "observables.csv")
    assert header == ["t", "mean_x", "mean_p", "var_x", "var_p", "purity"]
    assert data[-1, 5] > 0.999


def test_purity_summary(tmp_path, sample_config):
    rc, out = run(tmp_path, "purity", sample_config("purity-cat-vacuum"))
    assert rc == 0
    doc = load_json(out, "purity_summary.json")
    assert doc["min_purity"] == pytest.approx(0.6124672682577006, abs=1e-6)
    assert doc["t_min"] == pytest.approx(2.243994752564138, abs=1e-9)
    assert doc["final_purity"] > 0.999
    header, data = read_csv(out, "purity.csv")
    assert header == ["t", "purity"]
    assert np.min(data[:, 1]) == pytest.approx(doc["min_purity"], abs=1e-12)


def test_master_eq_equilibrium_outputs(tmp_path, sample_config):
    rc, out = run(tmp_path, "master-eq", sample_config("master-eq-equilibrium"))
    assert rc == 0
    header, data = read_csv(out, "master_eq.csv")
    assert header == ["t", "re_xi", "im_xi", "re_zeta", "im_zeta", "re_kappa",
                      "re_mu", "im_mu", "re_sigma", "im_sigma", "denom", "valid_flag"]
    assert np.all(data[:, 8] == 0.0) and np.all(data[:, 9] == 0.0)  # sigma column
    assert np.all(data[:, 11] == 1.0)
    assert data[0, 5] == 0.0 and data[0, 6] == 0.0 and data[0, 7] == 0.0
    rep = load_json(out, "master_eq_residual.json")
    assert rep["max_residual"] < 1e-8
    assert rep["flagged_nodes"] == 0


def test_master_eq_checks_its_probe_rows_in_one_residual_call(tmp_path, sample_config,
                                                              monkeypatch):
    real, calls = qbath.mastereq.generator_residual, []

    def counted(p, rows, *args, **kwargs):
        calls.append(np.asarray(rows).tolist())
        return real(p, rows, *args, **kwargs)

    monkeypatch.setattr("qbath.cli.mastereq.generator_residual", counted)
    rc, out = run(tmp_path, "master-eq", sample_config("master-eq-equilibrium"))
    assert rc == 0
    rep = load_json(out, "master_eq_residual.json")
    assert sorted(rep) == ["flagged_nodes", "max_residual", "probe_indices", "window"]
    assert calls == [rep["probe_indices"]] and len(rep["probe_indices"]) == 8
    assert rep["max_residual"] < 1e-8 and rep["flagged_nodes"] == 0
    assert len(rep["window"]) == 2 and rep["window"][0] < rep["window"][1]


def test_ensemble_number_summary(tmp_path, sample_config):
    rc, out = run(tmp_path, "ensemble", sample_config("ensemble-number"))
    assert rc == 0
    doc = load_json(out, "ensemble_summary.json")
    assert doc["kind"] == "number"

    mv = doc["mean_var_x"]
    assert abs(mv["estimate"] - doc["equilibrium_var_x"]) < 4 * mv["std_error"]
    pv = doc["population_var_of_var_x"]
    assert abs(pv["estimate"] - doc["predicted_var_of_var_x"]) < 4 * pv["std_error"]
    ap = doc["averaged_purity"]
    assert abs(ap["estimate"] - doc["equilibrium_purity"]) < 4 * ap["std_error"]
    assert mv["n_samples"] == 400 and mv["seed"] == 7


def test_ensemble_coherent_summary(tmp_path, sample_config):
    rc, out = run(tmp_path, "ensemble", sample_config("ensemble-coherent"))
    assert rc == 0
    doc = load_json(out, "ensemble_summary.json")
    assert doc["kind"] == "coherent"

    for key, pred in (("mean_x_sq", doc["predicted_x_sq"]),
                      ("mean_p_sq", doc["predicted_p_sq"])):
        s = doc[key]
        assert abs(s["estimate"] - pred) < 4 * s["std_error"]
    for key, pred in (("c1_re", doc["predicted_c1"][0]),
                      ("c1_im", doc["predicted_c1"][1]),
                      ("c2_re", 0.0), ("c2_im", 0.0)):
        s = doc[key]
        assert abs(s["estimate"] - pred) < 4 * s["std_error"]
    assert doc["predicted_c2"] == [0.0, 0.0]
    assert doc["sample_purity"] > 0.999
    # every member's purity is the zero-temperature purity, which the summary states
    assert doc["sample_purity"] == pytest.approx(doc["zero_temperature_purity"], rel=1e-14)
    assert doc["displaced_vacuum_defect"] < 1e-3


def test_ensemble_rejects_wrong_bath(tmp_path, capsys, sample_config):
    doc = sample_config("ensemble-number")
    doc["bath"] = {"kind": "equilibrium", "beta": 2.0}
    rc, _ = run(tmp_path, "ensemble", doc)
    assert rc == 2

    doc = sample_config("ensemble-number")
    doc["experiment"]["kind"] = "coherent"
    rc, _ = run(tmp_path, "ensemble", doc, outdir="out2")
    assert rc == 2
    capsys.readouterr()


def test_ensemble_without_a_plateau_needs_a_time_index(tmp_path, capsys, sample_config):
    # the decoupled model never decays, so an auto time index has no plateau to probe
    doc = sample_config("ensemble-number")
    doc["model"] = sample_config("validate-decoupled")["model"]
    rc, out = run(tmp_path, "ensemble", doc)
    assert rc == 3
    assert "no plateau" in capsys.readouterr().err
    assert not out.exists()

    doc["experiment"]["time_index"] = 10
    rc, out = run(tmp_path, "ensemble", doc, outdir="indexed")
    assert rc == 0
    assert (out / "ensemble_summary.json").exists()


@pytest.mark.parametrize("kind", ["number", "coherent"])
def test_one_sample_ensemble_exits_2(tmp_path, capsys, kind):
    doc = {
        "model": SMALL_MODEL,
        "bath": {"kind": f"sample_{kind}", "beta": 2.0, "seed": 5},
        "oscillator": {"kind": "gaussian"},
        "time_grid": {"t_max": 40.0, "steps": 100},
        "experiment": {"kind": kind, "n_samples": 1, "seed": 9},
    }
    rc, out = run(tmp_path, "ensemble", doc)
    assert rc == 2
    assert "n_samples must be >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_ensemble_beyond_the_member_index_range_exits_2(tmp_path, capsys):
    # member indices are array indices: more members than any array holds
    doc = {
        "model": SMALL_MODEL,
        "bath": {"kind": "sample_coherent", "beta": 2.0, "seed": 5},
        "oscillator": {"kind": "gaussian"},
        "time_grid": {"t_max": 40.0, "steps": 100},
        "experiment": {"kind": "coherent", "n_samples": _MAX_SIZE + 1},
    }
    rc, out = run(tmp_path, "ensemble", doc)
    assert rc == 2
    err = capsys.readouterr().err
    assert f"n_samples = {_MAX_SIZE + 1} exceeds the largest array size" in err
    assert not out.exists()


def test_number_ensemble_purity_members_are_its_variance_members(tmp_path):
    # more members than the purity's 1000: the purity takes the first 1000 of them
    doc = {
        "model": SMALL_MODEL,
        "bath": {"kind": "sample_number", "beta": 2.0, "seed": 5},
        "oscillator": {"kind": "squeezed", "r": 0.4, "phi": 0.3, "disp_re": 0.5},
        "time_grid": {"t_max": 40.0, "steps": 100},
        "experiment": {"kind": "number", "n_samples": 1003, "seed": 9, "time_index": 60},
    }
    rc, out = run(tmp_path, "ensemble", doc)
    assert rc == 0
    summary = load_json(out, "ensemble_summary.json")
    assert summary["mean_var_x"]["n_samples"] == 1003
    cfg = parse_config(doc)
    p = compute_propagator(cfg.model, cfg.grid)
    expected = averaged_purity_number_ensemble(p, 60, 2.0, cfg.oscillator, 1000, 9)
    assert summary["averaged_purity"] == {"estimate": expected.estimate,
                                          "std_error": expected.std_error,
                                          "n_samples": 1000, "seed": 9}


def test_seed_precedence(tmp_path):
    doc = {
        "model": SMALL_MODEL,
        "bath": {"kind": "sample_number", "beta": 2.0, "seed": 5},
        "oscillator": {"kind": "gaussian"},
        "time_grid": {"t_max": 40.0, "steps": 100},
        "experiment": {"kind": "number", "n_samples": 50, "seed": 9},
    }
    rc, out = run(tmp_path, "ensemble", doc, outdir="o1")
    assert rc == 0
    assert load_json(out, "ensemble_summary.json")["mean_var_x"]["seed"] == 9

    rc, out = run(tmp_path, "ensemble", doc, "--seed", "123", outdir="o2")
    assert rc == 0
    assert load_json(out, "ensemble_summary.json")["mean_var_x"]["seed"] == 123
    assert load_json(out, "manifest.json")["seed"] == 123

    # --seed replaces a sampled bath's seed too: the same bath as bath.seed = 123
    doc_obs = {key: doc[key] for key in ("model", "bath", "oscillator", "time_grid")}
    rc, out = run(tmp_path, "observables", doc_obs, "--seed", "123", outdir="o5")
    doc_obs["bath"] = dict(doc_obs["bath"], seed=123)
    rc_ref, ref = run(tmp_path, "observables", doc_obs, outdir="o6")
    assert rc == rc_ref == 0
    assert (out / "observables.csv").read_bytes() == (ref / "observables.csv").read_bytes()

    # no experiment section: the sampled-bath seed is the fallback
    doc_fb = {
        "model": SMALL_MODEL,
        "bath": {"kind": "sample_coherent", "beta": 1.0, "seed": 5},
        "oscillator": {"kind": "gaussian"},
        "time_grid": {"t_max": 40.0, "steps": 100},
    }
    rc, out = run(tmp_path, "ensemble", doc_fb, outdir="o3")
    assert rc == 0
    summary = load_json(out, "ensemble_summary.json")["mean_x_sq"]
    assert summary["seed"] == 5
    assert summary["n_samples"] == 1000

    # an experiment section without a seed falls back to the sampled-bath seed too
    doc_fb["experiment"] = {"kind": "coherent", "n_samples": 40}
    rc, out = run(tmp_path, "ensemble", doc_fb, outdir="o4")
    assert rc == 0
    summary = load_json(out, "ensemble_summary.json")["mean_x_sq"]
    assert summary["seed"] == 5
    assert summary["n_samples"] == 40


def test_ensemble_deterministic_across_thread_count(tmp_path):
    doc = {
        "model": SMALL_MODEL,
        "bath": {"kind": "sample_number", "beta": 2.0, "seed": 5},
        "oscillator": {"kind": "gaussian"},
        "time_grid": {"t_max": 40.0, "steps": 100},
        "experiment": {"kind": "number", "n_samples": 50, "seed": 9},
    }
    rc1, out1 = run(tmp_path, "ensemble", doc, outdir="t1")
    rc2, out2 = run(tmp_path, "ensemble", doc, outdir="t2")
    assert rc1 == rc2 == 0
    assert (out1 / "ensemble_summary.json").read_bytes() == \
        (out2 / "ensemble_summary.json").read_bytes()


# a decaying and a no-decay n-sweep entry carry the same keys
N_SWEEP_ENTRY_KEYS = {"N", "recurrence_onset", "no_decay", "plateau_sup_A", "plateau_t",
                      "var_of_var_x"}


def test_n_sweep_summary(tmp_path, sample_config):
    rc, out = run(tmp_path, "n-sweep", sample_config("n-sweep-ohmic-rwa"))
    assert rc == 0
    doc = load_json(out, "n_sweep_summary.json")
    assert doc["recurrence_onset_monotone"] is True
    assert -1.3 < doc["var_of_var_slope"] < -0.7
    assert [e["N"] for e in doc["entries"]] == [16, 24, 32]
    assert all(e["no_decay"] is False for e in doc["entries"])
    assert all(set(e) == N_SWEEP_ENTRY_KEYS for e in doc["entries"])
    onsets = [e["recurrence_onset"] for e in doc["entries"]]
    assert onsets == sorted(onsets)


def test_n_sweep_decoupled_flags_no_decay(tmp_path):
    doc = {
        "model": {"nu": 1.0, "coupling_family": "RWA",
                  "spectral": {"family": "OhmicExpCutoff", "N": 8, "strength": 0.0,
                               "cutoff": 5.0, "omega_min": 0.5, "omega_max": 1.6}},
        "bath": {"kind": "equilibrium", "beta": 1.0},
        "oscillator": {"kind": "gaussian"},
        "time_grid": {"t_max": 50.0, "steps": 120},
        "experiment": {"kind": "n-sweep", "n_list": [8, 16, 32]},
    }
    rc, out = run(tmp_path, "n-sweep", doc)
    assert rc == 0
    doc = load_json(out, "n_sweep_summary.json")
    for entry in doc["entries"]:
        assert entry["no_decay"] is True
        assert abs(entry["plateau_sup_A"] - 1.0) < 1e-12
        assert entry["plateau_t"] is None
        assert set(entry) == N_SWEEP_ENTRY_KEYS
    assert doc["var_of_var_slope"] is None


@pytest.mark.parametrize("variant", ["sample", "pp-flat-units"])
def test_n_sweep_builds_each_n_from_the_band(tmp_path, monkeypatch, sample_config, variant):
    # each N of the sweep is the model the config gives with model.spectral.N = N, bit for bit
    doc = sample_config("n-sweep-ohmic-rwa")
    if variant == "pp-flat-units":
        doc["model"] = {"nu": 1.3, "coupling_family": "PositionPosition",
                        "units": {"hbar": 2.5, "mass": 0.7},
                        "spectral": {"family": "FlatBand", "strength": 0.01,
                                     "omega_min": 0.4, "omega_max": 2.0, "N": 8}}
    built, real = [], qbath.cli.compute_propagator
    monkeypatch.setattr("qbath.cli.compute_propagator",
                        lambda m, grid: built.append(m) or real(m, grid))
    rc, _ = run(tmp_path, "n-sweep", doc)
    assert rc == 0
    assert [m.n_modes for m in built] == doc["experiment"]["n_list"]
    for m in built:
        doc["model"]["spectral"]["N"] = m.n_modes
        want = parse_config({"model": doc["model"]}).model
        for key in ("omegas", "u", "v"):
            assert getattr(m, key).tobytes() == getattr(want, key).tobytes(), key
        assert (m.nu, m.units, m.coupling_family) == (want.nu, want.units, want.coupling_family)


@pytest.mark.parametrize("model, n_list, message", [
    pytest.param(load_sample_config("purity-cat-vacuum")["model"], [16, 24],
                 "n-sweep requires a parametric spectral family, not 'Explicit'", id="explicit"),
    pytest.param(SMALL_MODEL, [2**63], "exceeds the largest array size", id="n-beyond-arrays"),
])
def test_n_sweep_refusals_exit_2(tmp_path, capsys, sample_config, model, n_list, message):
    doc = sample_config("n-sweep-ohmic-rwa")
    doc["model"] = model
    doc["experiment"]["n_list"] = n_list
    rc, out = run(tmp_path, "n-sweep", doc)
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (out / "n_sweep_summary.json").exists()


def test_n_sweep_reports_genuine_errors(tmp_path, capsys, monkeypatch, sample_config):
    # only a numerical failure of the plateau search means "no decay"
    def broken(*args, **kwargs):
        raise ValueError("broken")

    monkeypatch.setattr("qbath.cli.number_variance_of_variance", broken)
    rc, out = run(tmp_path, "n-sweep", sample_config("n-sweep-ohmic-rwa"))
    assert rc == 2
    assert "broken" in capsys.readouterr().err
    assert not (out / "n_sweep_summary.json").exists()


def test_n_sweep_numerical_errors_after_the_plateau_search_exit_3(tmp_path, capsys, monkeypatch,
                                                                    sample_config):
    # a plateau was found: a numerical failure past it is an error, not "no decay"
    def broken(*args, **kwargs):
        raise NumericalError("broken")

    monkeypatch.setattr("qbath.cli.number_variance_of_variance", broken)
    rc, out = run(tmp_path, "n-sweep", sample_config("n-sweep-ohmic-rwa"))
    assert rc == 3
    assert "broken" in capsys.readouterr().err
    assert not (out / "n_sweep_summary.json").exists()


@pytest.mark.parametrize("kind, code", [("coherent", 2), ("number", 2), ("n-sweep", 0), (None, 0)])
def test_n_sweep_checks_the_experiment_kind(tmp_path, capsys, sample_config, kind, code):
    doc = sample_config("n-sweep-ohmic-rwa")
    doc["experiment"]["n_list"] = [8, 16]
    if kind is None:
        del doc["experiment"]["kind"]
    else:
        doc["experiment"]["kind"] = kind
    rc, out = run(tmp_path, "n-sweep", doc)
    assert rc == code
    assert (out / "n_sweep_summary.json").exists() == (code == 0)
    if code == 2:
        assert f"experiment.kind 'n-sweep', not {kind!r}" in capsys.readouterr().err


def test_rwa_compare_report(tmp_path, sample_config):
    rc, out = run(tmp_path, "rwa-compare", sample_config("rwa-compare-squeezed"))
    assert rc == 0
    doc = load_json(out, "rwa_compare_report.json")
    assert doc["max_oracle_defect"] < 1e-7
    assert doc["symmetry_defect"] < 1e-7
    assert doc["absA2_min"] == pytest.approx(0.5, abs=0.03)
    header, data = read_csv(out, "rwa_compare.csv")
    assert header == ["t", "absA2", "purity", "oracle_purity"]
    assert np.max(np.abs(data[:, 2] - data[:, 3])) < 1e-7


@pytest.mark.parametrize("r, code", [(2.9, 0), (200.0, 2)])
def test_rwa_compare_strong_squeezing(tmp_path, capsys, sample_config, r, code):
    # r = 2.9 sits on the covariance bound to rounding; r = 200 overflows its moments
    doc = sample_config("rwa-compare-squeezed")
    doc["oscillator"]["r"] = r
    rc, _ = run(tmp_path, "rwa-compare", doc)
    assert rc == code
    if code == 2:
        assert "overflow" in capsys.readouterr().err


@pytest.mark.parametrize("r", [6.0, 9.0, 9.25, 12.0, 20.0])
def test_rwa_compare_closed_purity_of_strong_squeezing(tmp_path, sample_config, r,
                                                       squeezed_reference_check):
    # from r = 9.25 the closed-form purity exited 3 ("purity form not positive")
    doc = sample_config("rwa-compare-squeezed")
    doc["oscillator"]["r"] = r
    rc, out = run(tmp_path, "rwa-compare", doc)
    assert rc == 0
    _, data = read_csv(out, "rwa_compare.csv")
    squeezed_reference_check(data[:, 1], data[:, 2], data[:, 3])


def test_rwa_compare_rejects_thermal_bath(tmp_path, capsys, sample_config):
    doc = sample_config("rwa-compare-squeezed")
    doc["bath"]["beta"] = 2.0
    rc, _ = run(tmp_path, "rwa-compare", doc)
    assert rc == 2
    capsys.readouterr()
