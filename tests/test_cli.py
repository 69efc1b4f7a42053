"""End-to-end tests of the qbath command line driver, run in-process."""

import hashlib
import json
import struct

import numpy as np
import pytest

from qbath import (
    EquilibriumBath,
    TimeGrid,
    averaged_purity_number_ensemble,
    compute_propagator,
    parse_config,
)
from qbath.cli import main
from qbath.presets import stock_config, stock_model

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


def test_negative_seed_exits_2(tmp_path, capsys, sample_config):
    cfg = write_config(tmp_path, sample_config("validate-decoupled"))
    rc = main(["validate", "--config", cfg, "--seed", "-1"])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_threads_env_var(tmp_path, capsys, monkeypatch, sample_config):
    cfg = write_config(tmp_path, sample_config("validate-decoupled"))
    monkeypatch.setenv("QBATH_THREADS", "abc")
    assert main(["validate", "--config", cfg]) == 2
    monkeypatch.setenv("QBATH_THREADS", "0")
    assert main(["validate", "--config", cfg]) == 2
    monkeypatch.setenv("QBATH_THREADS", "2")
    assert main(["validate", "--config", cfg]) == 0
    capsys.readouterr()


def test_unstable_model_exits_2(tmp_path, capsys):
    doc = {
        "model": {"nu": 0.04, "coupling_family": "Custom",
                  "explicit": {"omegas": [0.04], "u_re": [0.35], "v_re": [0.35]}},
        "time_grid": {"t_max": 5.0, "steps": 10},
    }
    rc, _ = run(tmp_path, "propagate", doc)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_out_dir_exits_2(tmp_path, capsys, sample_config):
    doc = sample_config("propagate-ohmic-pp")
    doc.get("outputs", {}).pop("directory", None)
    cfg = write_config(tmp_path, doc)
    rc = main(["propagate", "--config", cfg])
    assert rc == 2
    assert "output directory" in capsys.readouterr().err


def test_quadrature_failure_exits_3(tmp_path, capsys):
    # widely separated cat lobes at high temperature: the purity integrand
    # oscillates too fast for the node cap, so the quadrature gives up
    doc = {
        "model": stock_config("rwa-n1-resonant"),
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


def test_propagate_artifacts_round_trip(tmp_path, sample_config):
    rc, out = run(tmp_path, "propagate", sample_config("propagate-ohmic-pp"))
    assert rc == 0
    p = compute_propagator(stock_model("ohmic-pp-n64"), TimeGrid.linspace(30.0, 300))

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
    assert sorted(man1["versions"]) == ["numpy", "python", "qbath", "scipy"]


def test_purity_summary_reports_the_first_of_tied_minima(tmp_path, monkeypatch, sample_config):
    # the resonant pair reaches |A|^2 = 1/2 at indices 45 and 135; round-off
    # one ulp lower at the later one must not move t_min
    def tied(p, rows, bath, s, **kwargs):
        vals = np.ones(p.n_times)
        vals[45], vals[135] = 0.7, np.nextafter(0.7, 0.0)
        return vals

    monkeypatch.setattr("qbath.cli.purity_rows", tied)
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


def test_ensemble_deterministic_across_thread_count(tmp_path):
    doc = {
        "model": SMALL_MODEL,
        "bath": {"kind": "sample_number", "beta": 2.0, "seed": 5},
        "oscillator": {"kind": "gaussian"},
        "time_grid": {"t_max": 40.0, "steps": 100},
        "experiment": {"kind": "number", "n_samples": 50, "seed": 9},
    }
    rc1, out1 = run(tmp_path, "ensemble", doc, "--threads", "1", outdir="t1")
    rc2, out2 = run(tmp_path, "ensemble", doc, "--threads", "2", outdir="t2")
    assert rc1 == rc2 == 0
    assert (out1 / "ensemble_summary.json").read_bytes() == \
        (out2 / "ensemble_summary.json").read_bytes()


def test_n_sweep_summary(tmp_path, sample_config):
    rc, out = run(tmp_path, "n-sweep", sample_config("n-sweep-ohmic-rwa"))
    assert rc == 0
    doc = load_json(out, "n_sweep_summary.json")
    assert doc["recurrence_onset_monotone"] is True
    assert -1.3 < doc["var_of_var_slope"] < -0.7
    assert [e["N"] for e in doc["entries"]] == [16, 24, 32]
    assert all(e["no_decay"] is False for e in doc["entries"])
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
    assert doc["var_of_var_slope"] is None


def test_n_sweep_reports_genuine_errors(tmp_path, capsys, monkeypatch, sample_config):
    # only a numerical failure of the plateau search means "no decay"
    def broken(*args, **kwargs):
        raise ValueError("broken")

    monkeypatch.setattr("qbath.cli.number_variance_of_variance", broken)
    rc, out = run(tmp_path, "n-sweep", sample_config("n-sweep-ohmic-rwa"))
    assert rc == 2
    assert "broken" in capsys.readouterr().err
    assert not (out / "n_sweep_summary.json").exists()


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


def test_rwa_compare_rejects_thermal_bath(tmp_path, capsys, sample_config):
    doc = sample_config("rwa-compare-squeezed")
    doc["bath"]["beta"] = 2.0
    rc, _ = run(tmp_path, "rwa-compare", doc)
    assert rc == 2
    capsys.readouterr()
