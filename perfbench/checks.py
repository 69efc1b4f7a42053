"""Output checks for benchmark jobs.

Each check reads the artifacts one ``qbath`` job wrote and returns the list of
problems found; an empty list means the job passed.  A non-zero exit code is a
failure by itself.  The tolerances are the library's own acceptance
tolerances:

- ``validate``: the model is stable;
- ``propagate``: sup |sum-rule defect| < 1e-10, from the summary or the CSV;
- ``rwa-compare``: max oracle defect < 1e-7, and for a cat purity_min >= 1/2;
- ``master-eq``: max generator residual < 1e-8;
- every purity value lies in (0, 1]; a value may exceed 1 by at most the
  CLI's purity quadrature tolerance 1e-8, which also covers rounding of the
  closed forms at a pure state;
- ensemble estimates sit within 4 standard errors of the predicted values in
  the same summary.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

SUM_RULE_TOL = 1e-10
ORACLE_TOL = 1e-7
RESIDUAL_TOL = 1e-8
PURITY_SLACK = 1e-8
ENSEMBLE_SIGMAS = 4.0

# (estimate key, predicted value key, index into a [re, im] prediction or None)
_ENSEMBLE_PAIRS = {
    "number": [
        ("mean_var_x", "equilibrium_var_x", None),
        ("population_var_of_var_x", "predicted_var_of_var_x", None),
    ],
    "coherent": [
        ("mean_x_sq", "predicted_x_sq", None),
        ("mean_p_sq", "predicted_p_sq", None),
        ("c1_re", "predicted_c1", 0),
        ("c1_im", "predicted_c1", 1),
        ("c2_re", "predicted_c2", 0),
        ("c2_im", "predicted_c2", 1),
    ],
}


def _json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _column(path: Path, name: str) -> list[float]:
    with open(path, newline="") as fh:
        return [float(row[name]) for row in csv.DictReader(fh)]


def _purity_problems(values, where: str) -> list[str]:
    bad = [v for v in values if not (0.0 < v <= 1.0 + PURITY_SLACK)]
    return [f"{where}: {len(bad)} purity values outside (0, 1], e.g. {bad[0]!r}"] if bad else []


def _check_validate(out: Path, config: dict) -> list[str]:
    doc = _json(out / "validate.json")
    return [] if doc["stable"] is True else ["validate: model not stable"]


def _check_propagate(out: Path, config: dict) -> list[str]:
    problems, seen = [], False
    if (out / "propagate_summary.json").exists():
        seen = True
        sup = _json(out / "propagate_summary.json")["sup_sum_rule_defect"]
        if not abs(sup) < SUM_RULE_TOL:
            problems.append(f"propagate: sup sum-rule defect {sup!r} >= {SUM_RULE_TOL}")
    if (out / "propagator.csv").exists():
        seen = True
        sup = max(abs(v) for v in _column(out / "propagator.csv", "sum_rule_defect"))
        if not sup < SUM_RULE_TOL:
            problems.append(f"propagate: CSV sum-rule defect {sup!r} >= {SUM_RULE_TOL}")
    if (out / "propagator_bd.bin").exists():
        n = config["model"]["spectral"]["N"]
        t = config["time_grid"]["steps"] + 1
        size = (out / "propagator_bd.bin").stat().st_size
        if size != 16 + 2 * n * t * 16:
            problems.append(f"propagate: sidecar has {size} bytes, expected {16 + 32 * n * t}")
    if not seen:
        problems.append("propagate: no sum-rule artifact written")
    return problems


def _check_observables(out: Path, config: dict) -> list[str]:
    return _purity_problems(_column(out / "observables.csv", "purity"), "observables")


def _check_purity(out: Path, config: dict) -> list[str]:
    problems = []
    if (out / "purity.csv").exists():
        problems += _purity_problems(_column(out / "purity.csv", "purity"), "purity")
    if (out / "purity_summary.json").exists():
        doc = _json(out / "purity_summary.json")
        problems += _purity_problems([doc["min_purity"], doc["final_purity"]], "purity summary")
    return problems


def _check_rwa_compare(out: Path, config: dict) -> list[str]:
    problems = []
    if (out / "rwa_compare.csv").exists():
        problems += _purity_problems(_column(out / "rwa_compare.csv", "purity"), "rwa-compare")
    if (out / "rwa_compare_report.json").exists():
        rep = _json(out / "rwa_compare_report.json")
        if not rep["max_oracle_defect"] < ORACLE_TOL:
            problems.append(f"rwa-compare: oracle defect {rep['max_oracle_defect']!r} >= {ORACLE_TOL}")
        if config["oscillator"]["kind"] == "cat" and not rep["purity_min"] >= 0.5:
            problems.append(f"rwa-compare: cat purity minimum {rep['purity_min']!r} < 1/2")
    return problems


def _check_master_eq(out: Path, config: dict) -> list[str]:
    if not (out / "master_eq_residual.json").exists():
        return []
    res = _json(out / "master_eq_residual.json")["max_residual"]
    return [] if res < RESIDUAL_TOL else [f"master-eq: residual {res!r} >= {RESIDUAL_TOL}"]


def _check_ensemble(out: Path, config: dict) -> list[str]:
    doc = _json(out / "ensemble_summary.json")
    problems = []
    for est_key, pred_key, part in _ENSEMBLE_PAIRS[doc["kind"]]:
        est = doc[est_key]
        pred = doc[pred_key] if part is None else doc[pred_key][part]
        dev = abs(est["estimate"] - pred)
        if not dev <= ENSEMBLE_SIGMAS * est["std_error"]:
            problems.append(
                f"ensemble: {est_key} {est['estimate']!r} is {dev / est['std_error']:.2f} "
                f"standard errors from {pred_key} {pred!r}"
            )
    purities = [doc[k] for k in ("sample_purity", "equilibrium_purity") if k in doc]
    if "averaged_purity" in doc:
        purities.append(doc["averaged_purity"]["estimate"])
    return problems + _purity_problems(purities, "ensemble")


def _check_n_sweep(out: Path, config: dict) -> list[str]:
    doc = _json(out / "n_sweep_summary.json")
    want = len(config["experiment"]["n_list"])
    return [] if len(doc["entries"]) == want else [f"n-sweep: {len(doc['entries'])} entries, expected {want}"]


_CHECKS = {
    "validate": _check_validate,
    "propagate": _check_propagate,
    "observables": _check_observables,
    "purity": _check_purity,
    "ensemble": _check_ensemble,
    "master-eq": _check_master_eq,
    "rwa-compare": _check_rwa_compare,
    "n-sweep": _check_n_sweep,
}


def check_job(subcommand: str, exit_code: int, out: Path, config: dict) -> list[str]:
    """Problems with one job's exit code and artifacts; empty when it passed."""
    if exit_code != 0:
        return [f"{subcommand}: exit code {exit_code}"]
    try:
        manifest = _json(out / "manifest.json")
        missing = [a for a in manifest["artifacts"] if not (out / a).is_file()]
        if missing:
            return [f"{subcommand}: listed artifacts missing: {missing}"]
        return _CHECKS[subcommand](out, config)
    except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"{subcommand}: unreadable artifacts ({type(exc).__name__}: {exc})"]
