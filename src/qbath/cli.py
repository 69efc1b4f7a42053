"""Batch command line driver.

    qbath <subcommand> --config <path> [--out <dir>] [--seed <u64>]

Subcommands: validate, propagate, observables, purity, ensemble, master-eq,
rwa-compare, n-sweep.  Each reads one JSON run config, executes the scenario,
and returns its CSV/JSON artifacts by file name.  Only once every artifact is
computed and encoded does `main` create the output directory and write them,
the manifest last, so a failed run writes no artifact and no manifest.
--seed replaces the sampled bath's seed and experiment.seed once, in the
parsed config, before the subcommand runs.
Exit codes: 0 success, 2 config/validation failure (an output directory
that cannot be written among them, found after the computation), 3 numerical
error (a sum-rule defect that breaks the contract of `propagator` among them,
in every subcommand that propagates, an array the machine cannot allocate, a
float overflow, invalid operation or division by zero, on which numpy raises
while a subcommand runs, and a NaN or inf, which no JSON artifact holds).

Artifacts are deterministic: given identical config and seed every data file
is byte-identical across runs at a fixed BLAS thread count (one unless the
caller sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS); every
ensemble is one batched evaluation.
The manifest records the config hash, the --seed override, the qbath, numpy
and Python versions, the BLAS thread variables in effect (null when numpy was
imported before qbath), and the wall time, which makes it the one file
excluded from the byte-identity guarantee.

Floats in CSV files carry 17 significant digits so comparisons against the
library can be made exact at the file level.

The propagator sidecar (``propagator_bd.bin``) is little-endian throughout:
two uint64 words N and T, then the B array, then the D array, each stored
row-major as T x N complex128 (interleaved re, im float64 pairs).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import platform
import struct
import sys
import time
from pathlib import Path

import numpy as np

from . import BLAS_THREADS, __version__, mastereq, rwa
from .baths import (
    CoherentStateBath,
    EquilibriumBath,
    bath_sums,
    delta_correlations,
    sample_coherent_states,
    sample_number_states,
)
from .config import RunConfig, load_config, realize_bath
from .errors import NumericalError, SchemaError
from .model import CouplingFamily, build_model, validate_model
from .observables import (
    EnsembleSummary,
    asymptotic_variances,
    averaged_purity_number_ensemble,
    displaced_vacuum_check,
    mean_xp,
    number_variance_of_variance,
    observable_series,
    purity,
    summarize,
    variances,
)
from .propagator import (
    compute_propagator,
    decay_report,
    plateau_window,
    row_slice,
    sum_rule_defects,
)
from .states import CatState, SqueezedDisplaced, vacuum_state

__all__ = ["main"]


def _json_text(name: str, doc: dict) -> str:
    """The JSON file named name holding doc; NumericalError for a NaN or inf in it."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:  # NaN or inf: a result the computation lost, not JSON
        raise NumericalError(f"{name}: {exc}") from None


def _write(path: Path, payload) -> None:
    """Write one artifact: JSON text, the sidecar's byte chunks, or a CSV (header, columns).

    A CSV gets one line per row, every column as a float with 17 digits (a bool
    prints 1 or 0), formatted and written row by row.
    """
    if isinstance(payload, list):
        with open(path, "wb") as fh:
            fh.writelines(payload)
        return
    with open(path, "w", newline="\n") as fh:
        if isinstance(payload, str):
            fh.write(payload)
            return
        header, columns = payload
        line = ",".join(["%.17g"] * len(columns)) + "\n"
        fh.write(",".join(header) + "\n")
        fh.writelines(map(line.__mod__, zip(*(np.asarray(col, dtype=float).tolist()
                                              for col in columns))))


def _require(cfg: RunConfig, *, grid=False, bath=False, oscillator=False) -> None:
    if grid and cfg.grid is None:
        raise SchemaError("this subcommand requires a 'time_grid' section")
    if bath and cfg.bath_doc is None:
        raise SchemaError("this subcommand requires a 'bath' section")
    if oscillator and cfg.oscillator is None:
        raise SchemaError("this subcommand requires an 'oscillator' section")


def _plateau(p) -> tuple[int, int, int]:
    """Plateau window (i0, i1) and the index in it where max(|A|, |C|) is least."""
    i0, i1 = plateau_window(p)
    run = np.maximum(np.abs(p.A[i0 : i1 + 1]), np.abs(p.C[i0 : i1 + 1]))
    return i0, i1, i0 + int(np.argmin(run))


def _time_index(cfg: RunConfig, p) -> int:
    ti = cfg.experiment.get("time_index", "auto")
    if ti == "auto" or ti is None:
        return _plateau(p)[2]
    if not -p.n_times <= ti < p.n_times:
        raise SchemaError(f"experiment.time_index {ti} out of range for {p.n_times} grid points")
    return ti % p.n_times


def _cmd_validate(cfg: RunConfig) -> dict:
    min_eig = validate_model(cfg.model)
    print(f"min eigenvalue {min_eig:.17g}")
    print(f"stable {'true' if min_eig > 0 else 'false'}")
    return {"validate.json": {
        "min_eigenvalue": min_eig,
        "stable": bool(min_eig > 0),
        "n_modes": cfg.model.n_modes,
        "coupling_family": cfg.model.coupling_family.value,
    }}


def _cmd_propagate(cfg: RunConfig) -> dict:
    _require(cfg, grid=True)
    p = compute_propagator(cfg.model, cfg.grid)
    defects = sum_rule_defects(p)
    artifacts = {}
    if "csv" in cfg.formats:
        artifacts["propagator.csv"] = (
            ["t", "re_A", "im_A", "re_C", "im_C", "sum_rule_defect"],
            [p.grid.t, p.A.real, p.A.imag, p.C.real, p.C.imag, defects])
    if "sidecar" in cfg.formats:
        artifacts["propagator_bd.bin"] = [
            struct.pack("<QQ", p.n_modes, p.n_times),
            np.ascontiguousarray(p.B, dtype="<c16"),
            np.ascontiguousarray(p.D, dtype="<c16"),
        ]
    if "json" in cfg.formats:
        rep = decay_report(p)
        artifacts["propagate_summary.json"] = {
            "sup_sum_rule_defect": float(np.max(np.abs(defects))),
            "late_sup_A": rep.late_sup_A,
            "late_sup_C": rep.late_sup_C,
            "recurrence_onset": rep.recurrence_onset,
            "route": p.route,
            "cond_bound": p.cond_bound,
        }
    return artifacts


def _cmd_observables(cfg: RunConfig) -> dict:
    _require(cfg, grid=True, bath=True, oscillator=True)
    bath = realize_bath(cfg)
    p = compute_propagator(cfg.model, cfg.grid)
    series = observable_series(p, bath, cfg.oscillator)
    header = ["t", "mean_x", "mean_p", "var_x", "var_p", "purity"]
    return {"observables.csv": (header, [series[k] for k in header])}


def _cmd_purity(cfg: RunConfig) -> dict:
    _require(cfg, grid=True, bath=True, oscillator=True)
    bath = realize_bath(cfg)
    p = compute_propagator(cfg.model, cfg.grid)
    vals = purity(p, slice(None), bath, cfg.oscillator)
    artifacts = {}
    if "csv" in cfg.formats:
        artifacts["purity.csv"] = (["t", "purity"], [p.grid.t, vals])
    if "json" in cfg.formats:
        i_min = rwa.first_min_index(vals)
        artifacts["purity_summary.json"] = {
            "min_purity": float(vals[i_min]),
            "t_min": float(p.grid.t[i_min]),
            "final_purity": float(vals[-1]),
        }
    return artifacts


def _number_ensemble(cfg: RunConfig, p, i: int, seed: int, n_samples: int) -> dict:
    beta = cfg.bath_doc["beta"]
    s = cfg.oscillator
    members = sample_number_states(beta, cfg.model, seed, n_samples)
    var_samples, _ = variances(p, row_slice(p, i), members, s)
    centered = var_samples - var_samples.mean()
    pop_var = float(np.sum(centered**2) / (n_samples - 1))
    m4 = float(np.mean(centered**4))
    var_se = math.sqrt(max(m4 - pop_var**2, 0.0) / n_samples)
    return {
        "kind": "number",
        "time_index": i,
        "t": float(p.grid.t[i]),
        "mean_var_x": vars(summarize(var_samples, seed)),
        "equilibrium_var_x": variances(p, i, EquilibriumBath(beta=beta), s)[0],
        "population_var_of_var_x": vars(EnsembleSummary(pop_var, var_se, n_samples, seed)),
        "predicted_var_of_var_x": number_variance_of_variance(p, i, beta),
        # its members are the first (at most 1000) of the variance members
        "averaged_purity": vars(averaged_purity_number_ensemble(
            p, i, beta, s, min(n_samples, 1000), seed)),
        "equilibrium_purity": purity(p, i, EquilibriumBath(beta=beta), s),
    }


def _coherent_ensemble(cfg: RunConfig, p, i: int, seed: int, n_samples: int) -> dict:
    beta = cfg.bath_doc["beta"]
    s = cfg.oscillator
    j = i // 2  # second probe time for the two-time correlator
    members = sample_coherent_states(beta, cfg.model, seed, n_samples)
    zero_t = EquilibriumBath(beta=math.inf)
    x0, p0 = mean_xp(p, i, zero_t, s)
    mean_x, mean_p = mean_xp(p, row_slice(p, i), members, s)
    delta_i, delta_j = (bath_sums(p, row_slice(p, k), members).delta for k in (i, j))
    c1_mc, c2_mc = delta_i * np.conj(delta_j), delta_i * delta_j
    samples = {"mean_x_sq": (mean_x - x0) ** 2, "mean_p_sq": (mean_p - p0) ** 2,
               "c1_re": c1_mc.real, "c1_im": c1_mc.imag, "c2_re": c2_mc.real, "c2_im": c2_mc.imag}
    # the means scatter by the asymptotic variances at beta minus their T = 0 part
    thermal, cold = (asymptotic_variances(p, i, b) for b in (EquilibriumBath(beta=beta), zero_t))
    corr = delta_correlations(p, i, j, beta)
    return {
        "kind": "coherent",
        "time_index": i,
        "t": float(p.grid.t[i]),
        "correlator_index": j,
        **{key: vars(summarize(v, seed)) for key, v in samples.items()},
        "predicted_x_sq": float(thermal[0] - cold[0]),
        "predicted_p_sq": float(thermal[1] - cold[1]),
        "predicted_c1": [corr.c1.real, corr.c1.imag],
        "predicted_c2": [corr.c2.real, corr.c2.imag],
        "sample_purity": purity(p, i, CoherentStateBath(members.amps[0]), s),
        # a displacement of the bath leaves the purity at its zero-temperature value
        "zero_temperature_purity": purity(p, i, zero_t, s),
        "displaced_vacuum_defect": displaced_vacuum_check(p, i, members.amps[0], s),
    }


def _cmd_ensemble(cfg: RunConfig) -> dict:
    _require(cfg, grid=True, bath=True, oscillator=True)
    kind = cfg.bath_doc["kind"]
    if kind not in ("sample_number", "sample_coherent"):
        raise SchemaError("ensemble requires bath kind 'sample_number' or 'sample_coherent'")
    exp_kind = cfg.experiment.get("kind")
    want = "number" if kind == "sample_number" else "coherent"
    if exp_kind is not None and exp_kind != want:
        raise SchemaError(f"experiment.kind {exp_kind!r} does not match bath kind {kind!r}")
    seed = cfg.experiment["seed"]
    n_samples = cfg.experiment["n_samples"]
    p = compute_propagator(cfg.model, cfg.grid)
    i = _time_index(cfg, p)
    ensemble = _number_ensemble if want == "number" else _coherent_ensemble
    return {"ensemble_summary.json": ensemble(cfg, p, i, seed, n_samples)}


def _cmd_master_eq(cfg: RunConfig) -> dict:
    _require(cfg, grid=True, bath=True)
    kind = cfg.bath_doc["kind"]
    if kind not in ("equilibrium", "coherent", "sample_coherent"):
        raise SchemaError(
            "master-eq requires a Gaussian influence bath: "
            "'equilibrium', 'coherent', or 'sample_coherent'"
        )
    bath = realize_bath(cfg)
    p = compute_propagator(cfg.model, cfg.grid)
    series = mastereq.generator_coefficients(p, slice(None), bath)
    artifacts = {}
    if "csv" in cfg.formats:
        artifacts["master_eq.csv"] = (
            ["t", "re_xi", "im_xi", "re_zeta", "im_zeta", "re_kappa",
             "re_mu", "im_mu", "re_sigma", "im_sigma", "denom", "valid_flag"],
            [series["t"],
             series["xi"].real, series["xi"].imag,
             series["zeta"].real, series["zeta"].imag,
             series["kappa"].real,
             series["mu"].real, series["mu"].imag,
             series["sigma"].real, series["sigma"].imag,
             series["denom"], series["valid"]])
    if "json" in cfg.formats:
        state = cfg.oscillator if cfg.oscillator is not None else vacuum_state()
        rep = decay_report(p)
        t = p.grid.t
        pre = t < rep.recurrence_onset if rep.recurrence_onset is not None else np.ones_like(t, bool)
        window = np.nonzero(pre & series["valid"])[0]
        probe = window[np.linspace(0, window.size - 1, min(8, window.size)).astype(int)]
        max_res = mastereq.generator_residual(p, probe, bath, state).max()
        artifacts["master_eq_residual.json"] = {
            "max_residual": float(max_res),
            "flagged_nodes": int((~series["valid"]).sum()),
            "window": [float(t[window[0]]), float(t[window[-1]])],
            "probe_indices": [int(k) for k in probe],
        }
    return artifacts


def _cmd_rwa_compare(cfg: RunConfig) -> dict:
    _require(cfg, grid=True, bath=True, oscillator=True)
    if cfg.model.coupling_family is not CouplingFamily.RWA:
        raise SchemaError("rwa-compare requires the RWA coupling family")
    bath = realize_bath(cfg)
    if not (isinstance(bath, EquilibriumBath) and math.isinf(bath.beta)):
        raise SchemaError("rwa-compare requires bath kind 'equilibrium' with beta = 'inf'")
    s = cfg.oscillator
    if isinstance(s, SqueezedDisplaced):
        oracle = lambda a2: rwa.purity_squeezed_rwa(a2, s.r)
    elif isinstance(s, CatState):
        oracle = lambda a2: rwa.purity_cat_rwa(a2, s.alpha, s.beta)
    else:
        raise SchemaError("rwa-compare requires a 'squeezed' or 'cat' oscillator")
    p = compute_propagator(cfg.model, cfg.grid)
    absA2 = np.abs(p.A) ** 2
    pur = purity(p, slice(None), bath, s)
    oracle_vals = np.array([oracle(min(max(a2, 0.0), 1.0)) for a2 in absA2])
    artifacts = {}
    if "csv" in cfg.formats:
        artifacts["rwa_compare.csv"] = (["t", "absA2", "purity", "oracle_purity"],
                                        [p.grid.t, absA2, pur, oracle_vals])
    if "json" in cfg.formats:
        rep = rwa.min_purity_check(pur, absA2)
        artifacts["rwa_compare_report.json"] = {
            "max_oracle_defect": float(np.max(np.abs(pur - oracle_vals))),
            "index_min": rep.index_min,
            "absA2_min": rep.absA2_min,
            "purity_min": rep.purity_min,
            "symmetry_defect": rep.symmetry_defect,
        }
    return artifacts


def _cmd_n_sweep(cfg: RunConfig) -> dict:
    _require(cfg, grid=True, bath=True, oscillator=True)
    if cfg.bath_doc["kind"] != "equilibrium":
        raise SchemaError("n-sweep requires bath kind 'equilibrium'")
    if cfg.band is None:
        raise SchemaError("n-sweep requires a parametric spectral family, not 'Explicit'")
    n_list = cfg.experiment.get("n_list")
    if not n_list:
        raise SchemaError("n-sweep requires experiment.n_list")
    beta = cfg.bath_doc["beta"]
    m = cfg.model
    entries = []
    for n in n_list:
        model = build_model(dataclasses.replace(cfg.band, n_modes=n), m.nu, m.coupling_family,
                            m.units)
        p = compute_propagator(model, cfg.grid)
        rep = decay_report(p)
        entry = {"N": n, "recurrence_onset": rep.recurrence_onset}
        try:
            i0, i1, i_pl = _plateau(p)
            entry["no_decay"] = False
            entry["plateau_sup_A"] = float(np.max(np.abs(p.A[i0 : i1 + 1])))
            entry["plateau_t"] = float(p.grid.t[i_pl])
            entry["var_of_var_x"] = number_variance_of_variance(p, i_pl, beta)
        except NumericalError:
            entry["no_decay"] = True
            entry["plateau_sup_A"] = float(np.max(np.abs(p.A)))
            entry["plateau_t"] = None
            entry["var_of_var_x"] = None
        entries.append(entry)

    vv = [e["var_of_var_x"] for e in entries]
    slope = None
    if all(v is not None and v > 0 for v in vv) and len(vv) >= 2:
        slope = float(np.polyfit(np.log(np.asarray(n_list, float)), np.log(vv), 1)[0])
    onsets = [e["recurrence_onset"] for e in entries]
    known = [o for o in onsets if o is not None]
    monotone = all(b > a for a, b in zip(known, known[1:]))
    return {"n_sweep_summary.json": {
        "entries": entries,
        "var_of_var_slope": slope,
        "recurrence_onset_monotone": bool(monotone),
    }}


_DISPATCH = {
    "validate": _cmd_validate,
    "propagate": _cmd_propagate,
    "observables": _cmd_observables,
    "purity": _cmd_purity,
    "ensemble": _cmd_ensemble,
    "master-eq": _cmd_master_eq,
    "rwa-compare": _cmd_rwa_compare,
    "n-sweep": _cmd_n_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbath",
        description="Exact dynamics of one oscillator coupled to a finite bosonic bath.",
    )
    parser.add_argument("subcommand", choices=_DISPATCH)
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", default=None, help="output directory for artifacts")
    parser.add_argument("--seed", type=int, default=None,
                        help="override sampling/experiment seeds")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t_start = time.perf_counter()
    try:
        if args.seed is not None and args.seed < 0:
            raise SchemaError("--seed must be nonnegative")
        cfg = load_config(args.config)
        if args.seed is not None:  # one override for the sampled bath and the experiment
            cfg.experiment["seed"] = args.seed
            if cfg.bath_doc is not None and "seed" in cfg.bath_doc:
                cfg.bath_doc["seed"] = args.seed
        out_dir = args.out if args.out is not None else cfg.out_dir
        if args.subcommand != "validate" and out_dir is None:
            raise SchemaError("an output directory is required: pass --out or set outputs.directory")
        # an overflow or invalid operation is a numerical failure, not a silent inf or NaN;
        # underflow stays quiet, as Gaussian influences underflow to 0 by design
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            artifacts = _DISPATCH[args.subcommand](cfg)
        files = {name: _json_text(name, doc) if isinstance(doc, dict) else doc
                 for name, doc in artifacts.items()}
        # nothing is written until the run has succeeded, and the manifest comes last
        if out_dir is not None:
            config_sha256 = hashlib.sha256(Path(args.config).read_bytes()).hexdigest()
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            for name, payload in files.items():
                _write(out / name, payload)
            _write(out / "manifest.json", _json_text("manifest.json", {
                "subcommand": args.subcommand,
                "config_sha256": config_sha256,
                "seed": args.seed,
                "versions": {
                    "qbath": __version__,
                    "numpy": np.__version__,
                    "python": platform.python_version(),
                },
                "blas_threads": BLAS_THREADS,
                "wall_time_s": time.perf_counter() - t_start,
                "artifacts": list(artifacts),
            }))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, np.linalg.LinAlgError, MemoryError, FloatingPointError) as exc:
        # LinAlgError subclasses ValueError, but a failed factorization is numerical;
        # an array the machine refuses to allocate and a float operation numpy refused
        # under the subcommand's errstate are numerical failures too
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
