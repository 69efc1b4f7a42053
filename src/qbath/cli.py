"""Batch command line driver.

    qbath <subcommand> --config <path> [--out <dir>] [--seed <u64>] [--threads <n>]

Subcommands: validate, propagate, observables, purity, ensemble, master-eq,
rwa-compare, n-sweep.  Each reads one JSON run config, executes the scenario,
and writes CSV/JSON artifacts plus a manifest into the output directory.
Exit codes: 0 success, 2 config/validation failure, 3 numerical error.

Artifacts are deterministic: given identical config and seed (at a fixed
worker count) every data file is byte-identical across runs.  The manifest
records the config hash, effective seed, package versions, and wall time;
since it contains the wall time it is the one file excluded from the
byte-identity guarantee.

Floats in CSV files carry 17 significant digits so comparisons against the
library can be made exact at the file level.

The propagator sidecar (``propagator_bd.bin``) is little-endian throughout:
two uint64 words N and T, then the B array, then the D array, each stored
row-major as T x N complex128 (interleaved re, im float64 pairs).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import struct
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, mastereq, rwa
from .baths import (
    CoherentStateBath,
    EquilibriumBath,
    NumberStateBath,
    bath_delta,
    delta_correlations,
    sample_coherent_states,
    sample_number_states,
)
from .config import RunConfig, load_config, realize_bath
from .errors import NumericalError, SchemaError
from .model import SpectralFamily, validate_model
from .observables import (
    EnsembleSummary,
    asymptotic_variances,
    displaced_vacuum_check,
    mean_rows,
    mean_xp,
    member_purities,
    number_variance_of_variance,
    observable_series,
    purity,
    purity_rows,
    summarize,
    variance_rows,
    variances,
)
from .propagator import (
    compute_propagator,
    decay_report,
    is_rwa,
    plateau_window,
    row_slice,
    sum_rule_defects,
)
from .states import CatState, SqueezedDisplaced, vacuum_state

__all__ = ["main"]

_SUBCOMMANDS = (
    "validate",
    "propagate",
    "observables",
    "purity",
    "ensemble",
    "master-eq",
    "rwa-compare",
    "n-sweep",
)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    rows = len(columns[0])
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for r in range(rows):
            fh.write(",".join(_fmt(col[r]) for col in columns) + "\n")


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def _cmd_validate(cfg: RunConfig, args, out: Path | None) -> list[str]:
    min_eig = validate_model(cfg.model)
    print(f"min eigenvalue {min_eig:.17g}")
    print(f"stable {'true' if min_eig > 0 else 'false'}")
    if out is None:
        return []
    _write_json(out / "validate.json", {
        "min_eigenvalue": min_eig,
        "stable": bool(min_eig > 0),
        "n_modes": cfg.model.n_modes,
        "coupling_family": cfg.model.coupling_family.value,
    })
    return ["validate.json"]


def _cmd_propagate(cfg: RunConfig, args, out: Path) -> list[str]:
    _require(cfg, grid=True)
    p = compute_propagator(cfg.model, cfg.grid)
    defects = sum_rule_defects(p)
    artifacts = []
    if "csv" in cfg.formats:
        _write_csv(out / "propagator.csv",
                   ["t", "re_A", "im_A", "re_C", "im_C", "sum_rule_defect"],
                   [p.grid.t, p.A.real, p.A.imag, p.C.real, p.C.imag, defects])
        artifacts.append("propagator.csv")
    if "sidecar" in cfg.formats:
        side = out / "propagator_bd.bin"
        with open(side, "wb") as fh:
            fh.write(struct.pack("<QQ", p.n_modes, p.n_times))
            fh.write(np.ascontiguousarray(p.B, dtype="<c16").tobytes())
            fh.write(np.ascontiguousarray(p.D, dtype="<c16").tobytes())
        artifacts.append("propagator_bd.bin")
    if "json" in cfg.formats:
        rep = decay_report(p)
        _write_json(out / "propagate_summary.json", {
            "sup_sum_rule_defect": float(np.max(np.abs(defects))),
            "late_sup_A": rep.late_sup_A,
            "late_sup_C": rep.late_sup_C,
            "recurrence_onset": rep.recurrence_onset,
        })
        artifacts.append("propagate_summary.json")
    return artifacts


def _cmd_observables(cfg: RunConfig, args, out: Path) -> list[str]:
    _require(cfg, grid=True, bath=True, oscillator=True)
    bath = realize_bath(cfg, seed_override=args.seed)
    p = compute_propagator(cfg.model, cfg.grid)
    series = observable_series(p, bath, cfg.oscillator)
    _write_csv(out / "observables.csv",
               ["t", "mean_x", "mean_p", "var_x", "var_p", "purity"],
               [series[k] for k in ("t", "mean_x", "mean_p", "var_x", "var_p", "purity")])
    return ["observables.csv"]


def _cmd_purity(cfg: RunConfig, args, out: Path) -> list[str]:
    _require(cfg, grid=True, bath=True, oscillator=True)
    bath = realize_bath(cfg, seed_override=args.seed)
    p = compute_propagator(cfg.model, cfg.grid)
    vals = purity_rows(p, slice(None), bath, cfg.oscillator)
    artifacts = []
    if "csv" in cfg.formats:
        _write_csv(out / "purity.csv", ["t", "purity"], [p.grid.t, vals])
        artifacts.append("purity.csv")
    if "json" in cfg.formats:
        i_min = rwa.first_min_index(vals)
        _write_json(out / "purity_summary.json", {
            "min_purity": float(vals[i_min]),
            "t_min": float(p.grid.t[i_min]),
            "final_purity": float(vals[-1]),
        })
        artifacts.append("purity_summary.json")
    return artifacts


def _number_ensemble(cfg: RunConfig, p, i: int, seed: int, n_samples: int, threads) -> dict:
    beta = cfg.bath_doc["beta"]
    s = cfg.oscillator
    members = sample_number_states(beta, cfg.model, seed, n_samples)
    var_samples, _ = variance_rows(p, row_slice(i), members, s)
    centered = var_samples - var_samples.mean()
    pop_var = float(np.sum(centered**2) / (n_samples - 1))
    m4 = float(np.mean(centered**4))
    var_se = math.sqrt(max(m4 - pop_var**2, 0.0) / n_samples)
    # the purity members are the first (at most 1000) of the variance members
    purities = member_purities(p, i, NumberStateBath(members.n[:1000]), s, threads=threads)
    return {
        "kind": "number",
        "time_index": i,
        "t": float(p.grid.t[i]),
        "mean_var_x": vars(summarize(var_samples, seed)),
        "equilibrium_var_x": variances(p, i, EquilibriumBath(beta=beta), s)[0],
        "population_var_of_var_x": vars(EnsembleSummary(pop_var, var_se, n_samples, seed)),
        "predicted_var_of_var_x": number_variance_of_variance(p, i, beta),
        "averaged_purity": vars(summarize(purities, seed)),
        "equilibrium_purity": purity(p, i, EquilibriumBath(beta=beta), s),
    }


def _coherent_ensemble(cfg: RunConfig, p, i: int, seed: int, n_samples: int) -> dict:
    beta = cfg.bath_doc["beta"]
    s = cfg.oscillator
    j = i // 2  # second probe time for the two-time correlator
    members = sample_coherent_states(beta, cfg.model, seed, n_samples)
    zero_t = EquilibriumBath(beta=math.inf)
    x0, p0 = mean_xp(p, i, zero_t, s)
    mean_x, mean_p = mean_rows(p, row_slice(i), members, s)
    delta_i, delta_j = (bath_delta(p, row_slice(k), members) for k in (i, j))
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
        "displaced_vacuum_defect": displaced_vacuum_check(p, i, members.amps[0], s),
    }


def _cmd_ensemble(cfg: RunConfig, args, out: Path) -> list[str]:
    _require(cfg, grid=True, bath=True, oscillator=True)
    kind = cfg.bath_doc["kind"]
    if kind not in ("sample_number", "sample_coherent"):
        raise SchemaError("ensemble requires bath kind 'sample_number' or 'sample_coherent'")
    exp_kind = cfg.experiment.get("kind")
    want = "number" if kind == "sample_number" else "coherent"
    if exp_kind is not None and exp_kind != want:
        raise SchemaError(f"experiment.kind {exp_kind!r} does not match bath kind {kind!r}")
    seed = args.seed if args.seed is not None else cfg.experiment.get("seed", cfg.bath_doc["seed"])
    n_samples = cfg.experiment.get("n_samples", 1000)
    p = compute_propagator(cfg.model, cfg.grid)
    i = _time_index(cfg, p)
    if want == "number":
        doc = _number_ensemble(cfg, p, i, seed, n_samples, args.threads)
    else:
        doc = _coherent_ensemble(cfg, p, i, seed, n_samples)
    _write_json(out / "ensemble_summary.json", doc)
    return ["ensemble_summary.json"]


def _cmd_master_eq(cfg: RunConfig, args, out: Path) -> list[str]:
    _require(cfg, grid=True, bath=True)
    kind = cfg.bath_doc["kind"]
    if kind not in ("equilibrium", "coherent", "sample_coherent"):
        raise SchemaError(
            "master-eq requires a Gaussian influence bath: "
            "'equilibrium', 'coherent', or 'sample_coherent'"
        )
    bath = realize_bath(cfg, seed_override=args.seed)
    p = compute_propagator(cfg.model, cfg.grid)
    fs = mastereq.f_series_for(p, bath)
    series = mastereq.generator_series(p, fs)
    artifacts = []
    if "csv" in cfg.formats:
        _write_csv(out / "master_eq.csv",
                   ["t", "re_xi", "im_xi", "re_zeta", "im_zeta", "re_kappa",
                    "re_mu", "im_mu", "re_sigma", "im_sigma", "denom", "valid_flag"],
                   [series["t"],
                    series["xi"].real, series["xi"].imag,
                    series["zeta"].real, series["zeta"].imag,
                    series["kappa"].real,
                    series["mu"].real, series["mu"].imag,
                    series["sigma"].real, series["sigma"].imag,
                    series["denom"], series["valid"]])
        artifacts.append("master_eq.csv")
    if "json" in cfg.formats:
        state = cfg.oscillator if cfg.oscillator is not None else vacuum_state()
        rep = decay_report(p)
        t = p.grid.t
        pre = t < rep.recurrence_onset if rep.recurrence_onset is not None else np.ones_like(t, bool)
        window = np.nonzero(pre & series["valid"])[0]
        probe = window[np.linspace(0, window.size - 1, min(8, window.size)).astype(int)]
        max_res = max(
            mastereq.generator_residual(p, int(k), bath, state) for k in probe
        )
        _write_json(out / "master_eq_residual.json", {
            "max_residual": float(max_res),
            "flagged_nodes": int((~series["valid"]).sum()),
            "window": [float(t[window[0]]), float(t[window[-1]])],
            "probe_indices": [int(k) for k in probe],
        })
        artifacts.append("master_eq_residual.json")
    return artifacts


def _cmd_rwa_compare(cfg: RunConfig, args, out: Path) -> list[str]:
    _require(cfg, grid=True, bath=True, oscillator=True)
    if not is_rwa(cfg.model):
        raise SchemaError("rwa-compare requires the RWA coupling family")
    bath = realize_bath(cfg, seed_override=args.seed)
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
    pur = purity_rows(p, slice(None), bath, s)
    oracle_vals = np.array([oracle(min(max(a2, 0.0), 1.0)) for a2 in absA2])
    artifacts = []
    if "csv" in cfg.formats:
        _write_csv(out / "rwa_compare.csv",
                   ["t", "absA2", "purity", "oracle_purity"],
                   [p.grid.t, absA2, pur, oracle_vals])
        artifacts.append("rwa_compare.csv")
    if "json" in cfg.formats:
        rep = rwa.min_purity_check(pur, absA2)
        _write_json(out / "rwa_compare_report.json", {
            "max_oracle_defect": float(np.max(np.abs(pur - oracle_vals))),
            "index_min": rep.index_min,
            "absA2_min": rep.absA2_min,
            "purity_min": rep.purity_min,
            "symmetry_defect": rep.symmetry_defect,
        })
        artifacts.append("rwa_compare_report.json")
    return artifacts


def _cmd_n_sweep(cfg: RunConfig, args, out: Path) -> list[str]:
    _require(cfg, grid=True, bath=True, oscillator=True)
    if cfg.bath_doc["kind"] != "equilibrium":
        raise SchemaError("n-sweep requires bath kind 'equilibrium'")
    fam = cfg.model_doc.get("spectral", {}).get("family")
    if fam == SpectralFamily.EXPLICIT.value:
        raise SchemaError("n-sweep requires a parametric spectral family, not 'Explicit'")
    n_list = cfg.experiment.get("n_list")
    if not n_list:
        raise SchemaError("n-sweep requires experiment.n_list")
    from .config import parse_config

    beta = cfg.bath_doc["beta"]
    entries = []
    for n in n_list:
        model_doc = json.loads(json.dumps(cfg.model_doc))
        model_doc["spectral"]["N"] = n
        sub = parse_config({"model": model_doc})
        p = compute_propagator(sub.model, cfg.grid)
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
            entry["var_of_var_x"] = None
        entries.append(entry)

    vv = [e["var_of_var_x"] for e in entries]
    slope = None
    if all(v is not None and v > 0 for v in vv) and len(vv) >= 2:
        slope = float(np.polyfit(np.log(np.asarray(n_list, float)), np.log(vv), 1)[0])
    onsets = [e["recurrence_onset"] for e in entries]
    known = [o for o in onsets if o is not None]
    monotone = all(b > a for a, b in zip(known, known[1:]))
    _write_json(out / "n_sweep_summary.json", {
        "entries": entries,
        "var_of_var_slope": slope,
        "recurrence_onset_monotone": bool(monotone),
    })
    return ["n_sweep_summary.json"]


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
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to a JSON run config")
        sp.add_argument("--out", default=None, help="output directory for artifacts")
        sp.add_argument("--seed", type=int, default=None,
                        help="override sampling/experiment seeds")
        sp.add_argument("--threads", type=int, default=None,
                        help="worker threads for ensembles (default: QBATH_THREADS or 1)")
    return parser


def _effective_threads(args) -> int:
    if args.threads is not None:
        n = args.threads
    else:
        try:
            n = int(os.environ.get("QBATH_THREADS", "1"))
        except ValueError:
            raise SchemaError("QBATH_THREADS must be an integer") from None
    if n < 1:
        raise SchemaError(f"thread count must be >= 1, got {n}")
    return n


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t_start = time.perf_counter()
    try:
        args.threads = _effective_threads(args)
        if args.seed is not None and args.seed < 0:
            raise SchemaError("--seed must be nonnegative")
        cfg = load_config(args.config)
        out_dir = args.out if args.out is not None else cfg.out_dir
        out = None
        if args.subcommand != "validate" and out_dir is None:
            raise SchemaError("an output directory is required: pass --out or set outputs.directory")
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
        artifacts = _DISPATCH[args.subcommand](cfg, args, out)
        if out is not None:
            config_bytes = Path(args.config).read_bytes()
            _write_json(out / "manifest.json", {
                "subcommand": args.subcommand,
                "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
                "seed": args.seed,
                "versions": {
                    "qbath": __version__,
                    "numpy": np.__version__,
                    "scipy": scipy.__version__,
                    "python": platform.python_version(),
                },
                "wall_time_s": time.perf_counter() - t_start,
                "artifacts": artifacts,
            })
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, but a failed factorization is numerical
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
