"""Seeded job lists for the qbath benchmark.

A workload is a list of jobs; each job is one ``qbath <subcommand>`` call on a
generated JSON config.  Every number that varies comes from the workload seed,
so one seed always gives byte-identical configs.  Model sections are written
out here in full (not taken from ``qbath.presets``) so the benchmark keeps its
meaning when the library's preset helpers change.

Run as a script, this module is the benchmark's set-up step: it imports
``qbath`` and writes one workload's configs, which is what a CLI user pays
before the first job runs::

    python3 perfbench/workloads.py --workload spectral --seed 1 --dir <dir>
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIZES = ("full", "tiny")

# Stock bands, as in configs/*.json.
RWA_BAND = dict(family="OhmicExpCutoff", strength=0.10, cutoff=5.0, omega_min=0.5, omega_max=1.6)
PP_BAND = dict(family="OhmicExpCutoff", strength=0.05, cutoff=5.0, omega_min=0.01, omega_max=8.0)
FLAT_BAND = dict(strength=0.02, omega_min=0.2, omega_max=1.8)
RESONANT_N1 = {
    "nu": 1.0,
    "coupling_family": "RWA",
    "spectral": {"family": "Explicit", "N": 1},
    "explicit": {"omegas": [1.0], "u_re": [0.35], "u_im": [0.0], "v_re": [0.0], "v_im": [0.0]},
}
RESONANT_PERIOD = math.pi / 0.35  # one full exchange cycle of the resonant pair


@dataclass(frozen=True)
class Job:
    """One CLI call: ``qbath <subcommand> --config <config> --out <name>``."""

    name: str
    subcommand: str
    config: str


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _band_model(band: dict, family: str, n: int) -> dict:
    return {"nu": 1.0, "coupling_family": family, "spectral": dict(band, N=n)}


def _explicit_model(family: str, omegas, u, v=None) -> dict:
    u = np.asarray(u, dtype=complex)
    v = np.zeros_like(u) if v is None else np.asarray(v, dtype=complex)
    return {
        "nu": 1.0,
        "coupling_family": family,
        "spectral": {"family": "Explicit", "N": int(u.size)},
        "explicit": {
            "omegas": [float(w) for w in omegas],
            "u_re": [float(x) for x in u.real], "u_im": [float(x) for x in u.imag],
            "v_re": [float(x) for x in v.real], "v_im": [float(x) for x in v.imag],
        },
    }


def _midpoints(lo: float, hi: float, n: int) -> tuple[np.ndarray, float]:
    d = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * d, d


def _jittered_ohmic(band: dict, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Stock Ohmic midpoint couplings, each scaled by a factor in [0.95, 1.05]."""
    omegas, d = _midpoints(band["omega_min"], band["omega_max"], n)
    u = np.sqrt(band["strength"] * omegas * np.exp(-omegas / band["cutoff"]) * d)
    return omegas, u * rng.uniform(0.95, 1.05, n)


def spectral(seed: int, size: str) -> tuple[dict, list[Job]]:
    """validate + propagate for RWA, PositionPosition and Custom at several N."""
    n_list, steps, t_max = ((64, 128, 256), 1600, 120.0) if size == "full" else ((4, 8), 40, 10.0)
    configs, jobs = {}, []
    for n in n_list:
        rng = _rng(seed, n)
        omegas, u = _jittered_ohmic(RWA_BAND, n, rng)
        rwa = _explicit_model("RWA", omegas, u)
        omegas, u = _jittered_ohmic(PP_BAND, n, rng)
        pp = _explicit_model("PositionPosition", omegas, u, u)
        omegas, d = _midpoints(FLAT_BAND["omega_min"], FLAT_BAND["omega_max"], n)
        u = np.sqrt(FLAT_BAND["strength"] * d) * rng.uniform(0.95, 1.05, n)
        v = 0.3 * u * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
        custom = _explicit_model("Custom", omegas, u, v)
        for tag, model in (("rwa", rwa), ("pp", pp), ("custom", custom)):
            name = f"{tag}-n{n}"
            configs[name] = {
                "model": model,
                "time_grid": {"t_max": t_max, "steps": steps},
                "outputs": {"formats": ["json"]},
            }
            jobs.append(Job(f"validate-{name}", "validate", name))
            jobs.append(Job(f"propagate-{name}", "propagate", name))
    return configs, jobs


def _cat(rng: np.random.Generator) -> dict:
    """The sample cat's lobes (|alpha| = 1.36, |beta| = 1, 2.8 rad apart), turned by a random angle.

    The magnitudes and the angle between the lobes barely move, because they set
    the quadrature's node count; a common rotation leaves it almost unchanged.
    """
    theta = rng.uniform(0.0, 2.0 * math.pi)
    alpha = 1.36 * rng.uniform(0.98, 1.02) * np.exp(1j * theta)
    beta = rng.uniform(0.98, 1.02) * np.exp(1j * (theta + rng.uniform(2.75, 2.85)))
    return {"kind": "cat", "alpha_re": float(alpha.real), "alpha_im": float(alpha.imag),
            "beta_re": float(beta.real), "beta_im": float(beta.imag)}


def cat_purity(seed: int, size: str) -> tuple[dict, list[Job]]:
    """Cat purity by quadrature against vacuum, thermal and coherent baths.

    The inverse temperatures are fixed because they set the quadrature's node
    count; the seed turns the cats and draws the coherent bath sample.
    """
    steps, n_ohmic = (40, 64) if size == "full" else (4, 8)
    rng = _rng(seed, 1)
    rwa64 = _band_model(RWA_BAND, "RWA", n_ohmic)
    pp64 = _band_model(PP_BAND, "PositionPosition", n_ohmic)
    cases = {
        "vacuum-rwa-n1": (RESONANT_N1, {"kind": "equilibrium", "beta": "inf"}, RESONANT_PERIOD),
        "thermal-rwa-n64": (rwa64, {"kind": "equilibrium", "beta": 1.0}, 40.0),
        "coherent-rwa-n64": (rwa64, {"kind": "sample_coherent", "beta": 2.0,
                                     "seed": int(rng.integers(1 << 31))}, 40.0),
        "thermal-pp-n64": (pp64, {"kind": "equilibrium", "beta": 1.5}, 12.0),
    }
    configs, jobs = {}, []
    for name, (model, bath, t_max) in cases.items():
        configs[name] = {
            "model": model,
            "bath": bath,
            "oscillator": _cat(rng),
            "time_grid": {"t_max": t_max, "steps": steps},
        }
        jobs.append(Job(f"purity-{name}", "purity", name))
    jobs.append(Job("rwa-compare-vacuum-rwa-n1", "rwa-compare", "vacuum-rwa-n1"))
    return configs, jobs


def _squeezed(rng: np.random.Generator) -> dict:
    """Displaced squeezed state inside the ranges the sample configs span."""
    return {"kind": "squeezed", "disp_re": rng.uniform(0.5, 0.7), "disp_im": rng.uniform(-0.4, -0.1),
            "r": rng.uniform(0.5, 0.9), "phi": rng.uniform(0.3, 1.1)}


def _sample_copy(seed: int, copy: int, size: str) -> dict:
    """One seed-varied copy of the sample configs, with a number-bath purity run."""
    full = size == "full"
    rng = _rng(seed, 100 + copy)
    rwa64 = _band_model(RWA_BAND, "RWA", 64)
    pp64 = _band_model(PP_BAND, "PositionPosition", 64)

    def s() -> int:
        return int(rng.integers(1 << 31))

    mean = rng.uniform(0.3, 0.5) * np.exp(1j * rng.uniform(-0.6, 0.0))
    # twelve singly occupied modes: the Laguerre work per node is fixed, the modes are drawn
    occ = np.zeros(64, dtype=int)
    occ[rng.choice(64, 12, replace=False)] = 1
    ensemble_n, ensemble_c = (s(), s())
    return {
        "validate-decoupled": {"model": {
            "nu": 1.0, "coupling_family": "RWA",
            "spectral": {"family": "FlatBand", "strength": 0.0, "omega_min": 1.5,
                         "omega_max": 2.5, "N": 1}}},
        "propagate-ohmic-pp": {
            "model": pp64,
            "time_grid": {"t_max": 30.0, "steps": 300 if full else 30},
            "outputs": {"formats": ["csv", "sidecar"]}},
        # pure coherent oscillator: n_ex = |mean|^2 and aa = mean^2
        "observables-rwa-coherent": {
            "model": rwa64,
            "bath": {"kind": "sample_coherent", "beta": 2.0, "seed": s()},
            "oscillator": {"kind": "gaussian", "mean_re": mean.real, "mean_im": mean.imag,
                           "n_ex": abs(mean) ** 2, "aa_re": (mean**2).real, "aa_im": (mean**2).imag},
            "time_grid": {"t_max": 40.0, "steps": 200 if full else 20}},
        "purity-squeezed-number": {
            "model": rwa64,
            "bath": {"kind": "number", "n": [int(k) for k in occ]},
            # the squeezing sets the quadrature's node count, so it stays at the sample's r
            "oscillator": dict(_squeezed(rng), r=0.6),
            "time_grid": {"t_max": 40.0, "steps": 60 if full else 4}},
        "ensemble-number": {
            "model": rwa64,
            "bath": {"kind": "sample_number", "beta": 2.0, "seed": ensemble_n},
            "oscillator": _squeezed(rng),
            "time_grid": {"t_max": 40.0, "steps": 100},
            "experiment": {"kind": "number", "n_samples": 400 if full else 20, "seed": ensemble_n}},
        "ensemble-coherent": {
            "model": rwa64,
            "bath": {"kind": "sample_coherent", "beta": 1.0, "seed": ensemble_c},
            "oscillator": {"kind": "gaussian"},
            "time_grid": {"t_max": 40.0, "steps": 100},
            "experiment": {"kind": "coherent", "n_samples": 2000 if full else 40, "seed": ensemble_c}},
        "master-eq-equilibrium": {
            "model": pp64,
            "bath": {"kind": "equilibrium", "beta": rng.uniform(1.0, 2.0)},
            "oscillator": _squeezed(rng),
            "time_grid": {"t_max": 12.0, "steps": 120 if full else 24}},
        "rwa-compare-squeezed": {
            "model": RESONANT_N1,
            "bath": {"kind": "equilibrium", "beta": "inf"},
            "oscillator": _squeezed(rng),
            "time_grid": {"t_max": RESONANT_PERIOD, "steps": 180 if full else 18}},
        # small N and a long grid so every recurrence 2 pi / delta omega
        # lands inside the window
        "n-sweep-ohmic-rwa": {
            "model": rwa64,
            "bath": {"kind": "equilibrium", "beta": 1.0},
            "oscillator": {"kind": "gaussian"},
            "time_grid": {"t_max": 200.0, "steps": 400 if full else 100},
            "experiment": {"kind": "n-sweep", "n_list": [16, 24, 32] if full else [4, 6],
                           "seed": s()}},
    }


_SUBCOMMAND = {
    "validate-decoupled": "validate",
    "propagate-ohmic-pp": "propagate",
    "observables-rwa-coherent": "observables",
    "purity-squeezed-number": "purity",
    "ensemble-number": "ensemble",
    "ensemble-coherent": "ensemble",
    "master-eq-equilibrium": "master-eq",
    "rwa-compare-squeezed": "rwa-compare",
    "n-sweep-ohmic-rwa": "n-sweep",
}


def sample_configs(seed: int, size: str) -> tuple[dict, list[Job]]:
    """Every subcommand once per copy; copies differ in seeds and oscillators."""
    configs, jobs = {}, []
    for copy in range(2 if size == "full" else 1):
        for base, doc in _sample_copy(seed, copy, size).items():
            name = f"{base}-{copy}"
            configs[name] = doc
            jobs.append(Job(name, _SUBCOMMAND[base], name))
    return configs, jobs


_BUILDERS = {"spectral": spectral, "cat-purity": cat_purity, "configs": sample_configs}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int, size: str = "full") -> tuple[dict, list[Job]]:
    """(config documents by name, job list) for one workload and seed."""
    return _BUILDERS[workload](seed, size)


def write_configs(workload: str, seed: int, size: str, directory: Path) -> list[Job]:
    """Write every config of the workload as ``<directory>/<name>.json``."""
    configs, jobs = build(workload, seed, size)
    directory.mkdir(parents=True, exist_ok=True)
    for name, doc in configs.items():
        (directory / f"{name}.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return jobs


def import_qbath() -> None:
    """Import qbath from this checkout's ``src``, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "qbath" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no qbath sources under {src}")
    sys.path.insert(0, str(src))
    import qbath

    if Path(qbath.__file__).resolve().parent != (src / "qbath").resolve():
        raise SystemExit(f"benchmark: imported qbath from {qbath.__file__}, not {src}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="import qbath and write one workload's configs")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=SIZES)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args(argv)
    import_qbath()
    write_configs(args.workload, args.seed, args.size, Path(args.dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
