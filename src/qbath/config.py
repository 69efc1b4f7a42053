"""Strict JSON run-config parsing.

A run config is a single JSON object with sections

    model       required: nu, coupling_family, spectral{...}, units{...}, explicit{...}
    bath        equilibrium | number | coherent | sample_number | sample_coherent
    oscillator  gaussian | squeezed | cat
    time_grid   {t_max, steps}
    outputs     {directory, formats: ["csv" | "json" | "sidecar"]}
    experiment  {kind, n_samples, seed, n_list, time_index}

Unknown keys are rejected anywhere in the document, with the offending line
quoted when it can be located in the source text.  Complex-valued fields are
carried as re/im pairs since JSON has no complex type; beta accepts the
string "inf" (or JSON Infinity) for a zero-temperature bath.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baths import (
    BathSpec,
    CoherentStateBath,
    EquilibriumBath,
    NumberStateBath,
    member_rng,
    sample_coherent_state,
    sample_number_state,
)
from .errors import SchemaError
from .model import (
    CouplingFamily,
    ModelSpec,
    SpectralDiscretization,
    SpectralFamily,
    Units,
    build_model,
)
from .propagator import TimeGrid
from .states import CatState, GaussianMoments, OscillatorState, SqueezedDisplaced

__all__ = ["RunConfig", "load_config", "parse_config", "realize_bath"]

_TOP_KEYS = {"model", "bath", "oscillator", "time_grid", "outputs", "experiment"}
_BATH_KINDS = {"equilibrium", "number", "coherent", "sample_number", "sample_coherent"}
_OSC_KINDS = {"gaussian", "squeezed", "cat"}
_FORMATS = {"csv", "json", "sidecar"}
_EXPERIMENT_KINDS = {"number", "coherent", "n-sweep"}


def _line_of(raw: str, key: str) -> str:
    """Best-effort line anchor for an offending key in the source text."""
    needle = f'"{key}"'
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if needle in line:
            text = line.strip()
            if len(text) > 100:
                cut = line.find(needle)
                text = "..." + line[max(0, cut - 20):cut + 80].strip() + "..."
            return f" (line {lineno}: {text})"
    return ""


def _check_keys(doc: dict, allowed: set[str], where: str, raw: str) -> None:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} must be a JSON object, got {type(doc).__name__}")
    for key in doc:
        if key not in allowed:
            raise SchemaError(f"unknown key {key!r} in {where}{_line_of(raw, key)}")


def _number(doc: dict, key: str, where: str, *, default=None, required=False) -> float:
    if key not in doc:
        if required:
            raise SchemaError(f"{where} requires {key!r}")
        return default
    val = doc[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise SchemaError(f"{where}.{key} must be a number, got {val!r}")
    return float(val)


def _integer(doc: dict, key: str, where: str, *, default=None, required=False) -> int:
    if key not in doc:
        if required:
            raise SchemaError(f"{where} requires {key!r}")
        return default
    val = doc[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise SchemaError(f"{where}.{key} must be an integer, got {val!r}")
    return val


def _number_list(doc: dict, key: str, where: str) -> np.ndarray | None:
    if key not in doc:
        return None
    val = doc[key]
    if not isinstance(val, list) or any(
        isinstance(x, bool) or not isinstance(x, (int, float)) for x in val
    ):
        raise SchemaError(f"{where}.{key} must be a list of numbers")
    return np.asarray(val, dtype=float)


def _beta(doc: dict, where: str) -> float:
    if "beta" not in doc:
        raise SchemaError(f"{where} requires 'beta'")
    val = doc["beta"]
    if isinstance(val, str):
        if val.lower() in ("inf", "infinity"):
            return math.inf
        raise SchemaError(f"{where}.beta string form must be 'inf', got {val!r}")
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise SchemaError(f"{where}.beta must be a positive number or 'inf'")
    if not val > 0:
        raise SchemaError(f"{where}.beta must be positive, got {val}")
    return float(val)


def _parse_model(doc: dict, raw: str) -> ModelSpec:
    where = "model"
    _check_keys(doc, {"nu", "coupling_family", "spectral", "units", "explicit"}, where, raw)
    nu = _number(doc, "nu", where, required=True)
    fam_name = doc.get("coupling_family")
    try:
        family = CouplingFamily(fam_name)
    except ValueError:
        raise SchemaError(f"model.coupling_family must be one of "
                          f"{[f.value for f in CouplingFamily]}, got {fam_name!r}") from None

    spect_doc = doc.get("spectral")
    if spect_doc is None:
        raise SchemaError("model requires 'spectral'")
    _check_keys(spect_doc, {"family", "strength", "cutoff", "omega_min", "omega_max", "N"},
                "model.spectral", raw)
    try:
        sfamily = SpectralFamily(spect_doc.get("family"))
    except ValueError:
        raise SchemaError(f"model.spectral.family must be one of "
                          f"{[f.value for f in SpectralFamily]}, got "
                          f"{spect_doc.get('family')!r}") from None
    n_modes = _integer(spect_doc, "N", "model.spectral", required=True)

    units = Units()
    if "units" in doc:
        _check_keys(doc["units"], {"hbar", "mass"}, "model.units", raw)
        units = Units(
            hbar=_number(doc["units"], "hbar", "model.units", default=1.0),
            mass=_number(doc["units"], "mass", "model.units", default=1.0),
        )

    if sfamily is SpectralFamily.EXPLICIT:
        exp_doc = doc.get("explicit")
        if exp_doc is None:
            raise SchemaError("model.spectral.family 'Explicit' requires the 'explicit' section")
        _check_keys(exp_doc, {"omegas", "u_re", "u_im", "v_re", "v_im"}, "model.explicit", raw)
        omegas = _number_list(exp_doc, "omegas", "model.explicit")
        u_re = _number_list(exp_doc, "u_re", "model.explicit")
        if omegas is None or u_re is None:
            raise SchemaError("model.explicit requires 'omegas' and 'u_re'")
        u_im = _number_list(exp_doc, "u_im", "model.explicit")
        v_re = _number_list(exp_doc, "v_re", "model.explicit")
        v_im = _number_list(exp_doc, "v_im", "model.explicit")
        named = {"omegas": omegas, "u_re": u_re, "u_im": u_im, "v_re": v_re, "v_im": v_im}
        for key, arr in named.items():
            if arr is not None and arr.size != n_modes:
                raise SchemaError(f"model.explicit.{key} must have length N = {n_modes}")
        zeros = np.zeros_like(omegas)
        u = u_re + 1j * (u_im if u_im is not None else zeros)
        v = (v_re if v_re is not None else zeros) + 1j * (v_im if v_im is not None else zeros)
        disc = SpectralDiscretization(family=sfamily, omegas=omegas, u=u, v=v, n_modes=n_modes)
    else:
        if "explicit" in doc:
            raise SchemaError("model.explicit is only allowed with the Explicit spectral family")
        disc = SpectralDiscretization(
            family=sfamily,
            strength=_number(spect_doc, "strength", "model.spectral", default=0.0),
            cutoff=_number(spect_doc, "cutoff", "model.spectral", default=1.0),
            omega_min=_number(spect_doc, "omega_min", "model.spectral", required=True),
            omega_max=_number(spect_doc, "omega_max", "model.spectral", required=True),
            n_modes=n_modes,
        )
    return build_model(disc, nu=nu, family=family, units=units)


def _parse_oscillator(doc: dict, raw: str) -> OscillatorState:
    where = "oscillator"
    kind = doc.get("kind")
    if kind not in _OSC_KINDS:
        raise SchemaError(f"oscillator.kind must be one of {sorted(_OSC_KINDS)}, got {kind!r}")
    if kind == "gaussian":
        _check_keys(doc, {"kind", "mean_re", "mean_im", "n_ex", "aa_re", "aa_im"}, where, raw)
        return GaussianMoments(
            mean_a=complex(_number(doc, "mean_re", where, default=0.0),
                           _number(doc, "mean_im", where, default=0.0)),
            n_ex=_number(doc, "n_ex", where, default=0.0),
            aa=complex(_number(doc, "aa_re", where, default=0.0),
                       _number(doc, "aa_im", where, default=0.0)),
        )
    if kind == "squeezed":
        _check_keys(doc, {"kind", "disp_re", "disp_im", "r", "phi"}, where, raw)
        return SqueezedDisplaced(
            disp=complex(_number(doc, "disp_re", where, default=0.0),
                         _number(doc, "disp_im", where, default=0.0)),
            r=_number(doc, "r", where, default=0.0),
            phi=_number(doc, "phi", where, default=0.0),
        )
    _check_keys(doc, {"kind", "alpha_re", "alpha_im", "beta_re", "beta_im"}, where, raw)
    return CatState(
        alpha=complex(_number(doc, "alpha_re", where, default=0.0),
                      _number(doc, "alpha_im", where, default=0.0)),
        beta=complex(_number(doc, "beta_re", where, default=0.0),
                     _number(doc, "beta_im", where, default=0.0)),
    )


def _parse_bath_doc(doc: dict, raw: str) -> dict:
    where = "bath"
    kind = doc.get("kind")
    if kind not in _BATH_KINDS:
        raise SchemaError(f"bath.kind must be one of {sorted(_BATH_KINDS)}, got {kind!r}")
    allowed = {"kind"}
    out: dict = {"kind": kind}
    if kind in ("equilibrium", "sample_number", "sample_coherent"):
        allowed.add("beta")
        out["beta"] = _beta(doc, where)
    if kind in ("sample_number", "sample_coherent"):
        allowed.add("seed")
        seed = _integer(doc, "seed", where, default=0)
        if seed < 0:
            raise SchemaError(f"bath.seed must be nonnegative, got {seed}")
        out["seed"] = seed
    if kind == "number":
        allowed.add("n")
        if "n" not in doc or not isinstance(doc["n"], list) or any(
            isinstance(x, bool) or not isinstance(x, int) or x < 0 for x in doc["n"]
        ):
            raise SchemaError("bath.n must be a list of nonnegative integers")
        out["n"] = np.asarray(doc["n"], dtype=int)
    if kind == "coherent":
        allowed.update(("amps_re", "amps_im"))
        re = _number_list(doc, "amps_re", where)
        im = _number_list(doc, "amps_im", where)
        if re is None:
            raise SchemaError("bath kind 'coherent' requires 'amps_re'")
        if im is None:
            im = np.zeros_like(re)
        if re.size != im.size:
            raise SchemaError("bath.amps_re and bath.amps_im must have equal length")
        out["amps"] = re + 1j * im
    _check_keys(doc, allowed, where, raw)
    return out


@dataclass
class RunConfig:
    """Validated run configuration; bath is kept symbolic until realized."""

    model: ModelSpec
    model_doc: dict = field(default_factory=dict)
    bath_doc: dict | None = None
    oscillator: OscillatorState | None = None
    grid: TimeGrid | None = None
    out_dir: str | None = None
    formats: tuple[str, ...] = ("csv", "json")
    experiment: dict = field(default_factory=dict)


def parse_config(doc: dict, raw: str = "") -> RunConfig:
    """Validate a config document and construct the model-side objects."""
    _check_keys(doc, _TOP_KEYS, "config", raw)
    if "model" not in doc:
        raise SchemaError("config requires a 'model' section")
    model = _parse_model(doc["model"], raw)

    bath_doc = None
    if "bath" in doc:
        bath_doc = _parse_bath_doc(doc["bath"], raw)
        n_fixed = bath_doc.get("n")
        if n_fixed is not None and n_fixed.size != model.n_modes:
            raise SchemaError(f"bath.n must have length N = {model.n_modes}")
        amps = bath_doc.get("amps")
        if amps is not None and amps.size != model.n_modes:
            raise SchemaError(f"bath.amps_re must have length N = {model.n_modes}")

    oscillator = _parse_oscillator(doc["oscillator"], raw) if "oscillator" in doc else None

    grid = None
    if "time_grid" in doc:
        tg = doc["time_grid"]
        _check_keys(tg, {"t_max", "steps"}, "time_grid", raw)
        t_max = _number(tg, "t_max", "time_grid", required=True)
        steps = _integer(tg, "steps", "time_grid", required=True)
        if t_max <= 0 or steps < 1:
            raise SchemaError("time_grid requires t_max > 0 and steps >= 1")
        grid = TimeGrid.linspace(t_max, steps)

    out_dir, formats = None, ("csv", "json")
    if "outputs" in doc:
        outs = doc["outputs"]
        _check_keys(outs, {"directory", "formats"}, "outputs", raw)
        if "directory" in outs:
            if not isinstance(outs["directory"], str):
                raise SchemaError("outputs.directory must be a string")
            out_dir = outs["directory"]
        if "formats" in outs:
            fmts = outs["formats"]
            if not isinstance(fmts, list) or any(f not in _FORMATS for f in fmts):
                raise SchemaError(f"outputs.formats entries must be among {sorted(_FORMATS)}")
            formats = tuple(fmts)

    experiment: dict = {}
    if "experiment" in doc:
        exp = doc["experiment"]
        _check_keys(exp, {"kind", "n_samples", "seed", "n_list", "time_index"}, "experiment", raw)
        kind = exp.get("kind")
        if kind is not None and kind not in _EXPERIMENT_KINDS:
            raise SchemaError(
                f"experiment.kind must be one of {sorted(_EXPERIMENT_KINDS)}, got {kind!r}"
            )
        experiment["kind"] = kind
        n_samples = _integer(exp, "n_samples", "experiment", default=1000)
        if n_samples < 2:
            raise SchemaError("experiment.n_samples must be >= 2")
        experiment["n_samples"] = n_samples
        seed = _integer(exp, "seed", "experiment", default=0)
        if seed < 0:
            raise SchemaError("experiment.seed must be nonnegative")
        experiment["seed"] = seed
        if "n_list" in exp:
            n_list = exp["n_list"]
            if (
                not isinstance(n_list, list)
                or not n_list
                or any(isinstance(x, bool) or not isinstance(x, int) or x < 1 for x in n_list)
                or any(b <= a for a, b in zip(n_list, n_list[1:]))
            ):
                raise SchemaError("experiment.n_list must be an ascending list of positive integers")
            experiment["n_list"] = list(n_list)
        if "time_index" in exp:
            ti = exp["time_index"]
            if ti != "auto" and (isinstance(ti, bool) or not isinstance(ti, int)):
                raise SchemaError("experiment.time_index must be an integer or 'auto'")
            experiment["time_index"] = ti

    return RunConfig(
        model=model,
        model_doc=doc["model"],
        bath_doc=bath_doc,
        oscillator=oscillator,
        grid=grid,
        out_dir=out_dir,
        formats=formats,
        experiment=experiment,
    )


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON run config from disk."""
    raw = Path(path).read_text()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"config root must be a JSON object in {path}")
    return parse_config(doc, raw)


def realize_bath(cfg: RunConfig, *, seed_override: int | None = None) -> BathSpec:
    """Turn the symbolic bath section into a concrete preparation.

    The sample_* kinds draw one realization with the configured (or
    overridden) seed; fixed kinds pass through unchanged.
    """
    if cfg.bath_doc is None:
        raise SchemaError("config has no 'bath' section")
    doc = cfg.bath_doc
    kind = doc["kind"]
    if kind == "equilibrium":
        return EquilibriumBath(beta=doc["beta"])
    if kind == "number":
        return NumberStateBath(n=doc["n"])
    if kind == "coherent":
        return CoherentStateBath(amps=doc["amps"])
    seed = seed_override if seed_override is not None else doc["seed"]
    rng = member_rng(seed, 0)
    if kind == "sample_number":
        return sample_number_state(doc["beta"], cfg.model, rng)
    return sample_coherent_state(doc["beta"], cfg.model, rng)
