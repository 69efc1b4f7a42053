"""Strict JSON run-config parsing.

A run config is a single JSON object with sections

    model       required: nu, coupling_family, spectral{...}, units{...}, explicit{...}
    bath        equilibrium | number | coherent | sample_number | sample_coherent
    oscillator  gaussian | squeezed | cat
    time_grid   {t_max, steps}
    outputs     {directory, formats: ["csv" | "json" | "sidecar"]}
    experiment  {kind, n_samples, seed, n_list, time_index}

outputs.formats (default csv and json) selects the artifacts of propagate
(csv, sidecar, json) and of purity, master-eq and rwa-compare (csv, json);
validate, observables, ensemble and n-sweep always write their one file.

model.explicit lists omegas and u_re, and u_im, v_re, v_im (0 when absent),
each of length model.spectral.N.  Without v_re and v_im, v is the coupling
family's (u for PositionPosition, else 0); a given v must agree with the
family.  RunConfig.band keeps a parametric model's recipe, for n-sweep.

experiment.seed defaults to the sampled bath's seed (else 0), n_samples to
1000; sizes beyond any array (time_grid.steps, model.spectral.N,
experiment.n_samples) are errors.  A sampled bath is realized as member 0 of
the ensemble its seed draws.

Each section is read once, by typed getters of one _Section.  Its unknown
keys are the keys its reader does not take, and they are rejected with the
offending line quoted when it can be located in the source text (the band
keys of model.spectral are taken and ignored under the Explicit family).
When a section has both, a bad value is reported before an unknown key.
Complex-valued fields are
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
    sample_coherent_states,
    sample_number_states,
)
from .errors import ParameterError, PhysicalityError, SchemaError
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

_BATH_KINDS = {"equilibrium", "number", "coherent", "sample_number", "sample_coherent"}
_OSC_KINDS = {"gaussian", "squeezed", "cat"}
_FORMATS = {"csv", "json", "sidecar"}
_EXPERIMENT_KINDS = {"number", "coherent", "n-sweep"}
_MAX_SIZE = int(np.iinfo(np.intp).max)  # the largest array length numpy can index
_REQUIRED = object()  # the default of a getter whose key must be present


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


def _is_number(val) -> bool:
    """Whether a JSON value is a finite number (json also reads Infinity, NaN and huge ints)."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


def _is_integer(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


class _Section:
    """One JSON object of a config, read through typed getters.

    Every getter marks its key as read, and done() refuses the keys that were
    not, so the keys a section accepts are the keys its reader takes.
    Messages name the key path, as in model.spectral.N.
    """

    def __init__(self, doc, where: str, raw: str) -> None:
        if not isinstance(doc, dict):
            raise SchemaError(f"{where} must be a JSON object, got {type(doc).__name__}")
        self.doc, self.where, self._raw, self._read = doc, where, raw, set()

    def get(self, key: str, default=_REQUIRED):
        """The raw value at key, else default; without a default an absent key is an error."""
        self._read.add(key)
        if key in self.doc:
            return self.doc[key]
        if default is _REQUIRED:
            raise SchemaError(f"{self.where} requires {key!r}")
        return default

    def value(self, key: str, ok, must: str):
        """The value at key, None when absent; SchemaError "<where>.<key> <must>" unless ok."""
        val = self.get(key, None)
        if key in self.doc and not ok(val):
            raise SchemaError(f"{self.where}.{key} {must}")
        return val

    def _scalar(self, key: str, default, ok, what: str):
        val = self.get(key, default)
        if not ok(val):
            raise SchemaError(f"{self.where}.{key} must be {what}, got {val!r}")
        return val

    def number(self, key: str, default=_REQUIRED) -> float:
        return float(self._scalar(key, default, _is_number, "a finite number"))

    def integer(self, key: str, default=_REQUIRED) -> int:
        return self._scalar(key, default, _is_integer, "an integer")

    def numbers(self, key: str, default=None) -> np.ndarray | None:
        val = self.value(key, lambda v: isinstance(v, list) and all(map(_is_number, v)),
                         "must be a list of finite numbers")
        return default if val is None else np.asarray(val, dtype=float)

    def complex(self, key: str) -> complex:
        """<key>_re + i <key>_im, each part 0 when absent."""
        return complex(self.number(f"{key}_re", 0.0), self.number(f"{key}_im", 0.0))

    def kind(self, kinds: set[str], *, optional: bool = False) -> str | None:
        """The value at "kind", one of kinds (or, if optional, None for an absent or null kind)."""
        kind = self.get("kind", None)
        if not (kind in kinds if isinstance(kind, str) else optional and kind is None):
            raise SchemaError(f"{self.where}.kind must be one of {sorted(kinds)}, got {kind!r}")
        return kind

    def enum(self, key: str, enum):
        """The member of enum whose value is at key."""
        val = self.get(key, None)
        try:
            return enum(val)
        except ValueError:
            raise SchemaError(f"{self.where}.{key} must be one of {[e.value for e in enum]}, "
                              f"got {val!r}") from None

    def section(self, key: str, missing: str | None = None) -> _Section | None:
        """The JSON object at key; when absent, None or else SchemaError(missing).

        With a missing message, a null counts as absent.
        """
        if key not in self.doc and missing is None:
            return None
        val = self.get(key, None)
        if val is None and missing is not None:
            raise SchemaError(missing)
        return _Section(val, key if self.where == "config" else f"{self.where}.{key}", self._raw)

    def done(self) -> None:
        """Refuse the first key that no getter read."""
        for key in self.doc:
            if key not in self._read:
                raise SchemaError(f"unknown key {key!r} in {self.where}{_line_of(self._raw, key)}")


def _beta(bath: _Section) -> float:
    val = bath.get("beta")
    if isinstance(val, str):
        if val.lower() in ("inf", "infinity"):
            return math.inf
        raise SchemaError(f"bath.beta string form must be 'inf', got {val!r}")
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise SchemaError("bath.beta must be a positive number or 'inf'")
    if not val > 0:
        raise SchemaError(f"bath.beta must be positive, got {val}")
    if not (_is_number(val) or val == math.inf):  # an integer beyond the float range
        raise SchemaError("bath.beta must be a finite number or 'inf'")
    return float(val)


def _parse_model(model: _Section) -> tuple[ModelSpec, SpectralDiscretization | None]:
    """The model, and the band recipe it was built from (None for explicit couplings)."""
    nu = model.number("nu")
    family = model.enum("coupling_family", CouplingFamily)
    spectral = model.section("spectral", "model requires 'spectral'")
    sfamily = spectral.enum("family", SpectralFamily)
    n_modes = spectral.integer("N")
    if n_modes > _MAX_SIZE:
        raise SchemaError(f"model.spectral.N = {n_modes} exceeds the largest array size")

    units = Units()
    if (section := model.section("units")) is not None:
        units = Units(hbar=section.number("hbar", 1.0), mass=section.number("mass", 1.0))
        section.done()

    if sfamily is SpectralFamily.EXPLICIT:
        # the band keys shape only the built-in families: an explicit model takes and ignores them
        for key in ("strength", "cutoff", "omega_min", "omega_max"):
            spectral.get(key, None)
        spectral.done()
        explicit = model.section(
            "explicit", "model.spectral.family 'Explicit' requires the 'explicit' section")
        omegas, u_re = explicit.numbers("omegas"), explicit.numbers("u_re")
        if omegas is None or u_re is None:
            raise SchemaError("model.explicit requires 'omegas' and 'u_re'")
        parts = {key: explicit.numbers(key) for key in ("u_im", "v_re", "v_im")}
        explicit.done()
        for key, arr in {"omegas": omegas, "u_re": u_re, **parts}.items():
            if arr is not None and arr.size != n_modes:
                raise SchemaError(f"model.explicit.{key} must have length N = {n_modes}")
        model.done()
        given_v = parts["v_re"] is not None or parts["v_im"] is not None
        u_im, v_re, v_im = (np.zeros_like(omegas) if arr is None else arr for arr in parts.values())
        v = v_re + 1j * v_im if given_v else None  # None: the coupling family's v
        return ModelSpec(nu, omegas, u_re + 1j * u_im, v, units, family), None
    if "explicit" in model.doc:
        raise SchemaError("model.explicit is only allowed with the Explicit spectral family")
    band = SpectralDiscretization(
        family=sfamily,
        strength=spectral.number("strength", 0.0),
        cutoff=spectral.number("cutoff", 1.0),
        omega_min=spectral.number("omega_min"),
        omega_max=spectral.number("omega_max"),
        n_modes=n_modes,
    )
    spectral.done()
    model.done()
    return build_model(band, nu=nu, family=family, units=units), band


def _parse_oscillator(osc: _Section) -> OscillatorState:
    kind = osc.kind(_OSC_KINDS)
    try:
        if kind == "gaussian":
            state = GaussianMoments(mean_a=osc.complex("mean"), n_ex=osc.number("n_ex", 0.0),
                                    aa=osc.complex("aa"))
        elif kind == "squeezed":
            state = SqueezedDisplaced(disp=osc.complex("disp"), r=osc.number("r", 0.0),
                                      phi=osc.number("phi", 0.0))
        else:
            state = CatState(alpha=osc.complex("alpha"), beta=osc.complex("beta"))
    except (ParameterError, PhysicalityError) as exc:  # a state no configuration can have
        raise SchemaError(f"oscillator: {exc}") from None
    osc.done()
    return state


def _parse_bath(bath: _Section, n_modes: int) -> dict:
    kind = bath.kind(_BATH_KINDS)
    out: dict = {"kind": kind}
    if kind in ("equilibrium", "sample_number", "sample_coherent"):
        out["beta"] = _beta(bath)
    if kind in ("sample_number", "sample_coherent"):
        seed = bath.integer("seed", 0)
        if seed < 0:
            raise SchemaError(f"bath.seed must be nonnegative, got {seed}")
        out["seed"] = seed
    if kind == "number":
        n = bath.get("n", None)
        if not isinstance(n, list) or not all(_is_integer(x) and 0 <= x <= _MAX_SIZE for x in n):
            raise SchemaError(f"bath.n must be a list of integers in [0, {_MAX_SIZE}]")
        out["n"] = np.asarray(n, dtype=int)
    if kind == "coherent":
        re, im = bath.numbers("amps_re"), bath.numbers("amps_im")
        if re is None:
            raise SchemaError("bath kind 'coherent' requires 'amps_re'")
        if im is None:
            im = np.zeros_like(re)
        if re.size != im.size:
            raise SchemaError("bath.amps_re and bath.amps_im must have equal length")
        out["amps"] = re + 1j * im
    bath.done()
    if "n" in out and out["n"].size != n_modes:
        raise SchemaError(f"bath.n must have length N = {n_modes}")
    if "amps" in out and out["amps"].size != n_modes:
        raise SchemaError(f"bath.amps_re must have length N = {n_modes}")
    return out


def _parse_time_grid(tg: _Section) -> TimeGrid:
    t_max = tg.number("t_max")
    steps = tg.integer("steps")
    tg.done()
    if t_max <= 0 or steps < 1:
        raise SchemaError("time_grid requires t_max > 0 and steps >= 1")
    if steps >= _MAX_SIZE:  # the grid holds steps + 1 points
        raise SchemaError(f"time_grid.steps = {steps} exceeds the largest array size")
    return TimeGrid.linspace(t_max, steps)


def _parse_experiment(exp: _Section | None, seed: int) -> dict:
    experiment: dict = {"seed": seed, "n_samples": 1000}
    if exp is None:
        return experiment
    experiment["kind"] = exp.kind(_EXPERIMENT_KINDS, optional=True)
    n_samples = exp.integer("n_samples", experiment["n_samples"])
    if n_samples < 2:
        raise SchemaError("experiment.n_samples must be >= 2")
    if n_samples > _MAX_SIZE:
        raise SchemaError(f"experiment.n_samples = {n_samples} exceeds the largest array size")
    experiment["n_samples"] = n_samples
    seed = exp.integer("seed", seed)
    if seed < 0:
        raise SchemaError("experiment.seed must be nonnegative")
    experiment["seed"] = seed
    n_list = exp.value("n_list", lambda v: isinstance(v, list) and v and all(
        _is_integer(x) and x >= 1 for x in v) and all(b > a for a, b in zip(v, v[1:])),
        "must be an ascending list of positive integers")
    if n_list is not None:
        experiment["n_list"] = list(n_list)
    time_index = exp.value("time_index", lambda v: v == "auto" or _is_integer(v),
                           "must be an integer or 'auto'")
    if time_index is not None:
        experiment["time_index"] = time_index
    exp.done()
    return experiment


@dataclass
class RunConfig:
    """Validated run configuration; bath is kept symbolic until realized."""

    model: ModelSpec
    band: SpectralDiscretization | None = None  # the model's band recipe; None if explicit
    bath_doc: dict | None = None
    oscillator: OscillatorState | None = None
    grid: TimeGrid | None = None
    out_dir: str | None = None
    formats: tuple[str, ...] = ("csv", "json")
    experiment: dict = field(default_factory=dict)


def parse_config(doc: dict, raw: str = "") -> RunConfig:
    """Validate a config document and construct the model-side objects."""
    top = _Section(doc, "config", raw)
    bath, exp, model, osc, outputs, tg = (top.section(key) for key in (
        "bath", "experiment", "model", "oscillator", "outputs", "time_grid"))
    top.done()
    if model is None:
        raise SchemaError("config requires a 'model' section")
    spec, band = _parse_model(model)
    bath_doc = None if bath is None else _parse_bath(bath, spec.n_modes)
    oscillator = None if osc is None else _parse_oscillator(osc)
    grid = None if tg is None else _parse_time_grid(tg)

    out_dir, formats = None, ("csv", "json")
    if outputs is not None:
        out_dir = outputs.value("directory", lambda v: isinstance(v, str), "must be a string")
        fmts = outputs.value("formats", lambda v: isinstance(v, list) and all(
            isinstance(f, str) and f in _FORMATS for f in v),
            f"entries must be among {sorted(_FORMATS)}")
        outputs.done()
        if fmts is not None:
            formats = tuple(fmts)

    return RunConfig(
        model=spec,
        band=band,
        bath_doc=bath_doc,
        oscillator=oscillator,
        grid=grid,
        out_dir=out_dir,
        formats=formats,
        experiment=_parse_experiment(exp, (bath_doc or {}).get("seed", 0)),
    )


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON run config from disk."""
    raw = Path(path).read_text()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError:  # nesting deeper than the parser's recursion limit
        raise SchemaError(f"invalid JSON in {path}: nested too deeply to parse") from None
    return parse_config(doc, raw)


def realize_bath(cfg: RunConfig) -> BathSpec:
    """Turn the symbolic bath section into a concrete preparation.

    The sample_* kinds draw one realization with the configured seed: row 0
    of the ensemble, the first draw of default_rng(seed).  Fixed kinds pass
    through unchanged.
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
    if kind == "sample_number":
        return NumberStateBath(sample_number_states(doc["beta"], cfg.model, doc["seed"], 1).n[0])
    return CoherentStateBath(sample_coherent_states(doc["beta"], cfg.model, doc["seed"], 1).amps[0])
