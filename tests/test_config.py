"""Strict JSON config parsing: schema errors, realized objects, round trips."""

import itertools
import json
import math
import re

import numpy as np
import pytest

from qbath.baths import (
    CoherentStateBath,
    EquilibriumBath,
    NumberStateBath,
    sample_coherent_states,
    sample_number_states,
)
from qbath.config import _MAX_SIZE, load_config, parse_config, realize_bath
from qbath.errors import DataError, ParameterError, SchemaError
from qbath.cli import _DISPATCH
from qbath.states import CatState, GaussianMoments, SqueezedDisplaced

from conftest import load_sample_config


def _base_doc():
    return {
        "model": {
            "nu": 1.0,
            "coupling_family": "RWA",
            "spectral": {
                "family": "OhmicExpCutoff",
                "strength": 0.1,
                "cutoff": 5.0,
                "omega_min": 0.5,
                "omega_max": 1.6,
                "N": 8,
            },
        },
        "bath": {"kind": "equilibrium", "beta": 1.0},
        "oscillator": {"kind": "squeezed", "r": 0.5},
        "time_grid": {"t_max": 10.0, "steps": 20},
    }


def test_sample_configs_parse(tmp_path, sample_config, sample_config_names):
    names = sample_config_names
    assert names
    for name in names:
        doc = sample_config(name)
        cfg = parse_config(doc, json.dumps(doc))
        assert cfg.model.n_modes >= 1
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        cfg2 = load_config(path)
        assert cfg2.model.n_modes == cfg.model.n_modes
    # every subcommand has a sample config, named <subcommand>-<scenario>
    for sub in _DISPATCH:
        assert any(name.startswith(sub + "-") for name in names), sub


def test_unknown_keys_rejected_with_line_anchor():
    doc = _base_doc()
    doc["modle"] = {}
    raw = json.dumps(doc, indent=2)
    with pytest.raises(SchemaError) as err:
        parse_config(doc, raw)
    assert "modle" in str(err.value)
    assert "line" in str(err.value)
    # nested unknown keys carry their section name
    doc = _base_doc()
    doc["model"]["spectral"]["gamma"] = 1.0
    with pytest.raises(SchemaError) as err:
        parse_config(doc, json.dumps(doc))
    assert "model.spectral" in str(err.value)


def _explicit_doc():
    doc = _base_doc()
    doc["model"]["coupling_family"] = "Custom"
    doc["model"]["spectral"] = {"family": "Explicit", "N": 2}
    doc["model"]["explicit"] = {"omegas": [1.0, 2.0], "u_re": [0.1, 0.2], "v_im": [0.05, 0.0]}
    return doc


def _full_doc():
    doc = _base_doc()
    doc["model"]["units"] = {"hbar": 1.0}
    doc["outputs"] = {"directory": "out"}
    doc["experiment"] = {"kind": "number"}
    return doc


_BATHS = {
    "equilibrium": {"kind": "equilibrium", "beta": 1.0},
    "number": {"kind": "number", "n": [1, 0, 2, 0, 1, 0, 0, 3]},
    "coherent": {"kind": "coherent", "amps_re": [0.1] * 8},
    "sample_number": {"kind": "sample_number", "beta": 1.0, "seed": 3},
    "sample_coherent": {"kind": "sample_coherent", "beta": 1.0, "seed": 3},
}
_OSCILLATORS = {
    "gaussian": {"kind": "gaussian", "n_ex": 0.2},
    "squeezed": {"kind": "squeezed", "r": 0.5},
    "cat": {"kind": "cat", "alpha_re": 1.0, "beta_re": -1.0},
}


def _with(key, section):
    """Maker of the full document with section at key."""
    return lambda: {**_full_doc(), key: dict(section)}


_SECTIONS = [
    pytest.param(where, path, make, id=name) for name, where, path, make in [
        ("config", "config", (), _full_doc),
        ("model", "model", ("model",), _full_doc),
        ("spectral", "model.spectral", ("model", "spectral"), _full_doc),
        ("spectral-explicit", "model.spectral", ("model", "spectral"), _explicit_doc),
        ("units", "model.units", ("model", "units"), _full_doc),
        ("explicit", "model.explicit", ("model", "explicit"), _explicit_doc),
        ("time_grid", "time_grid", ("time_grid",), _full_doc),
        ("outputs", "outputs", ("outputs",), _full_doc),
        ("experiment", "experiment", ("experiment",), _full_doc),
    ]
] + [
    pytest.param(where, (where,), _with(where, section), id=f"{where}-{kind}")
    for where, kinds in (("bath", _BATHS), ("oscillator", _OSCILLATORS))
    for kind, section in kinds.items()
]


@pytest.mark.parametrize("where, path, make", _SECTIONS)
def test_every_section_refuses_a_key_it_does_not_read(where, path, make):
    doc = make()
    parse_config(doc, "")  # valid as made
    section = doc
    for key in path:
        section = section[key]
    section["mystery"] = 1.0
    with pytest.raises(SchemaError) as err:
        parse_config(doc, "")
    assert str(err.value) == f"unknown key 'mystery' in {where}"


@pytest.mark.parametrize("bath, key, value", [
    ("equilibrium", "seed", 3),
    ("number", "beta", 1.0),
    ("sample_coherent", "amps_re", [0.1] * 8),
], ids=["seed-under-equilibrium", "beta-under-number", "amps_re-under-sample_coherent"])
def test_a_kind_refuses_the_keys_of_another_kind(bath, key, value):
    doc = _full_doc()
    doc["bath"] = {**_BATHS[bath], key: value}
    with pytest.raises(SchemaError, match=f"unknown key '{key}' in bath"):
        parse_config(doc, "")


def test_explicit_family_ignores_the_band_keys():
    # the band keys shape only the built-in families; any value is taken and ignored
    doc = _explicit_doc()
    plain = parse_config(doc, "").model
    doc["model"]["spectral"].update(strength="x", cutoff=None, omega_min=[], omega_max={})
    banded = parse_config(doc, "").model
    assert banded.omegas.tobytes() == plain.omegas.tobytes()
    assert banded.u.tobytes() == plain.u.tobytes() and banded.v.tobytes() == plain.v.tobytes()


def test_null_output_directory_is_a_schema_error():
    doc = _full_doc()
    doc["outputs"]["directory"] = None
    with pytest.raises(SchemaError, match="outputs.directory must be a string"):
        parse_config(doc, "")


def test_long_line_excerpt_is_truncated():
    doc = _base_doc()
    doc["bath"]["mystery"] = 1
    raw = json.dumps(doc)  # single line, several hundred chars
    with pytest.raises(SchemaError) as err:
        parse_config(doc, raw)
    msg = str(err.value)
    assert "mystery" in msg
    assert len(msg) < 300


def test_type_errors():
    doc = _base_doc()
    doc["model"]["nu"] = "one"
    with pytest.raises(SchemaError):
        parse_config(doc, "")
    doc = _base_doc()
    doc["time_grid"]["steps"] = 2.5
    with pytest.raises(SchemaError):
        parse_config(doc, "")
    doc = _base_doc()
    doc["time_grid"]["steps"] = True  # bools are not integers here
    with pytest.raises(SchemaError):
        parse_config(doc, "")
    doc = _base_doc()
    doc["model"]["coupling_family"] = "rwa"
    with pytest.raises(SchemaError):
        parse_config(doc, "")



def _set(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize("path, value", [
    (("oscillator",), 1.5),
    (("time_grid",), []),
    (("bath",), 3),
    (("outputs",), "csv"),
    (("oscillator", "kind"), [None]),
    (("bath", "kind"), [None]),
    (("experiment",), {"kind": [None]}),
    (("outputs",), {"formats": [["csv"]]}),
    (("time_grid", "t_max"), math.inf),
    (("time_grid", "t_max"), math.nan),
    (("model", "nu"), 10**400),
    (("oscillator",), {"kind": "gaussian", "n_ex": 0.2, "aa_re": 0.5}),  # below the bound
    (("time_grid", "steps"), 2**63),  # sizes numpy refuses before allocating
    (("time_grid", "steps"), 10**30),
    (("model", "spectral", "N"), 2**63),
    (("model", "spectral", "N"), 10**30),
    (("bath",), {"kind": "number", "n": [10**30] + [0] * 7}),  # past the int64 range
    (("oscillator",), {"kind": "cat", "alpha_re": 1e200}),  # |alpha|^2 past the float range
])
def test_malformed_values_are_schema_errors(path, value):
    # each of these once escaped as AttributeError, TypeError, OverflowError,
    # IndexError, numpy's ValueError, a PhysicalityError (exit 3) or a
    # RuntimeWarning followed by the wrong message; the message names the key
    doc = _base_doc()
    _set(doc, path, value)
    with pytest.raises(SchemaError, match=re.escape(".".join(path))):
        parse_config(doc, json.dumps(doc))


def test_overflowing_band_is_a_data_error():
    doc = _base_doc()
    doc["model"]["spectral"].update(strength=1e308, omega_max=1e308)
    with pytest.raises(DataError, match="non-finite"):
        parse_config(doc, "")

@pytest.mark.parametrize("name, path, value", [
    ("ensemble-number", ("model", "nu"), 0.0),
    ("ensemble-number", ("model", "nu"), -1.0),
    ("ensemble-number", ("model", "spectral", "strength"), -0.1),
    ("ensemble-number", ("model", "spectral", "cutoff"), 0.0),
    ("ensemble-number", ("model", "spectral", "omega_min"), 2.0),  # above omega_max
    ("ensemble-number", ("model", "units"), {"hbar": 0.0}),
    ("rwa-compare-squeezed", ("model", "explicit", "omegas", 0), 0.0),
    ("rwa-compare-squeezed", ("model", "explicit", "v_re", 0), 0.2),  # RWA needs v = 0
    ("rwa-compare-squeezed", ("model", "coupling_family"), "PositionPosition"),  # u != v
])
def test_well_typed_out_of_range_models_are_refused(sample_config, name, path, value):
    # the schema accepts each of these; the model's own checks refuse them (exit 2)
    doc = sample_config(name)
    _set(doc, path, value)
    with pytest.raises((ParameterError, DataError)):
        parse_config(doc, json.dumps(doc))


def test_explicit_section_rules():
    doc = _base_doc()
    # explicit section is rejected unless the spectral family asks for it
    doc["model"]["explicit"] = {"omegas": [1.0], "u_re": [0.1]}
    with pytest.raises(SchemaError):
        parse_config(doc, "")
    doc = _base_doc()
    doc["model"]["spectral"] = {"family": "Explicit", "N": 2}
    with pytest.raises(SchemaError):  # missing explicit section
        parse_config(doc, "")
    doc["model"]["coupling_family"] = "Custom"
    doc["model"]["explicit"] = {
        "omegas": [1.0, 2.0],
        "u_re": [0.1, 0.2],
        "v_im": [0.05, 0.0],
    }
    cfg = parse_config(doc, "")
    assert cfg.model.n_modes == 2
    assert cfg.model.v[0] == 0.05j
    doc["model"]["explicit"]["u_re"] = [0.1]
    with pytest.raises(SchemaError):  # length mismatch against N
        parse_config(doc, "")


def test_bath_kind_key_rules():
    doc = _base_doc()
    doc["bath"] = {"kind": "equilibrium", "beta": 1.0, "n": [1] * 8}
    with pytest.raises(SchemaError):  # 'n' belongs to number baths
        parse_config(doc, "")
    doc["bath"] = {"kind": "number", "n": [1, 0, 2, 0, 1, 0, 0, 3]}
    bath = realize_bath(parse_config(doc, ""))
    assert isinstance(bath, NumberStateBath)
    assert bath.n[7] == 3
    doc["bath"] = {"kind": "number", "n": [1, 0]}
    with pytest.raises(SchemaError):  # length must match N
        parse_config(doc, "")
    doc["bath"] = {"kind": "number", "n": [1, -1, 0, 0, 0, 0, 0, 0]}
    with pytest.raises(SchemaError):
        parse_config(doc, "")
    doc["bath"] = {"kind": "coherent", "amps_re": [0.1] * 8, "amps_im": [0.2] * 8}
    bath = realize_bath(parse_config(doc, ""))
    assert isinstance(bath, CoherentStateBath)
    assert bath.amps[0] == 0.1 + 0.2j
    doc["bath"] = {"kind": "coherent", "amps_re": [0.1] * 8, "amps_im": [0.2] * 7}
    with pytest.raises(SchemaError):
        parse_config(doc, "")


def test_beta_forms():
    for form in ("inf", "Infinity", "INF"):
        doc = _base_doc()
        doc["bath"]["beta"] = form
        bath = realize_bath(parse_config(doc, ""))
        assert isinstance(bath, EquilibriumBath)
        assert bath.beta == math.inf
    doc = _base_doc()
    doc["bath"]["beta"] = -2.0
    with pytest.raises(SchemaError):
        parse_config(doc, "")
    doc["bath"]["beta"] = "cold"
    with pytest.raises(SchemaError):
        parse_config(doc, "")
    doc["bath"]["beta"] = 10**400  # an integer beyond the float range, once an OverflowError
    with pytest.raises(SchemaError, match="bath.beta"):
        parse_config(doc, "")


def test_sampled_bath_seeds():
    doc = _base_doc()
    doc["bath"] = {"kind": "sample_number", "beta": 1.0, "seed": 11}
    cfg = parse_config(doc, "")
    a = realize_bath(cfg)
    b = realize_bath(cfg)
    assert np.array_equal(a.n, b.n)  # one fixed realization per seed
    doc["bath"]["seed"] = 12
    assert isinstance(realize_bath(parse_config(doc, "")), NumberStateBath)
    doc["bath"] = {"kind": "sample_coherent", "beta": 1.0, "seed": 11}
    amps = realize_bath(parse_config(doc, "")).amps
    expected = sample_coherent_states(1.0, cfg.model, 11, 1).amps[0]
    assert np.array_equal(amps, expected)
    doc["bath"] = {"kind": "sample_number", "beta": 1.0, "seed": -1}
    with pytest.raises(SchemaError):
        parse_config(doc, "")


def test_realized_sample_bath_is_row_0_of_the_ensemble():
    # a configured sampled bath is member 0 of its seed's ensemble and of a one-member
    # draw from default_rng(seed), bit for bit
    doc = _base_doc()
    kinds = (("sample_number", sample_number_states, "n"),
             ("sample_coherent", sample_coherent_states, "amps"))
    for model in (doc["model"], load_sample_config("ensemble-number")["model"]):
        doc["model"] = model
        for kind, sample, field in kinds:
            for beta, seed in itertools.product((0.7, math.inf), (7, 2**64 + 3)):
                doc["bath"] = {"kind": kind, "beta": beta, "seed": seed}
                cfg = parse_config(doc, "")
                got = getattr(realize_bath(cfg), field)
                rng = np.random.default_rng(seed)
                for want in (getattr(sample(beta, cfg.model, seed, 3), field)[0],
                             getattr(sample(beta, cfg.model, rng, 1), field)[0]):
                    assert (got.dtype, got.shape) == (want.dtype, want.shape)
                    assert got.tobytes() == want.tobytes(), (kind, beta, seed)


def test_oscillator_kinds():
    doc = _base_doc()
    doc["oscillator"] = {"kind": "gaussian", "mean_re": 0.4, "n_ex": 0.2, "aa_re": 0.16}
    cfg = parse_config(doc, "")
    assert isinstance(cfg.oscillator, GaussianMoments)
    assert cfg.oscillator.mean_a == 0.4
    doc["oscillator"] = {"kind": "cat", "alpha_re": 1.0, "beta_re": -1.0}
    cfg = parse_config(doc, "")
    assert isinstance(cfg.oscillator, CatState)
    doc["oscillator"] = {"kind": "squeezed", "r": 0.3, "phi": 0.1}
    cfg = parse_config(doc, "")
    assert isinstance(cfg.oscillator, SqueezedDisplaced)
    doc["oscillator"] = {"kind": "thermal"}
    with pytest.raises(SchemaError):
        parse_config(doc, "")
    doc["oscillator"] = {"kind": "squeezed", "alpha_re": 1.0}
    with pytest.raises(SchemaError):  # cat keys on a squeezed state
        parse_config(doc, "")


def test_experiment_section():
    doc = _base_doc()
    # the ensemble seed falls back to the sampled bath's seed, else 0
    assert parse_config(doc, "").experiment == {"seed": 0, "n_samples": 1000}
    doc["bath"] = {"kind": "sample_number", "beta": 1.0, "seed": 5}
    assert parse_config(doc, "").experiment == {"seed": 5, "n_samples": 1000}
    doc["experiment"] = {"kind": "number", "n_samples": 40}
    assert parse_config(doc, "").experiment == {"kind": "number", "seed": 5, "n_samples": 40}
    doc["experiment"] = {"kind": "n-sweep", "n_list": [16, 32, 64], "seed": 3}
    cfg = parse_config(doc, "")
    assert cfg.experiment["seed"] == 3
    assert cfg.experiment["n_list"] == [16, 32, 64]
    assert cfg.experiment["n_samples"] == 1000  # default
    doc["experiment"]["n_list"] = [32, 16]
    with pytest.raises(SchemaError):  # must ascend
        parse_config(doc, "")
    doc["experiment"] = {"kind": "number", "time_index": "auto"}
    assert parse_config(doc, "").experiment["time_index"] == "auto"
    doc["experiment"] = {"kind": "number", "time_index": 1.5}
    with pytest.raises(SchemaError):
        parse_config(doc, "")
    doc["experiment"] = {"kind": "bogus"}
    with pytest.raises(SchemaError):
        parse_config(doc, "")
    doc["experiment"] = {"n_samples": 0}
    with pytest.raises(SchemaError):
        parse_config(doc, "")
    # the member matrix has n_samples rows: any array size is accepted, none beyond
    doc["experiment"] = {"n_samples": 2**32 + 1}
    assert parse_config(doc, "").experiment["n_samples"] == 2**32 + 1
    doc["experiment"] = {"n_samples": _MAX_SIZE}
    assert parse_config(doc, "").experiment["n_samples"] == _MAX_SIZE
    doc["experiment"] = {"n_samples": _MAX_SIZE + 1}
    with pytest.raises(SchemaError, match="exceeds the largest array size"):
        parse_config(doc, "")


def test_outputs_section():
    doc = _base_doc()
    doc["outputs"] = {"directory": "out", "formats": ["csv", "sidecar"]}
    cfg = parse_config(doc, "")
    assert cfg.out_dir == "out"
    assert cfg.formats == ("csv", "sidecar")
    doc["outputs"]["formats"] = ["csv", "parquet"]
    with pytest.raises(SchemaError):
        parse_config(doc, "")
    doc = _base_doc()
    assert parse_config(doc, "").formats == ("csv", "json")


def test_missing_bath_realize():
    doc = _base_doc()
    del doc["bath"]
    cfg = parse_config(doc, "")
    with pytest.raises(SchemaError):
        realize_bath(cfg)


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load_config(path)
    path.write_text("[1, 2]")
    with pytest.raises(SchemaError):
        load_config(path)
    path.write_text("[" * 100000)  # past the parser's recursion limit
    with pytest.raises(SchemaError, match="nested too deeply"):
        load_config(path)
