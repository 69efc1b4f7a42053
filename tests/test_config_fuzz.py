"""Fuzzing parse_config: mutated sample configs fail only with typed config errors."""

import copy
import json
import warnings
from pathlib import Path

import pytest

from qbath.config import parse_config
from qbath.errors import DataError, ParameterError, SchemaError

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SAMPLES = [json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))]

# small integers only: a mode count or step count in the millions is a valid request
# whose arrays would not fit in memory, which is not what this test is about
LEAVES = (
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats()
    | st.sampled_from(["inf", "RWA", "number", "csv", "auto", "Explicit"]) | st.text(max_size=3)
)
# finite numbers near 0 and negative, and every coupling family, drawn for the model
# keys they fit: a well-typed but out-of-range model reaches the model-level refusals
NEAR_ZERO = st.floats(-2.0, 0.5)
KEYED = dict.fromkeys(
    ("nu", "strength", "cutoff", "omega_min", "omega_max", "omegas", "u_re", "u_im", "v_re", "v_im"),
    NEAR_ZERO,
)
KEYED["coupling_family"] = st.sampled_from(["RWA", "PositionPosition", "Custom"])
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


@st.composite
def mutated_configs(draw):
    """A sample config with one to three values replaced, keys deleted or keys added.

    A value under a KEYED key (a list entry: under the list's key) is replaced
    by a leaf of that key's type or by any value.
    """
    doc = copy.deepcopy(draw(st.sampled_from(SAMPLES)))
    for _ in range(draw(st.integers(1, 3))):
        node, name = doc, None
        while True:  # walk down to a random container, stopping at a random depth
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            name = key if isinstance(node, dict) else name
            child = node[key]
            if not (isinstance(child, (dict, list)) and child and draw(st.booleans())):
                break
            node = child
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "add" and isinstance(node, dict):
            node[draw(st.text(max_size=3))] = draw(VALUES)
        elif keys and action == "delete":
            del node[key]
        elif keys:
            node[key] = draw(KEYED[name] | VALUES if name in KEYED else VALUES)
    return doc


def _keyed_paths(node, name=None, path=()):
    """Paths to the leaves under KEYED keys, a list's entries under the list's key."""
    if isinstance(node, dict):
        return [q for key, child in node.items() for q in _keyed_paths(child, key, (*path, key))]
    if isinstance(node, list):
        return [q for k, child in enumerate(node) for q in _keyed_paths(child, name, (*path, k))]
    return [(name, path)] if name in KEYED else []


@st.composite
def model_edits(draw):
    """A sample config with one to three model leaves replaced by leaves of their key's type."""
    doc = copy.deepcopy(draw(st.sampled_from(SAMPLES)))
    for name, (*head, last) in draw(st.lists(st.sampled_from(_keyed_paths(doc)), min_size=1,
                                             max_size=3)):
        node = doc
        for key in head:
            node = node[key]
        node[last] = draw(KEYED[name])
    return doc


@hypothesis.given(mutated_configs() | model_edits())
def test_mutated_configs_raise_only_config_errors(doc):
    # SchemaError, ParameterError and DataError all exit 2 from the CLI
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            parse_config(doc, json.dumps(doc))
        except (SchemaError, ParameterError, DataError):
            pass
