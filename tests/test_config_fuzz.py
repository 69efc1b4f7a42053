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
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


@st.composite
def mutated_configs(draw):
    """A sample config with one to three values replaced, keys deleted or keys added."""
    doc = copy.deepcopy(draw(st.sampled_from(SAMPLES)))
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while True:  # walk down to a random container, stopping at a random depth
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
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
            node[key] = draw(VALUES)
    return doc


@hypothesis.given(mutated_configs())
def test_mutated_configs_raise_only_config_errors(doc):
    # SchemaError, ParameterError and DataError all exit 2 from the CLI
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            parse_config(doc, json.dumps(doc))
        except (SchemaError, ParameterError, DataError):
            pass
