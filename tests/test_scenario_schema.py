"""The scenario validator: JSON Schema semantics for the keywords the
scenario schemas use, checked against jsonschema as an oracle on mutations
of the shipped scenarios, and a fuzz of scenario_from_dict on the same
mutations."""

import copy
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from discflux import scenario
from discflux.presets import PRESET_NAMES
from discflux.scenario import (
    Scenario,
    ScenarioError,
    builtin_scenario_names,
    builtin_scenario_path,
    scenario_from_dict,
)

SHIPPED = [json.loads(open(builtin_scenario_path(name)).read()) for name in builtin_scenario_names()]


def _accepts(value, schema) -> bool:
    try:
        scenario._check(value, schema, "")
    except ScenarioError:
        return False
    return True


def _keys(node):
    if isinstance(node, dict):
        for key, child in node.items():
            yield key
            yield from _keys(child)
    elif isinstance(node, list):
        for child in node:
            yield from _keys(child)


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


# every key of the schemas and the shipped scenarios, so that a rename often
# lands on a key that some block allows
KEYS = sorted({key for doc in SHIPPED for key in _keys(doc)}
              | {key for key in _keys([scenario._BASE_SCHEMA, scenario._FLUX_OBJECT_SCHEMA,
                                       scenario._INITIAL_SCHEMAS, scenario._STUDY_SCHEMAS])})
# integers up to 1e4 and arrays up to 8 long, so no accepted grid or output
# count allocates much
NUMBERS = (st.integers(-10**4, 10**4) | st.floats(-1e4, 1e4)
           | st.sampled_from([0, 1, 2, 3, 4, 16, -1, 0.5, 1.0, 64.0, -0.0, 1e-9]))
WORDS = sorted({*KEYS, *scenario.SCENARIO_KINDS, *scenario._INITIAL_KINDS, *PRESET_NAMES,
                "none", "affine", "zero", "poly"})
SCALARS = st.none() | st.booleans() | NUMBERS | st.text(max_size=6) | st.sampled_from(WORDS)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=8)
                      | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4), max_leaves=8)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def mutated_scenarios(draw, values=VALUES):
    """A shipped scenario with one to three mutations: a key deleted or
    renamed, a value retyped or pushed out of range, an array resized."""
    doc = copy.deepcopy(draw(st.sampled_from(SHIPPED)))
    for _ in range(draw(st.integers(1, 3))):
        *parent_path, last = draw(st.sampled_from(list(_paths(doc))[1:]))
        parent = doc
        for key in parent_path:
            parent = parent[key]
        node = parent[last]
        ops = ["retype"] + ["delete", "rename"] * isinstance(parent, dict)
        ops += ["number"] * 3 * isinstance(node, (int, float)) + ["resize"] * 2 * isinstance(node, list)
        op = draw(st.sampled_from(ops))
        if op == "delete":
            del parent[last]
        elif op == "rename":
            parent[draw(st.sampled_from(KEYS))] = parent.pop(last)
        elif op == "retype":
            parent[last] = draw(values)
        elif op == "number":  # out of range, or a bool, which is no number
            parent[last] = draw(NUMBERS | st.just(-node) | st.booleans())
        else:
            size = draw(st.integers(0, 8))
            parent[last] = [node[i % len(node)] if node else draw(values) for i in range(size)]
    return doc


def _stages(doc):
    """The (part, schema) pairs scenario_from_dict validates in `doc`, as far
    as its kind and its flux can be read."""
    yield doc, scenario._BASE_SCHEMA
    if isinstance(doc.get("flux"), dict):
        yield doc["flux"], scenario._FLUX_OBJECT_SCHEMA
    study = doc.get("study", {})
    kind = doc.get("kind")
    if isinstance(kind, str) and kind in scenario._STUDY_SCHEMAS:
        yield study, scenario._STUDY_SCHEMAS[kind]
    specs = [doc.get("initial")]
    if isinstance(study, dict):
        specs += [study.get(key) for key in ("initial_b", "perturbation", "solve_target")]
    for spec in specs:
        if spec is not None:
            yield spec, scenario._INITIAL_ENVELOPE
            if isinstance(spec, dict) and isinstance(spec.get("kind"), str) \
                    and spec["kind"] in scenario._INITIAL_SCHEMAS:
                yield spec, scenario._INITIAL_SCHEMAS[spec["kind"]]


_ORACLES: dict = {}


def _oracle(schema) -> Draft202012Validator:
    return _ORACLES.setdefault(id(schema), Draft202012Validator(schema))


def test_validator_types_follow_json_schema():
    # a bool is neither a number nor an integer, 64.0 is an integer, and enum
    # and const compare as JSON does: true is not 1, 1.0 is 1
    cases = [(True, {"type": "number"}, False), (False, {"type": "integer"}, False),
             (64.0, {"type": "integer"}, True), (64.5, {"type": "integer"}, False),
             (64, {"type": "number"}, True), (True, {"enum": [1, 2]}, False),
             (1.0, {"enum": [1, 2]}, True), (1, {"const": True}, False),
             (0, {"const": False}, False), (2.0, {"const": 2}, True),
             ("", {"type": "string", "minLength": 1}, False),
             (None, {"anyOf": [{"type": "null"}, {"type": "array"}]}, True),
             ({"x": 1}, {"type": ["string", "object"]}, True)]
    for value, schema, expected in cases:
        assert _accepts(value, schema) is expected, (value, schema)
        assert Draft202012Validator(schema).is_valid(value) is expected, (value, schema)


def test_validator_refuses_non_finite_numbers_with_their_pointer():
    # jsonschema calls NaN and infinity numbers; the scenario validator does not,
    for value in (math.nan, math.inf, -math.inf):
        assert Draft202012Validator({"type": "number"}).is_valid(value)
        assert not _accepts(value, {"type": "number"})
        doc = copy.deepcopy(SHIPPED[0])
        doc["run"]["epsilon"] = value
        with pytest.raises(ScenarioError, match=f"^/run/epsilon: {value} is not of type 'number'$"):
            scenario_from_dict(doc)
    # nor an integer too large for a float, which float() would overflow on
    doc = copy.deepcopy(SHIPPED[0])
    doc["run"]["final_time"] = 10**400
    with pytest.raises(ScenarioError, match="^/run/final_time: 1000.* is not of type 'number'$"):
        scenario_from_dict(doc)
    doc = copy.deepcopy(SHIPPED[0])
    doc["initial"] = {"kind": "riemann", "left": 0.0, "right": 1.0, "position": math.nan}
    with pytest.raises(ScenarioError, match="^/initial/position: nan is not of type 'number'$"):
        scenario_from_dict(doc)


def test_anyof_reports_the_branch_of_the_value_type():
    doc = copy.deepcopy(SHIPPED[0])
    doc["run"]["boundary"] = [[0.0, 1.0, 0.5]]
    with pytest.raises(ScenarioError, match=r"^/run/boundary/0: \[0.0, 1.0, 0.5\] is too long$"):
        scenario_from_dict(doc)
    doc["run"]["boundary"] = "pinned"
    with pytest.raises(ScenarioError, match="^/run/boundary: 'pinned' is not of type 'number'$"):
        scenario_from_dict(doc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_scenarios())
def test_validator_agrees_with_jsonschema_on_mutated_scenarios(doc):
    for part, schema in _stages(doc):
        assert _accepts(part, schema) == _oracle(schema).is_valid(part), (part, schema)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_scenarios(values=VALUES | NON_FINITE))
def test_mutated_scenarios_parse_or_raise_scenario_error(doc):
    try:
        assert isinstance(scenario_from_dict(doc), Scenario)
    except ScenarioError:
        pass
