"""The schema-subset checker decides and words its rejections as jsonschema's Draft 2020-12 validator."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from meandro.cli import CONFIG_SCHEMA
from meandro.errors import ConfigError
from meandro.geometry import PERFORATION_SCHEMA, _accepts, _best, _conform, validated

MEANDER = {"name": "meander", "x": [0.5, 0.0], "c": 0.1, "alpha": 2, "lambda": 1.5}
EXPLICIT = {"poles": {"explicit": [[1, 0.5, 0.0], [2, -0.25, 0.5]]}, "radius": {"c": 0.05, "alpha": 2},
            "lambda": 1.5}
TABLE = {"poles": "roots_of_unity", "radius": {"table": {"1": 0.1, "2": 0.05}}, "lambda": 2}
GRID = {"re_start": 0.9, "re_stop": 1.1, "re_count": 3, "im_start": 0, "im_stop": 0, "im_count": 1}

#: Valid configs, one or more per section, that the strategy mutates.
CONFIGS = [
    {"model": MEANDER, "eval": {"points": [0.1, [0.2, 0.3]]}},
    {"model": {"name": "qlog", "x": 0.9},
     "eval": {"ray": {"theta_turns": 0.1, "t_start": 0, "t_stop": 2, "t_step": 0.05}}},
    {"model": {"name": "zero_sum_general", "constant": [1, 0], "poles": [0.5, [0.25, 0.1]]},
     "jet": {"z0": 0, "order": 8}},
    {"model": MEANDER, "polar": {"mode": "laurent", "sheet": 3, "center": [1.0, 0.0], "r": 0.05,
                                 "k_min": -2, "k_max": 2}},
    {"model": MEANDER, "polar": {"mode": "fiber", "omega": [1.0, 0.0], "z": 2.0}},
    {"model": MEANDER, "gevrey": {"order": 24, "window": [5, 24], "z_values": [0.05, 0.1]}},
    {"curve": {"n": 8, "x_start": 0.05, "x_stop": 0.9, "x_count": 5}},
    {"perforation": EXPLICIT, "residual": {"grid": GRID, "margin": 0.0}},
    {"perforation": TABLE, "residual": {"grid": GRID}},
    {"covering": {"alphas": [2, 3], "radii": [0.01, 1], "moduli": [0.2, 1.0], "angles": 360, "phase": 0.3}},
]
PERFORATIONS = [EXPLICIT, TABLE, {"poles": "meander", "radius": {"c": 1e-3, "alpha": 1.0}, "lambda": 1.01}]

#: oneOf branches that overlap: 3 is under both, 2.5 under the second alone,
#: -1 under the second alone, 11 under the first alone and 11.5 under neither.
OVERLAP = {"oneOf": [{"type": "integer", "minimum": 0}, {"type": "number", "maximum": 10}]}
#: OVERLAP beside other keywords: at 20.5 its oneOf and the maximum both reject.
BESIDE = {"oneOf": OVERLAP["oneOf"], "type": "number", "maximum": 15}


def _names(schema, found):
    if isinstance(schema, dict):
        found.update(schema.get("properties", {}))
        for value in schema.values():
            _names(value, found)
    elif isinstance(schema, list):
        for value in schema:
            _names(value, found)
    return found


NAMES = sorted(_names([CONFIG_SCHEMA, PERFORATION_SCHEMA], set()))
WORDS = ["meander", "qlog", "laurent", "fiber", "roots_of_unity", "explicit", "circle", ""]
KEYS = st.sampled_from(NAMES) | st.text(max_size=3)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([0, 1, 10, 1023, 1024, 10**400, -(10**400)]),
    st.floats(),  # NaN, the infinities and -0.0 among them
    st.integers(-3, 2000).map(float),  # integral floats
    st.sampled_from(WORDS) | st.text(max_size=4),
)
#: The bounds of the schemas and their neighbours.
BOUNDS = st.sampled_from([0, 0.0, -0.0, 1, 1.0, 1.5, 7, 8, 9, 10, 39, 40, 39.0, 1023, 1024, 1024.0])
JSON = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4),
    ),
    max_leaves=10,
)


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, prefix + (index,))


@st.composite
def mutated(draw, bases):
    """A valid config with one to three of its values replaced, dropped, grown or repeated."""
    config = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(config))))
        action = draw(st.sampled_from(["replace", "drop", "extra", "empty", "repeat"]))
        if not path:
            config = draw(JSON) if action == "replace" else config
            continue
        parent = _at(config, path[:-1])
        key, value = path[-1], parent[path[-1]]
        if action == "replace":
            parent[key] = draw(JSON)
        elif action == "drop":
            del parent[key]
        elif action == "extra" and isinstance(value, dict):
            value[draw(KEYS)] = draw(JSON)
        elif action == "empty" and isinstance(value, (dict, list)):
            value.clear()
        elif action == "repeat" and isinstance(value, list):
            value.extend(value or [draw(JSON)])
    return config


@st.composite
def at_a_bound(draw, bases):
    """A valid config with one number replaced by a bound of the schemas or a neighbour of one."""
    config = copy.deepcopy(draw(st.sampled_from(bases)))
    numbers = [path for path in _paths(config) if path and isinstance(_at(config, path), (int, float))]
    path = draw(st.sampled_from(numbers))
    _at(config, path[:-1])[path[-1]] = draw(BOUNDS)
    return config


def _at(config, path):
    for step in path:
        config = config[step]
    return config


def _jsonschema_accepts(instance, schema):
    return best_match(validator_for(schema)(schema).iter_errors(instance)) is None


@settings(max_examples=400, deadline=None)
@given(st.one_of(mutated(CONFIGS), at_a_bound(CONFIGS), JSON))
def test_the_checker_decides_configs_as_jsonschema_does(instance):
    accepted = _accepts(instance, CONFIG_SCHEMA)
    assert accepted == _jsonschema_accepts(instance, CONFIG_SCHEMA)
    if accepted:  # the ints it hands on are accepted too
        assert _jsonschema_accepts(_conform(instance, CONFIG_SCHEMA), CONFIG_SCHEMA)


@settings(max_examples=300, deadline=None)
@given(st.one_of(mutated(PERFORATIONS), at_a_bound(PERFORATIONS), JSON))
def test_the_checker_decides_perforations_as_jsonschema_does(instance):
    assert _accepts(instance, PERFORATION_SCHEMA) == _jsonschema_accepts(instance, PERFORATION_SCHEMA)


@settings(max_examples=200, deadline=None)
@given(st.one_of(LEAVES, st.sampled_from([3, 3.0, 2.5, -1, 11, 11.5, True])))
def test_one_of_wants_exactly_one_branch(instance):
    assert _accepts(instance, OVERLAP) == _jsonschema_accepts(instance, OVERLAP)


#: Each schema the checker serves, with the instances that probe it.
CASES = {
    "config": (CONFIG_SCHEMA, st.one_of(mutated(CONFIGS), at_a_bound(CONFIGS), JSON)),
    "perforation": (PERFORATION_SCHEMA, st.one_of(mutated(PERFORATIONS), at_a_bound(PERFORATIONS), JSON)),
    "overlap": (OVERLAP, st.one_of(LEAVES, st.sampled_from([3, 3.0, 2.5, -1, 11, 11.5, True]))),
    "beside": (BESIDE, st.one_of(LEAVES, st.sampled_from([3, 2.5, 11, 11.5, 15, 16, 20.5, True]))),
}


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_rejection_names_the_violation_best_match_names(name, data):
    schema, instances = CASES[name]
    instance = data.draw(instances)
    error = best_match(validator_for(schema)(schema).iter_errors(instance))
    if error is None:
        assert _accepts(instance, schema)
        return
    with pytest.raises(ConfigError) as raised:
        validated(instance, schema, "context")
    assert str(raised.value) == f"context: {error.message}"
    violations = []
    assert _conform(instance, schema, violations) is _conform(instance, schema)
    assert _best(violations).path == tuple(error.absolute_path)


def test_integral_floats_come_back_as_ints():
    config = {"curve": {"n": 8.0, "x_start": 1.0, "x_count": 3.0}, "covering": {"alphas": [2.0, 3]}}
    conformed = _conform(config, CONFIG_SCHEMA)
    assert conformed == config
    assert [type(v) for v in conformed["curve"].values()] == [int, float, int]
    assert [type(v) for v in conformed["covering"]["alphas"]] == [int, int]


@pytest.mark.parametrize(
    "schema",
    [{"pattern": "x"}, {"type": "string"}, {"enum": [1, 2]}, {"items": {"type": "number", "multipleOf": 2}}],
    ids=["keyword", "type", "enum-of-numbers", "nested-keyword"],
)
def test_the_checker_refuses_what_it_does_not_implement(schema):
    with pytest.raises(ValueError, match="does not implement|strings only"):
        _accepts([4], schema)
