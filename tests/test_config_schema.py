"""The config checker and loader against the libraries they stand in for.

``cli._schema_errors`` checks configs against ``CONFIG_SCHEMA`` without
jsonschema, which is a test-only oracle here, as mpmath is for the special
functions.  Seeded mutations of every workload, golden and invalid CLI
config must get the same accept/reject and the same error paths from both.
``cli._ConfigLoader`` parses with libyaml; it must give the data of the
pure-Python ``SafeLoader`` with the same resolvers.
"""

import copy
import random
import sys
from pathlib import Path

import pytest
import yaml
from jsonschema import Draft202012Validator

import test_cli
import test_golden_csv
from casimir_stability.cli import _MODELS, CONFIG_SCHEMA, _ConfigLoader, _schema_errors

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402

ORACLE = Draft202012Validator(CONFIG_SCHEMA)


def _load(text, loader=_ConfigLoader):
    return yaml.load(text, Loader=loader)


def _as_read(cfg):
    """``cfg`` as the CLI reads it: dumped to YAML and loaded back."""
    return _load(yaml.safe_dump(cfg))


def _cli_invalid_configs():
    """The configs of test_cli.py's validation-error cases."""
    pair = test_cli.PAIR_CFG
    configs = [
        dict(pair, bogus=1),
        dict(pair, sweep={"object": "a", "axis": 2, "values": []}),
        _load(test_cli.PLATES_YAML % '"1e-6"'),
    ]
    for test in (
        test_cli.test_step_and_order_limits_are_validation_errors,
        test_cli.test_out_of_bounds_input_is_a_validation_error,
        test_cli.test_unsupported_material_is_a_validation_error,
    ):
        (mark,) = test.pytestmark
        # the second field of each case is the config, or what it changes in PAIR_CFG
        configs += [dict(pair, **case[1]) for case in mark.args[1]]
    return configs


def _base_configs():
    """Every starting config once: the workloads' (seeds 1-3), the golden
    cases' and test_cli.py's invalid ones."""
    configs = [op.config for make in workloads.WORKLOADS.values()
               for seed in (1, 2, 3) for op in make(seed)]
    configs += [cfg for _, cfg, _ in test_golden_csv.CASES.values()]
    configs += _cli_invalid_configs()
    unique = {}
    for cfg in map(_as_read, configs):
        unique.setdefault(repr(cfg), cfg)
    return list(unique.values())


BASES = _base_configs()

# wrong types, and lists too short or too long for a 3-vector
WRONG_TYPE = ["x", "1e-6", "", True, False, None, [], {}, [1.0, 2.0], [0.0, 1.0, 2.0, 3.0],
              {"a": 1}, 2.5, 3, -1]
OUT_OF_BOUND = [-1, -0.5, 0, 0.0, 1, 2.0, 2.5, 3, 4, 250, 1e300, -1e300]
UNKNOWN_KEYS = ["bogus", "Tau", "radius ", 7]


def _nodes(node, path=()):
    """(path, node) of ``node`` and of everything under it."""
    yield path, node
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, value in children:
        yield from _nodes(value, (*path, key))


def _at(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


def _mutate(cfg, kind, rng):
    """One seeded mutation of ``kind`` applied to ``cfg`` in place; False
    when ``cfg`` has nothing it applies to."""
    nodes = list(_nodes(cfg))
    if kind == "wrong_type":
        path = rng.choice([p for p, _ in nodes[1:]])
        _at(cfg, path[:-1])[path[-1]] = rng.choice(WRONG_TYPE)
    elif kind == "out_of_bound":
        numbers = [p for p, n in nodes if type(n) in (int, float)]
        if not numbers:
            return False
        path = rng.choice(numbers)
        _at(cfg, path[:-1])[path[-1]] = rng.choice(OUT_OF_BOUND)
    elif kind == "dropped_key":
        keys = [p for p, _ in nodes[1:] if isinstance(_at(cfg, p[:-1]), dict)]
        path = rng.choice(keys)
        del _at(cfg, path[:-1])[path[-1]]
    elif kind == "unknown_key":
        path = rng.choice([p for p, n in nodes if isinstance(n, dict)])
        _at(cfg, path)[rng.choice(UNKNOWN_KEYS)] = rng.choice(WRONG_TYPE)
    elif kind == "model_parameter":
        # a list, as a mutated type may be unhashable
        models = [n for _, n in nodes if isinstance(n, dict) and n.get("type") in list(_MODELS)]
        if not models:
            return False
        model = rng.choice(models)
        params = [k for k in model if k != "type"]
        if params and rng.random() < 0.5:
            del model[rng.choice(params)]
        else:
            model["type"] = rng.choice(sorted(_MODELS))
    return True


KINDS = ["wrong_type", "out_of_bound", "dropped_key", "unknown_key", "model_parameter"]
PINNED = {"type", "required", "additionalProperties"}


def _assert_matches_oracle(cfg):
    want = list(ORACLE.iter_errors(cfg))
    got = _schema_errors(CONFIG_SCHEMA, cfg)
    assert bool(got) == bool(want), (cfg, got, [e.message for e in want])
    assert {p for p, _ in got} == {tuple(e.absolute_path) for e in want}, cfg
    pinned = {(tuple(e.absolute_path), e.message) for e in want if e.validator in PINNED}
    assert pinned <= set(got), (cfg, got)
    return bool(got)


@pytest.mark.parametrize("kind", [*KINDS, "mixed"])
def test_checker_agrees_with_jsonschema_on_mutated_configs(kind):
    rejected = cases = 0
    for b, base in enumerate(BASES):
        for k in range(12):
            rng = random.Random(f"{kind}-{b}-{k}")
            cfg = copy.deepcopy(base)
            steps = [kind]
            if kind == "mixed":  # one to three mutations of any kinds, one after another
                steps = [rng.choice(KINDS) for _ in range(rng.randint(1, 3))]
            if not all([_mutate(cfg, step, rng) for step in steps]):
                continue
            rejected += _assert_matches_oracle(cfg)
            cases += 1
    assert cases >= 150
    assert rejected >= cases // 3  # the mutations reach the schema's checks


def test_unmutated_configs_agree_with_jsonschema():
    # the workload and golden configs pass, test_cli.py's invalid ones fail
    # only where the schema is broken (the rest fail later, in the CLI)
    outcomes = [_assert_matches_oracle(cfg) for cfg in BASES]
    assert 0 < sum(outcomes) < len(outcomes)


@pytest.mark.parametrize(
    "cfg, want",
    [
        ({"tau": "1e-6"}, [(("tau",), "'1e-6' is not of type 'number'")]),
        ({"tau": True}, [(("tau",), "True is not of type 'number'")]),
        ({"l_max": 2.0, "seed": 0}, []),
        ({"l_max": 1.5}, [(("l_max",), "1.5 is not of type 'integer'")]),
        # a number that breaks its type and its bound: one error for each
        (
            {"n_nodes": 2.5},
            [
                (("n_nodes",), "2.5 is less than the minimum of 4"),
                (("n_nodes",), "2.5 is not of type 'integer'"),
            ],
        ),
        ({"stability": {}}, [(("stability",), "'object' is a required property")]),
        (
            {"objects": [{"label": "a", "center": [0, 0, 0], "radius": 1}]},
            [(("objects", 0), "'eps' is a required property")],
        ),
        (
            {"bogus": 1, "Tau": 2, "tau": 0},
            [((), "Additional properties are not allowed ('Tau', 'bogus' were unexpected)")],
        ),
        (
            {"stability": {"object": "a", "hh": 0.1}},
            [(("stability",), "Additional properties are not allowed ('hh' was unexpected)")],
        ),
    ],
)
def test_pinned_messages(cfg, want):
    assert sorted(_schema_errors(CONFIG_SCHEMA, cfg)) == want
    assert sorted((tuple(e.absolute_path), e.message) for e in ORACLE.iter_errors(cfg)) == want


def _subschemas(schema):
    """``schema`` and every schema nested in it."""
    yield schema
    for key, value in schema.items():
        if key == "properties":
            children = value.values()
        elif key in ("items", "if", "then"):
            children = [value]
        elif key in ("prefixItems", "anyOf", "allOf"):
            children = value
        else:
            children = []
        for child in children:
            yield from _subschemas(child)


def test_checker_implements_every_keyword_of_the_schema():
    # the checker raises on a keyword it does not implement, whatever the
    # node, so running every subschema on any node finds one
    keywords = set()
    for schema in _subschemas(CONFIG_SCHEMA):
        keywords |= set(schema)
        for node in (None, {}, [], "x", 1.5):
            _schema_errors(schema, node)
    assert {"type", "properties", "additionalProperties", "anyOf", "if"} <= keywords


@pytest.mark.parametrize(
    "schema",
    [
        {"pattern": "^a"},
        {"oneOf": [{"type": "string"}]},
        {"additionalProperties": {"type": "string"}},
        {"type": "null"},
        {"properties": {"a": {"maxLength": 3}}},
    ],
    ids=["pattern", "oneOf", "additionalProperties_schema", "type_null", "nested"],
)
def test_keyword_beyond_the_checker_raises(schema):
    with pytest.raises((ValueError, KeyError)):
        _schema_errors(schema, {"a": "abcd"})


class _PythonLoader(yaml.SafeLoader):
    """The pure-Python parser with the config loader's resolvers."""


_PythonLoader.yaml_implicit_resolvers = _ConfigLoader.yaml_implicit_resolvers

EDGE_SCALARS = """\
plain_exponent: 1e-6
quoted_exponent: "1e-6"
dotted_exponent: 1.0e-6
signed_exponent: -2E+3
inf: .inf
minus_inf: -.inf
nan: .nan
minus_zero: -0
minus_zero_float: -0.0
octal: 017
sexagesimal: 1:30
yes: yes
null: ~
date: 2020-01-02
flow: {a: [1, 2.5, "x"], b: null}
"""


def test_libyaml_loader_gives_the_python_loaders_data():
    texts = [EDGE_SCALARS, *(yaml.safe_dump(cfg) for cfg in BASES)]
    for text in texts:
        # repr tells an int from a float, 0.0 from -0.0, and shows NaN
        assert repr(_load(text)) == repr(_load(text, _PythonLoader)), text
    edge = _load(EDGE_SCALARS)
    assert edge["plain_exponent"] == edge["dotted_exponent"] == 1e-6
    assert edge["quoted_exponent"] == "1e-6"
    assert repr(edge["minus_zero"]) == "0" and repr(edge["minus_zero_float"]) == "-0.0"
    assert issubclass(_ConfigLoader, yaml.CSafeLoader)
