"""DEFAULT_CONFIG is the config's schema; load_config checks every run's
config against it once."""

import copy
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from hybridskin import layout, sc, tof
from hybridskin.config import DEFAULT_CONFIG, load_config

# The leaves whose default does not give their type.
UNIONS = {"generation.mesh", "simulation.manifest", "simulation.chain",
          "simulation.trajectory", "simulation.scene", "table.targets"}

SPECS = {"generation.ring": layout.RingSpec, "generation.mount": layout.MountSpec,
         "sensing.tof": tof.ToFSpec, "sensing.measurement": sc.MeasurementSpec,
         "sensing.electrode": sc.ElectrodeModel}

# Spec fields that are deliberately not config keys.
NOT_KEYS = {"sensing.measurement": {"threshold_ratio"}}


def leaves(node, path=""):
    for key, value in node.items():
        where = f"{path}.{key}" if path else key
        if type(value) is dict and where not in UNIONS:
            yield from leaves(value, where)
        else:
            yield where, value


def at(node, path):
    for part in path.split("."):
        node = node[part]
    return node


def key_tree(node):
    return {k: key_tree(v) if type(v) is dict else None for k, v in node.items()}


TYPED = [(path, value) for path, value in leaves(DEFAULT_CONFIG) if path not in UNIONS]
FLOATS = [path for path, value in TYPED if type(value) is float]

WRONG = {
    int: ("an integer", [1.5, True, "1", None, [1]]),
    float: ("a finite number", [True, "1.0", None, [1.0], math.nan, math.inf, -math.inf]),
    bool: ("true or false", [1, "true", None]),
    str: ("a string", [1, None, False]),
}


def test_the_defaults_load_unchanged():
    assert load_config() == DEFAULT_CONFIG


@pytest.mark.parametrize("path,default", TYPED, ids=[p for p, _ in TYPED])
def test_a_leaf_of_the_wrong_type_is_rejected_naming_it(path, default):
    kind, values = WRONG[type(default)]
    for value in values:
        with pytest.raises(ValueError) as err:
            load_config(overrides=[f"{path}={json.dumps(value)}"])
        assert str(err.value) == f"config {path} must be {kind}, not {value!r}"


@pytest.mark.parametrize("path", FLOATS)
def test_an_integer_in_a_number_leaf_comes_back_as_a_float(path):
    value = at(load_config(overrides=[f"{path}=2"]), path)
    assert type(value) is float and value == 2.0


def test_a_number_leaf_in_a_config_file_comes_back_as_a_float(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"simulation": {"duration": 1}}))
    assert type(load_config(cfg)["simulation"]["duration"]) is float


@pytest.mark.parametrize("override,reason", [
    ("foo=1", "config foo is not a key of the config"),
    ("generation.foo=1", "config generation.foo is not a key of generation"),
    ("generation.ring.foo=1", "config generation.ring.foo is not a key of generation.ring"),
    ("sensing.measurement.threshold_ratio=0.5",
     "config sensing.measurement.threshold_ratio is not a key of sensing.measurement"),
], ids=["top_level", "section", "subsection", "spec_field_not_a_key"])
def test_an_unknown_key_is_rejected(override, reason):
    with pytest.raises(ValueError) as err:
        load_config(overrides=[override])
    assert str(err.value) == reason


def test_an_unknown_key_in_a_config_file_is_rejected(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"sensing": {"tof": {"zones": 64}}}))
    with pytest.raises(ValueError, match="config sensing.tof.zones is not a key of sensing.tof"):
        load_config(cfg)


def test_a_config_file_that_is_not_an_object_is_rejected(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text("[1, 2]")
    with pytest.raises(ValueError, match=r"must be an object, not \[1, 2\]"):
        load_config(cfg)


def test_the_seed_option_is_checked():
    assert load_config(seed=5)["seed"] == 5
    with pytest.raises(ValueError, match="config seed must be an integer, not 1.5"):
        load_config(seed=1.5)


def test_a_loaded_config_shares_no_object_with_the_defaults():
    before = copy.deepcopy(DEFAULT_CONFIG)
    cfg = load_config()
    cfg["table"]["targets"]["no_covering"][0] = 0.0
    cfg["generation"]["ring"]["segments"] = 8
    assert DEFAULT_CONFIG == before


def test_a_section_set_whole_keeps_the_defaults_it_omits():
    cfg = load_config(overrides=['sensing.electrode={"k": 2e-13}'])
    assert cfg["sensing"]["electrode"] == dict(DEFAULT_CONFIG["sensing"]["electrode"], k=2e-13)


@pytest.mark.parametrize("path,value", [
    ("generation.mesh", "link.stl"), ("generation.mesh", {"kind": "box"}),
    ("generation.mesh", None), ("simulation.chain", "chain.json"), ("simulation.scene", None),
    ("table.targets", {"no_covering": [120, 50.5]}),
])
def test_a_union_leaf_takes_each_of_its_kinds(path, value):
    assert at(load_config(overrides=[f"{path}={json.dumps(value)}"]), path) == value


def test_a_union_leaf_in_a_config_file_is_taken_whole(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"table": {"targets": {"no_covering": [1, 2]}}}))
    assert load_config(cfg)["table"]["targets"] == {"no_covering": [1, 2]}


@pytest.mark.parametrize("override,reason", [
    ("generation.mesh=[]", "config generation.mesh must be a path, a primitive object or null, "
                           "not []"),
    ("simulation.manifest=1", "config simulation.manifest must be a path or null, not 1"),
    ("simulation.trajectory={}", "config simulation.trajectory must be a path or null, not {}"),
    ("table.targets=[]", "config table.targets must be an object of pairs of finite numbers, "
                         "not []"),
    ('table.targets={"no_covering": [120]}',
     "config table.targets must be an object of pairs of finite numbers, "
     "not {'no_covering': [120]}"),
    ('table.targets={"covering_rest": [37, true]}',
     "config table.targets must be an object of pairs of finite numbers, "
     "not {'covering_rest': [37, True]}"),
    ('table.targets={"covering_rest": [NaN, 13]}',
     "config table.targets must be an object of pairs of finite numbers, "
     "not {'covering_rest': [nan, 13]}"),
], ids=["list_mesh", "numeric_manifest", "object_trajectory", "list_targets",
        "short_pair", "boolean_in_pair", "nan_in_pair"])
def test_a_union_leaf_rejects_what_it_does_not_take(override, reason):
    with pytest.raises(ValueError) as err:
        load_config(overrides=[override])
    assert str(err.value) == reason


@pytest.mark.parametrize("path", sorted(SPECS))
def test_every_spec_section_is_its_dataclass_fields(path):
    # Spec(**section) is called with the checked section, so a key that is
    # not a field, or a count typed as a number, would fail there instead.
    types = {f.name: f.type for f in fields(SPECS[path])}
    defaults = at(DEFAULT_CONFIG, path)
    assert set(defaults) <= set(types)
    assert set(types) - set(defaults) == NOT_KEYS.get(path, set())
    assert {key: type(value) for key, value in defaults.items()} == {
        key: types[key] for key in defaults}
    SPECS[path](**defaults)


def test_the_readme_schema_has_the_keys_of_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    schema = readme.split("## Configuration schema", 1)[1]
    block = re.search(r"```jsonc\n(.*?)```", schema, re.S).group(1)
    documented = json.loads(re.sub(r"//[^\n]*", "", block))
    assert key_tree(documented) == key_tree(DEFAULT_CONFIG)
