"""Run configuration: JSON file + dotted --set overrides over the defaults.

DEFAULT_CONFIG is the schema: its keys are the only keys, and each leaf's
default gives the leaf's type (see README). checked types every other
JSON input against a schema of the same form, through read_json. Every run
writes its fully resolved configuration next to its outputs so results can
be reproduced from the artifacts alone.
"""

import copy
import json
import sys
from pathlib import Path

from .sc import REFERENCE_SNR_TABLE

DEFAULT_CONFIG = {
    "seed": 0,
    "snr_threshold": 7.0,
    "generation": {
        "mesh": None,              # path (str) or primitive spec (dict)
        "mesh_units": "m",
        "dermis_offset": 0.004,    # m from the robot shell
        "covering_offset": 0.006,  # m from the dermis
        "site_count": 3,
        "site_min_dist": 0.03,     # m
        "coupling_gap": 0.001,     # m between mount edge and ring inner wall
        "strict": False,
        "ring": {"inner_radius": 0.008, "outer_radius": 0.014,
                 "height": 0.002, "segments": 64},
        "mount": {"footprint_radius": 0.007, "height": 0.004},
        "support": {"spacing": 0.02, "radius": 0.002, "segments": 12},
    },
    "sensing": {
        "tof": {"nx": 8, "ny": 8, "fov_x": 45.0, "fov_y": 45.0,
                "max_range": 4.0, "rate": 12.0, "range_noise_sigma": 0.01},
        "measurement": {"resistance": 1e6, "clock_hz": 160e6,
                        "rate": 42.0, "rate_jitter": 2.0,
                        "count_noise": 5.0, "tof_interference": 10.908712114635714},
        "electrode": {"c0": 1e-11, "k": 1e-13, "d0": 0.01,
                      "t_cov": 0.006, "delta_max": 0.004},
        "tof_active": True,        # ToF imagers powered during SC sampling
    },
    "simulation": {
        "duration": 1.0,           # s
        "manifest": None,          # assembly manifest JSON (optional site filter)
        "chain": None,             # chain JSON path
        "trajectory": None,        # CSV path (header t,q1..qn)
        "scene": None,             # scene JSON path
    },
    "table": {
        "targets": {k: list(v) for k, v in REFERENCE_SNR_TABLE.items()},
        "calibration_column": "no_covering",
        "signal_delta": 600.0,
        "samples_per_ring": 1000,
        "rings": 3,
        "seeds": 1,
    },
}


def _parse_value(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text  # bare strings (paths etc.) pass through


def apply_overrides(config, overrides):
    """Apply 'a.b.c=value' overrides in order; values parse as JSON."""
    out = copy.deepcopy(config)
    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        node = out
        parts = key.strip().split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"--set path {key!r} crosses a non-dict value")
        node[parts[-1]] = _parse_value(raw)
    return out


def load_config(path=None, overrides=None, seed=None):
    """The file at path, then overrides, then seed, checked against
    DEFAULT_CONFIG, which gives every key they leave out (see checked)."""
    config = read_json(path, {}, "config") if path is not None else {}
    config = apply_overrides(config, overrides)
    if seed is not None:
        config["seed"] = seed
    return checked(config, DEFAULT_CONFIG, "config")


def read_json(path, schema, what):
    """The object in the JSON file at path, checked against schema (see
    checked); what names the file in an error."""
    data = json.loads(Path(path).read_text())
    if type(data) is not dict:
        raise ValueError(f"{what} file {path} must be an object, not {data!r}")
    return checked(data, schema, what)


def write_resolved_config(config, out_dir):
    path = Path(out_dir) / "resolved_config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------

def _finite(value):
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _pairs(value):
    return type(value) is dict and all(
        type(pair) is list and len(pair) == 2 and all(map(_finite, pair))
        for pair in value.values())


# What a value takes, by its schema's type: its name in an error, and a test.
_KINDS = {int: ("an integer", lambda value: type(value) is int),
          float: ("a finite number", _finite),
          bool: ("true or false", lambda value: type(value) is bool),
          str: ("a string", lambda value: type(value) is str),
          dict: ("an object", lambda value: type(value) is dict),
          list: ("an array", lambda value: type(value) is list)}
# The config leaves whose default does not give their type.
_PATH = ("a path or null", lambda value: value is None or type(value) is str)
_UNIONS = {"generation.mesh": ("a path, a primitive object or null",
                               lambda value: value is None or type(value) in (str, dict)),
           "simulation.manifest": _PATH, "simulation.chain": _PATH,
           "simulation.trajectory": _PATH, "simulation.scene": _PATH,
           "table.targets": ("an object of pairs of finite numbers", _pairs)}


def checked(value, schema, what, path=""):
    """value typed by schema, an example of it (see README). Keys value
    leaves out read as an empty object or array, or as their default; a
    number comes back as a float and an array as a list, and a config leaf
    in _UNIONS is taken whole. A fault raises ValueError naming what (the
    file) and the key's path.
    """
    if type(schema) is tuple:
        kind, takes = (f"an array of {len(schema)} items",
                       lambda value: type(value) is list and len(value) == len(schema))
    else:
        kind, takes = _UNIONS.get(path) or _KINDS[
            schema if isinstance(schema, type) else type(schema)]
    if not takes(value):
        raise ValueError(f"{what} {path} must be {kind}, not {value!r}")
    if path in _UNIONS:
        return value
    if type(schema) is dict and schema:
        prefix = f"{path}." if path else ""
        for key in value:
            if key not in schema:
                raise ValueError(f"{what} {prefix}{key} is not a key of "
                                 f"{path or 'the ' + what}")
        return {key: checked(value[key], sub, what, prefix + key) if key in value
                else _left_out(sub, what, prefix + key) for key, sub in schema.items()}
    if type(schema) in (list, tuple):
        items = schema * len(value) if type(schema) is list else schema
        return [checked(item, sub, what, f"{path}[{k}]")
                for k, (item, sub) in enumerate(zip(value, items))]
    if float in (schema, type(schema)):
        return float(value)
    # An integer fits in 64 bits, as the log's ids do; the log decoder's words.
    if int in (schema, type(schema)) and not -2 ** 63 <= value < 2 ** 63:
        raise ValueError(f"{what} {path} {value} does not fit in 64 bits")
    return value


def _left_out(schema, what, path):
    if isinstance(schema, type) or type(schema) is tuple and any(
            isinstance(item, type) for item in schema):
        raise ValueError(f"{what} {path} is required")
    if path in _UNIONS or type(schema) not in (dict, list):
        return list(schema) if type(schema) is tuple else copy.deepcopy(schema)
    return checked(type(schema)(), schema, what, path)
