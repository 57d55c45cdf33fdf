"""Run configuration: JSON file + dotted --set overrides over the defaults.

DEFAULT_CONFIG is the schema: its keys are the only keys, and each leaf's
default gives the leaf's type (see README). Every run writes its fully
resolved configuration next to its outputs so results can be reproduced
from the artifacts alone.
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
    DEFAULT_CONFIG, which gives every key they leave out (see _checked)."""
    config = json.loads(Path(path).read_text()) if path is not None else {}
    if type(config) is not dict:
        raise ValueError(f"config file {path} must be an object, not {config!r}")
    config = apply_overrides(config, overrides)
    if seed is not None:
        config["seed"] = seed
    return _checked(config, DEFAULT_CONFIG)


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


# What a leaf takes, by its default's type: its name in an error, and a test.
_KINDS = {int: ("an integer", lambda value: type(value) is int),
          float: ("a finite number", _finite),
          bool: ("true or false", lambda value: type(value) is bool),
          str: ("a string", lambda value: type(value) is str),
          dict: ("an object", lambda value: type(value) is dict)}
# The leaves whose default does not give their type.
_PATH = ("a path or null", lambda value: value is None or type(value) is str)
_UNIONS = {"generation.mesh": ("a path, a primitive object or null",
                               lambda value: value is None or type(value) in (str, dict)),
           "simulation.manifest": _PATH, "simulation.chain": _PATH,
           "simulation.trajectory": _PATH, "simulation.scene": _PATH,
           "table.targets": ("an object of pairs of finite numbers", _pairs)}


def _checked(value, default, path=""):
    """value typed by default, the schema. Every key must be one of
    default's, and every leaf takes what _KINDS gives for its default's type
    (a number comes back as a float), or what _UNIONS gives for its path; a
    union leaf is taken whole. Keys value lacks come from default. A fault
    raises ValueError naming the key's dotted path.
    """
    kind, takes = _UNIONS.get(path) or _KINDS[type(default)]
    if not takes(value):
        raise ValueError(f"config {path} must be {kind}, not {value!r}")
    if path in _UNIONS or type(default) is not dict:
        return float(value) if type(default) is float else value
    prefix = f"{path}." if path else ""
    for key in value:
        if key not in default:
            raise ValueError(f"config {prefix}{key} is not a key of {path or 'the config'}")
    return {key: _checked(value[key], sub, prefix + key) if key in value else copy.deepcopy(sub)
            for key, sub in default.items()}
