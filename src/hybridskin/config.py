"""Run configuration: JSON file + dotted --set overrides.

The schema is a nested dict (see DEFAULT_CONFIG and README). Every run
writes its fully resolved configuration next to its outputs so results can
be reproduced from the artifacts alone.
"""

import copy
import json
import sys
from dataclasses import fields
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


def _deep_merge(base, override):
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key in out and isinstance(out[key], dict) and isinstance(value, dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


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
    config = DEFAULT_CONFIG
    if path is not None:
        user = json.loads(Path(path).read_text())
        config = _deep_merge(config, user)
    config = apply_overrides(config, overrides)
    if seed is not None:
        config["seed"] = int(seed)
    return config


def write_resolved_config(config, out_dir):
    path = Path(out_dir) / "resolved_config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# Typed sections
# ---------------------------------------------------------------------------

def build_spec(cls, config, path):
    """cls (a spec dataclass) from the config section at dotted path.

    Every key must name a field of cls; an int field takes a JSON integer
    and a float field a finite JSON number, never a boolean. A fault
    raises ValueError naming section.key.
    """
    section = config
    for part in path.split("."):
        section = section[part]
    if type(section) is not dict:
        raise ValueError(f"config {path} must be an object, not {section!r}")
    types = {f.name: f.type for f in fields(cls)}
    for key, value in section.items():
        if key not in types:
            raise ValueError(f"config {path}.{key} is not a key of {path}")
        if types[key] is int and type(value) is not int:
            raise ValueError(f"config {path}.{key} must be an integer, not {value!r}")
        if types[key] is float and not (type(value) in (int, float)
                                         and abs(value) <= sys.float_info.max):
            raise ValueError(f"config {path}.{key} must be a finite number, not {value!r}")
    return cls(**section)


def boolean(value, name):
    """value, which must be a JSON boolean; name says where it was read."""
    if type(value) is not bool:
        raise ValueError(f"{name} must be true or false, not {value!r}")
    return value
