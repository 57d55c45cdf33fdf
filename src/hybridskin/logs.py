"""Line-delimited JSON sample logs for the two sensing streams.

One chronologically merged file holds both record types:

    {"type": "sc",  "site_id": i, "t": s, "counts": n}
    {"type": "tof", "sensor_id": i, "t": s, "d": [64 floats or null], "valid": [64 bools]}

ToF zone order is row-major (index = i * ny + j); NO_TARGET encodes as
null. Ties in the merge order resolve sc-before-tof, then by id.

read_log keeps one record per line, so record k is line k + 1. The
decoders raise ValueError naming the first malformed line.
"""

import functools
import json
import math

import numpy as np

from .sc import ScSample
from .tof import ToFFrame


def sc_record(sample: ScSample) -> dict:
    return {"type": "sc", "site_id": int(sample.site_id),
            "t": float(sample.timestamp), "counts": int(sample.counts)}


def tof_record(frame: ToFFrame) -> dict:
    flat_d = frame.distances.reshape(-1)
    flat_v = frame.valid.reshape(-1)
    return {
        "type": "tof",
        "sensor_id": int(frame.sensor_id),
        "t": float(frame.timestamp),
        "d": [float(d) if v else None for d, v in zip(flat_d, flat_v)],
        "valid": [bool(v) for v in flat_v],
    }


def _merge_key(record):
    stream = 0 if record["type"] == "sc" else 1
    rid = record.get("site_id", record.get("sensor_id", 0))
    return (record["t"], stream, rid)


def merge_records(records) -> list:
    """Chronological order with the stable sc-before-tof tie break."""
    return sorted(records, key=_merge_key)


def encode_record(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def write_log(path, records):
    with open(path, "w") as f:
        for r in records:
            f.write(encode_record(r) + "\n")


def read_log(path) -> list:
    """One record per line; a blank line reads as an empty record, which
    neither stream takes."""
    records = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            records.append(json.loads(line) if line else {})
    return records


# What a decoder raises on a record that is not an object or lacks a field
# or a value of the field's type.
_MALFORMED = (AttributeError, KeyError, TypeError, ValueError)


def _names_bad_lines(decode):
    """decode, raising a ValueError that names the first line it rejects.

    Each record is tried alone only after the whole list has failed, so a
    good log pays nothing for the diagnosis.
    """
    @functools.wraps(decode)
    def decoded(records, *args, **kwargs):
        try:
            return decode(records, *args, **kwargs)
        except _MALFORMED as exc:
            error = exc
        for line, record in enumerate(records, 1):
            try:
                decode([record], *args, **kwargs)
            except _MALFORMED as exc:
                if not isinstance(record, dict):
                    reason = "not a JSON object"
                elif isinstance(exc, KeyError):
                    reason = f"no {exc.args[0]!r} field"
                else:
                    reason = str(exc)
                raise ValueError(f"log line {line}: {reason}") from None
        raise error
    return decoded


@_names_bad_lines
def sc_samples_from_records(records) -> list:
    return [ScSample(site_id=r["site_id"], timestamp=float(r["t"]), counts=r["counts"])
            for r in records if r.get("type") == "sc"]


@_names_bad_lines
def tof_frames_from_records(records, nx=8, ny=8) -> list:
    frames = []
    for r in records:
        if r.get("type") != "tof":
            continue
        d = np.array([math.nan if x is None else float(x) for x in r["d"]])
        v = np.array([bool(x) for x in r["valid"]])
        if d.size != nx * ny:
            raise ValueError(f"tof record has {d.size} zones, expected {nx * ny}")
        frames.append(ToFFrame(sensor_id=r["sensor_id"], timestamp=float(r["t"]),
                               distances=d.reshape(nx, ny),
                               valid=v.reshape(nx, ny)))
    return frames
