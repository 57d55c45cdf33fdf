"""Line-delimited JSON sample logs for the two sensing streams.

One chronologically merged file holds both record types:

    {"type": "sc",  "site_id": i, "t": s, "counts": n}
    {"type": "tof", "sensor_id": i, "t": s, "d": [64 floats or null], "valid": [64 bools]}

ToF zone order is row-major (index = i * ny + j); NO_TARGET encodes as
null. Ties in the merge order resolve sc-before-tof, then by id.

The log is written from, and read back into, two column tables: an ScTable
of the SC records and a ToFTable of the ToF records. log_lines merges the
two tables into the file's lines, each key in sorted order and every float
as its repr, and write_log writes them.

read_log returns the file's lines, so record k is line k + 1, and the two
decoders turn them back into the tables. Each decoder reads the lines in
order and raises ValueError naming the first malformed line; a line that is
not JSON raises json.JSONDecodeError naming it. A value must have its
field's type: integer ids and counts, number times, number-or-null
distances and boolean valid flags. SC times and the distance of a valid zone must also
be finite; a ToF time is checked against the trajectory by reconstruct.
A canonical SC line, as log_lines writes it, is decoded (or skipped) by
one anchored regex instead of json.loads.
"""

import json
import math
import re
from dataclasses import dataclass

import numpy as np


@dataclass
class ScTable:
    """The SC records of a log, one row each, in log order."""
    site_ids: np.ndarray  # (n,) int64
    times: np.ndarray     # (n,) float64
    counts: np.ndarray    # (n,) int64


@dataclass
class ToFTable:
    """The ToF records of a log, one row each, in log order."""
    sensor_ids: np.ndarray  # (n,) int64
    times: np.ndarray       # (n,) float64
    distances: np.ndarray   # (n, nx * ny) float64, NaN where null
    valid: np.ndarray       # (n, nx * ny) bool

    def __len__(self):
        return len(self.times)


def log_lines(sc: ScTable, tof: ToFTable) -> list:
    """The log of both tables as its lines, each with its newline.

    One stable lexsort merges the rows by (t, stream, id), SC before ToF at a
    tie, so rows that share all three keep their table order. Every float is
    written as its repr, which is also json's text for it.
    """
    times = np.concatenate([sc.times, tof.times])
    if not np.isfinite(times).all():
        raise ValueError("log times must be finite")
    order = np.lexsort((np.concatenate([sc.site_ids, tof.sensor_ids]),
                        np.repeat([0, 1], [len(sc.times), len(tof.times)]), times))
    encode = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode
    lines = [f'{{"counts":{n},"site_id":{i},"t":{t!r},"type":"sc"}}\n'
             for i, t, n in zip(sc.site_ids.tolist(), sc.times.tolist(), sc.counts.tolist())]
    lines += [f'{{"d":{encode(d)},"sensor_id":{i},"t":{t!r},"type":"tof","valid":{encode(v)}}}\n'
              for d, i, t, v in zip(np.where(tof.valid, tof.distances, None).tolist(),
                                    tof.sensor_ids.tolist(), tof.times.tolist(),
                                    tof.valid.tolist())]
    return [lines[k] for k in order.tolist()]


def write_log(path, lines):
    """Writes log_lines' lines."""
    with open(path, "w") as f:
        f.writelines(lines)


def read_log(path) -> list:
    """The file's lines as file iteration splits them: record k is line k + 1."""
    with open(path) as f:
        return f.readlines()


# An SC line exactly as log_lines writes it: the keys sorted, no
# spaces, integers without leading zeros and of at most 18 digits (so they
# fit int64), and a time as repr writes a float, with a fraction or an
# exponent, at most 16 digits before the point and an exponent of at most
# two digits (so it is finite). Any other line goes through json.loads.
_INT = r"(?:0|[1-9][0-9]{0,17})"
_SC_LINE = re.compile(
    rf'\{{"counts":({_INT}),"site_id":(-?{_INT}),'
    r'"t":(-?(?:0|[1-9][0-9]{0,15})(?:\.[0-9]+(?:e[-+]?[0-9]{1,2})?|e[-+]?[0-9]{1,2})),'
    r'"type":"sc"\}$')

_JSON_TYPES = {str: "string", bool: "boolean", list: "array", dict: "object",
               type(None): "null"}
_DISTANCE_TYPES = {int, float, type(None)}


def _records(lines):
    """(line number, record) of every non-blank line. A canonical SC line
    gives its _SC_LINE match, any other line the object json.loads makes of it."""
    for number, line in enumerate(lines, 1):
        match = _SC_LINE.match(line)
        if match:
            yield number, match
            continue
        text = line.strip()
        if not text:
            continue
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise json.JSONDecodeError(f"log line {number}: {exc.msg}", exc.doc,
                                       exc.pos) from None
        if not isinstance(record, dict):
            raise ValueError(f"log line {number}: not a JSON object")
        yield number, record


def _field(record, key):
    if key not in record:
        raise ValueError(f"no {key!r} field")
    return record[key]


def _integer(record, key):
    value = _field(record, key)
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, not {value!r}")
    if not -2 ** 63 <= value < 2 ** 63:
        raise ValueError(f"{key} {value} does not fit in 64 bits")
    return value


def _number(value):
    if type(value) not in (int, float):
        raise ValueError(f"could not convert {_JSON_TYPES[type(value)]} to float: {value!r}")
    return float(value)


def _zones(record, key, n_zones):
    value = _field(record, key)
    if type(value) is not list:
        raise ValueError(f"{key} must be an array, not {value!r}")
    if len(value) != n_zones:
        noun = "zones" if key == "d" else "valid flags"
        raise ValueError(f"tof record has {len(value)} {noun}, expected {n_zones}")
    return value


def sc_samples_from_records(lines) -> ScTable:
    """The SC records of a log's lines (read_log) as an ScTable."""
    site_ids, times, counts = [], [], []
    for number, record in _records(lines):
        if type(record) is dict:
            if record.get("type") != "sc":
                continue
            try:
                site_id, t, n = (_integer(record, "site_id"), _number(_field(record, "t")),
                                 _integer(record, "counts"))
                if not math.isfinite(t):
                    raise ValueError(f"t must be finite, not {t}")
                if n < 0:
                    raise ValueError("counts must be >= 0")
            except (OverflowError, ValueError) as exc:
                raise ValueError(f"log line {number}: {exc}") from None
        else:
            n, site_id, t = int(record[1]), int(record[2]), float(record[3])
        site_ids.append(site_id)
        times.append(t)
        counts.append(n)
    return ScTable(np.array(site_ids, dtype=np.int64), np.array(times, dtype=np.float64),
                   np.array(counts, dtype=np.int64))


def tof_frames_from_records(lines, nx=8, ny=8) -> ToFTable:
    """The ToF records of a log's lines (read_log) as a ToFTable of nx * ny zones."""
    n_zones = nx * ny
    sensor_ids, times, distances, valid, numbers = [], [], [], [], []

    def table():
        """The rows so far; ValueError at the first valid zone without a finite d."""
        d = np.array(distances, dtype=np.float64).reshape(-1, n_zones)
        v = np.array(valid, dtype=bool).reshape(-1, n_zones)
        bad = np.argwhere(v & ~np.isfinite(d))
        if len(bad):
            row, zone = bad[0]
            raise ValueError(f"log line {numbers[row]}: zone {zone} is valid but its d "
                             f"is {json.dumps(distances[row][zone])}")
        return ToFTable(np.array(sensor_ids, dtype=np.int64),
                        np.array(times, dtype=np.float64), d, v)

    try:
        for number, record in _records(lines):
            if type(record) is not dict or record.get("type") != "tof":
                continue
            try:
                d = _zones(record, "d", n_zones)
                kinds = {*map(type, d)}
                if not kinds <= _DISTANCE_TYPES:
                    zone = next(k for k, x in enumerate(d) if type(x) not in _DISTANCE_TYPES)
                    raise ValueError(f"d[{zone}] must be a number or null, not {d[zone]!r}")
                if int in kinds:  # an integer past the float range raises OverflowError
                    np.array(d, dtype=np.float64)
                v = _zones(record, "valid", n_zones)
                if {*map(type, v)} != {bool}:
                    zone = next(k for k, x in enumerate(v) if type(x) is not bool)
                    raise ValueError(f"valid[{zone}] must be true or false, not {v[zone]!r}")
                row = _integer(record, "sensor_id"), _number(_field(record, "t"))
            except (OverflowError, ValueError) as exc:
                raise ValueError(f"log line {number}: {exc}") from None
            sensor_ids.append(row[0])
            times.append(row[1])
            distances.append(d)
            valid.append(v)
            numbers.append(number)
    except ValueError:
        table()  # a valid zone without a finite d on an earlier line comes first
        raise
    return table()
