import json

import numpy as np
import pytest

from hybridskin import logs
from hybridskin.logs import (ScTable, ToFTable, log_lines, read_log, sc_samples_from_records,
                             tof_frames_from_records, write_log)
from references import (ScSample, ToFFrame, encode_record, merge_records, read_records,
                        sc_record, sc_samples_by_record, tof_frames, tof_frames_by_record,
                        tof_record)


def sc_table(*rows):
    """An ScTable of (site_id, t, counts) rows."""
    ids, times, counts = zip(*rows) if rows else ((), (), ())
    return ScTable(np.array(ids, dtype=np.int64), np.array(times, dtype=np.float64),
                   np.array(counts, dtype=np.int64))


def sample_frames(*keys):
    """A ToFTable of (sensor_id, t) rows, each with zone 0 at 1.25 m, zone 63
    at 3.5 m and no target in the others."""
    ids, times = zip(*keys) if keys else ((), ())
    d = np.full((len(keys), 64), np.nan)
    d[:, 0], d[:, 63] = 1.25, 3.5
    return ToFTable(np.array(ids, dtype=np.int64), np.array(times, dtype=np.float64), d,
                    ~np.isnan(d))


NO_SC, NO_TOF = sc_table(), sample_frames()


def assert_same_tables(got, want):
    assert type(got) is type(want)
    for column, value in vars(want).items():
        assert getattr(got, column).dtype == value.dtype
        assert np.array_equal(getattr(got, column), value, equal_nan=value.dtype.kind == "f")


def test_no_target_encodes_as_null():
    [line] = log_lines(NO_SC, sample_frames((0, 0.0)))
    record = json.loads(line)
    assert record["d"][0] == 1.25 and record["d"][1] is None and record["d"][63] == 3.5
    assert record["valid"][0] is True and record["valid"][1] is False
    assert "NaN" not in line and line.endswith("}\n")


def test_merge_orders_by_time_with_sc_before_tof():
    lines = log_lines(sc_table((2, 0.5, 100), (0, 0.25, 99), (1, 0.5, 101)),
                      sample_frames((1, 0.5), (0, 0.1)))
    keys = [(r["t"], r["type"], r.get("site_id", r.get("sensor_id")))
            for r in map(json.loads, lines)]
    assert keys == [(0.1, "tof", 0), (0.25, "sc", 0), (0.5, "sc", 1),
                    (0.5, "sc", 2), (0.5, "tof", 1)]


def test_log_round_trip(tmp_path):
    sc, tof = sc_table((0, 0.0, 1600), (0, 0.024, 1601)), sample_frames((0, 1 / 12))
    path = tmp_path / "log.jsonl"
    write_log(path, log_lines(sc, tof))
    lines = read_log(path)
    assert [json.loads(line)["type"] for line in lines] == ["sc", "sc", "tof"]
    assert_same_tables(sc_samples_from_records(lines), sc)
    assert_same_tables(tof_frames_from_records(lines), tof)


def test_log_bytes_are_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (p1, p2):
        write_log(path, log_lines(sc_table((0, 0.1, 42)), sample_frames((0, 0.2))))
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_log(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_log(path, log_lines(NO_SC, NO_TOF))
    assert path.stat().st_size == 0 and read_log(path) == []


def test_log_lines_reject_what_json_cannot_hold():
    for t in (np.nan, np.inf):
        with pytest.raises(ValueError, match="log times must be finite"):
            log_lines(sc_table((0, t, 1)), NO_TOF)
        with pytest.raises(ValueError, match="log times must be finite"):
            log_lines(NO_SC, sample_frames((0, t)))
    frame = sample_frames((0, 0.5))
    frame.distances[0, 0] = np.nan
    with pytest.raises(ValueError, match="Out of range float values"):
        log_lines(NO_SC, frame)


def test_blank_lines_keep_record_k_on_line_k_plus_1(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"type":"sc","site_id":0,"t":0.0,"counts":5}\n\n  \n'
                    '{"type":"sc","site_id":0,"t":0.1,"counts":-1}\n')
    lines = read_log(path)
    assert lines[1:3] == ["\n", "  \n"] and len(lines) == 4
    assert sc_samples_from_records(lines[:3]).counts.tolist() == [5]
    with pytest.raises(ValueError, match="^log line 4: counts must be >= 0$"):
        sc_samples_from_records(lines)


# ---------------------------------------------------------------------------
# log_lines against the record-by-record writer
# ---------------------------------------------------------------------------

# Times that collide across streams and ids, signed zeros, and floats whose
# repr has an exponent: below 1e-4, from 1e16 on, and of one to three digits.
TIMES = [0.0, -0.0, 0.5, 1 / 12, 2.0, -7.25, 1e-05, 3e-07, 5e-324, 1e-99,
         np.nextafter(1e-99, 0.0), 1e16, 2.5e+99, np.nextafter(1e100, 0.0), 1e100]
IDS = [0, 1, 2, 39, -1, -2 ** 62, 2 ** 62, 10 ** 18 - 1, 10 ** 18]


def random_tables(rng, n_sc, n_tof, nx=8, ny=8):
    """Tables whose rows draw times and ids from small pools, so that many
    rows tie on (t, stream, id); a third of the frames see nothing and a
    third see every zone."""
    sc = ScTable(rng.choice(IDS, n_sc), rng.choice(TIMES, n_sc),
                 rng.choice([0, 1, 1600, 2 ** 62, 10 ** 18 - 1, 10 ** 18], n_sc))
    valid = rng.random((n_tof, nx * ny)) < rng.choice([0.0, 0.5, 1.0], (n_tof, 1))
    d = rng.uniform(0.0, 4.0, valid.shape) * rng.choice([1.0, 1e-5], valid.shape)
    return sc, ToFTable(rng.choice(IDS, n_tof), rng.choice(TIMES, n_tof),
                        np.where(valid, d, np.nan), valid)


def reference_lines(sc, tof, nx=8, ny=8):
    """merge_records and encode_record of the tables' records."""
    records = [sc_record(ScSample(i, t, n)) for i, t, n in
               zip(sc.site_ids.tolist(), sc.times.tolist(), sc.counts.tolist())]
    records += [tof_record(frame) for frame in tof_frames(tof, nx, ny)]
    return [encode_record(r) + "\n" for r in merge_records(records)]


@pytest.mark.parametrize("n_sc,n_tof", [(400, 300), (400, 0), (0, 300), (1, 1), (0, 0)],
                         ids=["both", "sc_only", "tof_only", "one_each", "empty"])
def test_log_lines_equal_the_record_writer(n_sc, n_tof):
    rng = np.random.default_rng(n_sc + 7 * n_tof)
    sc, tof = random_tables(rng, n_sc, n_tof)
    lines = log_lines(sc, tof)
    assert lines == reference_lines(sc, tof)
    if n_sc + n_tof > 2:  # ties on every key, so the merge had to be stable
        keys = [(r["t"], r["type"], r.get("site_id", r.get("sensor_id")))
                for r in map(json.loads, lines)]
        assert len(set(keys)) < len(keys)
    if n_tof > 2:
        assert not tof.valid.all(axis=1).all() and not tof.valid.any(axis=1).all()


def test_log_lines_of_another_zone_grid_equal_the_record_writer():
    sc, tof = random_tables(np.random.default_rng(4), 50, 50, nx=4, ny=3)
    assert log_lines(sc, tof) == reference_lines(sc, tof, nx=4, ny=3)


def test_log_lines_keep_the_table_order_of_rows_with_one_key():
    sc = sc_table(*[(3, 0.5, n) for n in (5, 1, 4, 2)])
    tof = sample_frames((3, 0.5), (3, 0.5))
    tof.distances[1, 0] = 2.0
    lines = [json.loads(line) for line in log_lines(sc, tof)]
    assert [r.get("counts") for r in lines] == [5, 1, 4, 2, None, None]
    assert [r["d"][0] for r in lines[4:]] == [1.25, 2.0]


def test_sc_lines_take_the_regex_path_wherever_it_can_hold_them():
    # _SC_LINE holds 18-digit integers and two-digit exponents; a line it
    # cannot hold goes through json.loads, which decodes it the same way.
    sc, _ = random_tables(np.random.default_rng(8), 3000, 0)
    sc.times[::3] = np.random.default_rng(9).uniform(0.0, 10.0, len(sc.times[::3]))
    matched = 0
    for line in log_lines(sc, NO_TOF):
        record = json.loads(line)
        t = record["t"]
        holds = (abs(record["site_id"]) < 10 ** 18 and record["counts"] < 10 ** 18
                 and (t == 0.0 or 1e-99 <= abs(t) < 1e100))
        assert bool(logs._SC_LINE.match(line)) == holds
        matched += holds
    assert 0 < matched < len(sc.times)


# ---------------------------------------------------------------------------
# The table decoders against the record-by-record references
# ---------------------------------------------------------------------------

def assert_tables_equal_references(path, nx=8, ny=8):
    """Both table decoders of a log equal the record-by-record decoders."""
    lines, records = read_log(path), read_records(path)
    assert len(lines) == len(records)
    sc, samples = sc_samples_from_records(lines), sc_samples_by_record(records)
    assert sc.site_ids.dtype == sc.counts.dtype == np.int64
    assert sc.site_ids.tolist() == [s.site_id for s in samples]
    assert sc.times.tolist() == [s.timestamp for s in samples]
    assert sc.counts.tolist() == [s.counts for s in samples]
    tof, frames = tof_frames_from_records(lines, nx, ny), tof_frames_by_record(records, nx, ny)
    assert tof.sensor_ids.tolist() == [f.sensor_id for f in frames]
    assert tof.times.tolist() == [f.timestamp for f in frames]
    assert tof.distances.shape == tof.valid.shape == (len(frames), nx * ny)
    assert np.array_equal(tof.distances, np.reshape([f.distances for f in frames],
                                                    (-1, nx * ny)), equal_nan=True)
    assert np.array_equal(tof.valid, np.reshape([f.valid for f in frames], (-1, nx * ny)))


def random_records(rng, n, p_sc, nx=8, ny=8):
    records = []
    for _ in range(n):
        t = float(rng.choice([rng.uniform(0, 5), rng.uniform(-1e6, 1e6),
                              10.0 ** rng.integers(-320, 300), 0.0, -0.0, 1e16]))
        if rng.random() < p_sc:
            records.append(sc_record(ScSample(int(rng.integers(-3, 2 ** 40)), t,
                                              int(rng.integers(0, 2 ** 62)))))
        else:
            valid = rng.random((nx, ny)) < 0.5
            d = np.where(valid, rng.uniform(0.0, 4.0, (nx, ny)), np.nan)
            records.append(tof_record(ToFFrame(int(rng.integers(-3, 40)), t, d, valid)))
    return records


@pytest.mark.parametrize("n,p_sc,blank", [
    (400, 0.7, 0.0), (400, 0.7, 0.1), (300, 1.0, 0.05), (200, 0.0, 0.05), (0, 0.5, 0.0)],
    ids=["both", "both_with_blanks", "sc_only", "tof_only", "empty"])
def test_table_decoders_equal_the_record_decoders(tmp_path, n, p_sc, blank):
    rng = np.random.default_rng(n + int(100 * p_sc))
    lines = [encode_record(r) for r in random_records(rng, n, p_sc)]
    for k in sorted(rng.choice(len(lines) + 1, int(blank * len(lines)), replace=True))[::-1]:
        lines.insert(int(k), rng.choice(["", "  ", "\t "]))
    path = tmp_path / "log.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    assert_tables_equal_references(path)


def test_tof_tables_take_the_decoders_zone_grid(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "log.jsonl"
    write_log(path, [encode_record(r) + "\n" for r in random_records(rng, 50, 0.5, nx=4, ny=3)])
    assert_tables_equal_references(path, nx=4, ny=3)
    with pytest.raises(ValueError, match="has 12 zones, expected 64"):
        tof_frames_from_records(read_log(path))


SC = '{"counts":1600,"site_id":3,"t":0.5,"type":"sc"}'


def decoded(decode, lines):
    """decode's table of the lines, or the message of the ValueError it raises."""
    try:
        return decode(lines)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("line", [
    SC.replace("1600", "١٦٠٠"),   # Arabic-Indic digits
    SC.replace("3", "٣"),
    SC.replace("1600", "01600"), SC.replace(":3", ":03"), SC.replace("0.5", "00.5"),
    SC.replace("0.5", "1."), SC.replace("0.5", ".5"), SC.replace("0.5", "+1.0"),
    SC.replace("1600", "+1600"),
    SC.replace("0.5", "1E5"), SC.replace("0.5", "1.5E-3"), SC.replace("1600", "1E3"),
    SC.replace("0.5", "NaN"), SC.replace("0.5", "-Infinity"), SC.replace("0.5", "1e999"),
    SC.replace("0.5", "1e-300"), SC.replace("0.5", "5"), SC.replace("0.5", "-0"),
    SC.replace("0.5", "1" * 17 + ".5"), SC.replace("0.5", "1" * 400 + ".5"),
    SC.replace("1600", "-1"), SC.replace("1600", "1600.0"), SC.replace("1600", "true"),
    SC.replace(":3", ":3.0"), SC.replace("1600", "9" * 19), SC.replace(":3", ":-" + "9" * 19),
    SC.replace(":", ": "), SC.replace(",", ", "), " " + SC, SC + " ",
    '{"type":"sc","t":0.5,"site_id":3,"counts":1600}',
    '{"counts":7,"counts":1600,"site_id":3,"t":0.5,"type":"sc"}',
    '{"counts":1600,"site_id":3,"t":0.5,"type":"sc","type":"tof"}',
    SC[:-1] + ',"note":"x"}', SC[:-1], SC + "}",
], ids=lambda line: repr(line))
def test_sc_lines_off_the_canonical_form_go_through_json(tmp_path, monkeypatch, line):
    loads = json.loads
    parsed = []
    monkeypatch.setattr(logs.json, "loads", lambda s, **kw: parsed.append(s) or loads(s, **kw))
    path = tmp_path / "log.jsonl"
    path.write_text(SC + "\n" + line + "\n")
    lines = read_log(path)
    try:
        record = loads(line)
    except json.JSONDecodeError:
        for decode in (sc_samples_from_records, tof_frames_from_records):
            with pytest.raises(json.JSONDecodeError, match="^log line 2: "):
                decode(lines)
        assert parsed == [line.strip()] * 2
        return
    # The line decodes as the canonical line of what json.loads makes of it;
    # NaN and the infinities have none, and no SC table takes them.
    try:
        canonical = [SC + "\n", encode_record(record) + "\n"]
    except ValueError:
        canonical = None
    for decode in (sc_samples_from_records, tof_frames_from_records):
        got = decoded(decode, lines)
        assert parsed.pop(0) == line.strip()
        if canonical is None:
            assert (got.startswith("log line 2: t must be finite")
                    if decode is sc_samples_from_records else len(got) == 0)
            continue
        want = decoded(decode, canonical)
        parsed.clear()
        if isinstance(want, str):
            assert got == want and got.startswith("log line 2: ")
            continue
        for column in ("site_ids", "times", "counts", "sensor_ids"):
            if hasattr(want, column):
                assert getattr(got, column).tolist() == getattr(want, column).tolist()
                assert (np.signbit(getattr(got, column)).tolist()
                        == np.signbit(getattr(want, column)).tolist())


@pytest.mark.parametrize("line,reason", [
    (SC.replace("0.5", "NaN"), "t must be finite, not nan"),
    (SC.replace("0.5", "Infinity"), "t must be finite, not inf"),
    (SC.replace("0.5", "1e999"), "t must be finite, not inf"),
    (SC.replace("0.5", "1" * 400 + ".5"), "t must be finite, not inf"),
    (SC.replace("0.5", "true"), "could not convert boolean to float: True"),
    (SC.replace("0.5", '"0.5"'), "could not convert string to float: '0.5'"),
    (SC.replace("1600", "1618.7"), "counts must be an integer, not 1618.7"),
    (SC.replace("1600", "true"), "counts must be an integer, not True"),
    (SC.replace(":3", ":6.5"), "site_id must be an integer, not 6.5"),
    (SC.replace(":3", ":" + "9" * 19), "site_id 9999999999999999999 does not fit in 64 bits"),
    (SC.replace("0.5", "1" + "0" * 400), "int too large to convert to float"),
])
def test_sc_values_of_the_wrong_type_name_their_line(tmp_path, line, reason):
    path = tmp_path / "log.jsonl"
    path.write_text(SC + "\n\n" + line + "\n")
    with pytest.raises(ValueError) as error:
        sc_samples_from_records(read_log(path))
    assert str(error.value) == f"log line 3: {reason}"
    assert len(tof_frames_from_records(read_log(path))) == 0


def tof_line(**fields):
    record = {"type": "tof", "sensor_id": 0, "t": 0.5,
              "d": [1.0] + [None] * 63, "valid": [True] + [False] * 63}
    record.update(fields)
    return json.dumps(record)


@pytest.mark.parametrize("line,reason", [
    (tof_line(sensor_id=3.0), "sensor_id must be an integer, not 3.0"),
    (tof_line(sensor_id=True), "sensor_id must be an integer, not True"),
    (tof_line(t=None), "could not convert null to float: None"),
    (tof_line(valid=[1] + [0] * 63), "valid[0] must be true or false, not 1"),
    (tof_line(valid=[True] * 63 + [None]), "valid[63] must be true or false, not None"),
    (tof_line(d=[1.0] * 5 + ["1.5"] + [None] * 58), "d[5] must be a number or null, not '1.5'"),
    (tof_line(d=[True] + [None] * 63), "d[0] must be a number or null, not True"),
    (tof_line(d=[float("nan")] + [None] * 63), "zone 0 is valid but its d is NaN"),
    (tof_line(d=[None] * 64), "zone 0 is valid but its d is null"),
    (tof_line(d=[None] * 64, valid=[False] * 9 + [True] + [False] * 54),
     "zone 9 is valid but its d is null"),
    (tof_line(d=[1e999] + [None] * 63), "zone 0 is valid but its d is Infinity"),
    (tof_line(d=[10 ** 400] + [None] * 63), "int too large to convert to float"),
    (tof_line(d=[1.0] + [None] * 62 + [10 ** 400]), "int too large to convert to float"),
    (tof_line(t=10 ** 400), "int too large to convert to float"),
    (tof_line(d=1.0), "d must be an array, not 1.0"),
    (tof_line(valid=[True] * 3), "tof record has 3 valid flags, expected 64"),
    (tof_line(d=[1.0]), "tof record has 1 zones, expected 64"),
])
def test_tof_values_of_the_wrong_type_name_their_line(tmp_path, line, reason):
    path = tmp_path / "log.jsonl"
    path.write_text(SC + "\n" + tof_line() + "\n\n" + line + "\n" + tof_line() + "\n")
    with pytest.raises(ValueError) as error:
        tof_frames_from_records(read_log(path))
    assert str(error.value) == f"log line 4: {reason}"
    assert sc_samples_from_records(read_log(path)).counts.tolist() == [1600]


def test_a_valid_zone_without_a_distance_comes_before_a_later_fault(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(tof_line() + "\n" + tof_line(d=[None] * 64) + "\n" + "[1]\n"
                    + tof_line(sensor_id=0.5) + "\n{\n")
    lines = read_log(path)
    with pytest.raises(ValueError, match="^log line 2: zone 0 is valid but its d is null$"):
        tof_frames_from_records(lines)
    for bad, reason in (([1], "not a JSON object"), (tof_line(sensor_id=0.5), "sensor_id"),
                        ("{", "Expecting")):
        lines[1] = (bad if isinstance(bad, str) else json.dumps(bad)) + "\n"
        with pytest.raises(ValueError, match=f"^log line 2: {reason}"):
            tof_frames_from_records(lines)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("final", [True, False], ids=["final_newline", "no_final_newline"])
def test_record_k_stays_on_line_k_plus_1(tmp_path, newline, final):
    # Raw U+2028 and U+0085 split lines for str.splitlines, not for a file.
    odd = '{"note":"a\u2028b\u0085c","type":"other"}'
    rows = [SC, odd, "", tof_line(), odd, SC.replace("1600", "-5")]
    path = tmp_path / "log.jsonl"
    path.write_bytes((newline.join(rows) + (newline if final else "")).encode("utf-8"))
    lines = read_log(path)
    assert len(lines) == len(rows) == len(read_records(path))
    with pytest.raises(ValueError, match="^log line 6: counts must be >= 0$"):
        sc_samples_from_records(lines)
    table = tof_frames_from_records(lines)
    assert table.sensor_ids.tolist() == [0]
    lines[-1] = SC
    assert sc_samples_from_records(lines).counts.tolist() == [1600, 1600]
