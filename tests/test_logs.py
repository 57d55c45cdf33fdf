import json

import numpy as np
import pytest

from hybridskin.logs import (encode_record, merge_records, read_log,
                             sc_record, sc_samples_from_records, tof_record,
                             tof_frames_from_records, write_log)
from hybridskin.sc import ScSample
from hybridskin.tof import ToFFrame


def sample_frame(sensor_id=0, t=0.0):
    d = np.full((8, 8), np.nan)
    v = np.zeros((8, 8), dtype=bool)
    d[0, 0] = 1.25
    v[0, 0] = True
    d[7, 7] = 3.5
    v[7, 7] = True
    return ToFFrame(sensor_id=sensor_id, timestamp=t, distances=d, valid=v)


def test_no_target_encodes_as_null():
    rec = tof_record(sample_frame())
    assert rec["d"][0] == 1.25
    assert rec["d"][1] is None
    assert rec["valid"][0] is True
    line = encode_record(rec)
    assert "NaN" not in line
    assert json.loads(line)["d"][1] is None


def test_merge_orders_by_time_with_sc_before_tof():
    records = [
        tof_record(sample_frame(sensor_id=1, t=0.5)),
        sc_record(ScSample(2, 0.5, 100)),
        sc_record(ScSample(0, 0.25, 99)),
        tof_record(sample_frame(sensor_id=0, t=0.1)),
        sc_record(ScSample(1, 0.5, 101)),
    ]
    merged = merge_records(records)
    keys = [(r["t"], r["type"], r.get("site_id", r.get("sensor_id"))) for r in merged]
    assert keys == [(0.1, "tof", 0), (0.25, "sc", 0), (0.5, "sc", 1),
                    (0.5, "sc", 2), (0.5, "tof", 1)]


def test_log_round_trip(tmp_path):
    records = merge_records([
        sc_record(ScSample(0, 0.0, 1600)),
        tof_record(sample_frame(t=1 / 12)),
        sc_record(ScSample(0, 0.024, 1601)),
    ])
    path = tmp_path / "log.jsonl"
    write_log(path, records)
    loaded = read_log(path)
    assert loaded == records

    samples = sc_samples_from_records(loaded)
    assert [s.counts for s in samples] == [1600, 1601]
    frames = tof_frames_from_records(loaded)
    assert len(frames) == 1
    assert frames[0].valid.sum() == 2
    assert frames[0].distances[0, 0] == 1.25
    assert np.isnan(frames[0].distances[3, 3])


def test_log_bytes_are_deterministic(tmp_path):
    records = merge_records([sc_record(ScSample(0, 0.1, 42)),
                             tof_record(sample_frame(t=0.2))])
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_log(p1, records)
    write_log(p2, records)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_log(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_log(path, [])
    assert read_log(path) == []


def test_blank_lines_keep_record_k_on_line_k_plus_1(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"type":"sc","site_id":0,"t":0.0,"counts":5}\n\n  \n'
                    '{"type":"sc","site_id":0,"t":0.1,"counts":-1}\n')
    records = read_log(path)
    assert records[1:3] == [{}, {}] and len(records) == 4
    assert sc_samples_from_records(records[:3])[0].counts == 5
    with pytest.raises(ValueError, match="^log line 4: counts must be >= 0$"):
        sc_samples_from_records(records)
