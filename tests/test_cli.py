import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from hybridskin.cli import main
from hybridskin.logs import read_log


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def wall_fixture(tmp_path, duration=1.0, site_ids=(0,), conductive=False):
    """Config + chain + trajectory + scene for a static wall 2 m ahead."""
    chain = {
        "joints": [{"axis": [0, 0, 1], "type": "REVOLUTE"}],
        "mounts": [{"link": 1, "site_id": sid,
                    "local": {"translation": [0.0, 0.0, 0.0]}}
                   for sid in site_ids],
    }
    chain_path = write_json(tmp_path / "chain.json", chain)
    traj_path = tmp_path / "traj.csv"
    traj_path.write_text("t,q1\n0.0,0.0\n{:.1f},0.0\n".format(max(duration, 1.0)))
    scene = {"objects": [{
        "name": "wall", "conductive": conductive,
        "primitive": {"kind": "plane", "width": 20.0, "height": 20.0,
                      "nx": 2, "ny": 2, "center": [0.0, 0.0, 2.0]},
    }]}
    scene_path = write_json(tmp_path / "scene.json", scene)
    config = {
        "seed": 7,
        "simulation": {"duration": duration, "chain": chain_path,
                       "trajectory": str(traj_path), "scene": scene_path},
        "sensing": {"tof": {"range_noise_sigma": 0.0}},
    }
    return write_json(tmp_path / "config.json", config)


def generate_config(tmp_path, mesh=None, **gen_overrides):
    generation = {
        "mesh": mesh or {"kind": "box", "size": [0.12, 0.12, 0.12]},
        "site_count": 3,
        "site_min_dist": 0.04,
    }
    generation.update(gen_overrides)
    return write_json(tmp_path / "gen_config.json",
                      {"seed": 3, "generation": generation})


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_cube_writes_materials_and_manifest(tmp_path, capsys):
    cfg = generate_config(tmp_path)
    out = tmp_path / "out"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    for suffix in ("structural", "conductive", "flexible"):
        assert (out / f"skin_{suffix}.stl").exists()
    assert (out / "skin.obj").exists()
    assert (out / "resolved_config.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["sites"]) == 3
    assert manifest["support_count"] > 0


def test_generate_same_seed_is_byte_identical(tmp_path):
    cfg = generate_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["generate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["generate", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("skin_structural.stl", "skin_conductive.stl",
                 "skin_flexible.stl", "skin.obj", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_generate_invalid_mesh_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.obj"
    bad.write_text("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n")  # zero-area face
    cfg = generate_config(tmp_path, mesh=str(bad))
    code = main(["generate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "degenerate-face" in err


def test_generate_link_scale_manifest_lists_40_sites(tmp_path):
    cfg = generate_config(
        tmp_path,
        mesh={"kind": "cylinder", "radius": 0.06, "height": 0.5, "segments": 48},
        site_count=40, site_min_dist=0.03)
    out = tmp_path / "out40"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["sites"]) == 40


def test_generate_saturation_exits_2(tmp_path, capsys):
    cfg = generate_config(tmp_path, mesh={"kind": "plane", "width": 0.01,
                                          "height": 0.01, "nx": 2, "ny": 2},
                          site_count=50, site_min_dist=0.02)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "SaturationError" in capsys.readouterr().err


def test_set_overrides_reach_the_run(tmp_path):
    cfg = generate_config(tmp_path)
    out = tmp_path / "out_set"
    assert main(["generate", "--config", cfg, "--out", str(out),
                 "--set", "generation.site_count=5",
                 "--set", "generation.site_min_dist=0.03"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["sites"]) == 5
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["generation"]["site_count"] == 5


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_one_nodule_stream_counts(tmp_path):
    cfg = wall_fixture(tmp_path, duration=1.0)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    records = read_log(out / "samples.jsonl")
    tof = [r for r in records if r["type"] == "tof"]
    sc = [r for r in records if r["type"] == "sc"]
    assert len(tof) == 12
    assert 40 <= len(sc) <= 44
    times = [r["t"] for r in records]
    assert times == sorted(times)


def test_simulate_zero_duration_writes_empty_log(tmp_path):
    cfg = wall_fixture(tmp_path, duration=0.0)
    out = tmp_path / "sim0"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert read_log(out / "samples.jsonl") == []


def test_simulate_same_seed_is_byte_identical(tmp_path):
    cfg = wall_fixture(tmp_path, duration=2.0)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "samples.jsonl").read_bytes() == (out2 / "samples.jsonl").read_bytes()
    out3 = tmp_path / "s3"
    assert main(["simulate", "--config", cfg, "--out", str(out3),
                 "--seed", "99"]) == 0
    assert (out1 / "samples.jsonl").read_bytes() != (out3 / "samples.jsonl").read_bytes()


def test_simulate_builds_one_bvh_per_frame_time_and_keeps_none(tmp_path, monkeypatch):
    from hybridskin import raycast
    cfg = wall_fixture(tmp_path, duration=1.0, site_ids=(0, 1, 2))
    built = []
    build = raycast.Bvh.__init__

    def tracked_build(self, *args, **kwargs):
        # The previous frame time's BVH is gone before the next is built.
        assert all(ref() is None for ref in built)
        build(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(raycast.Bvh, "__init__", tracked_build)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    tof = [r for r in read_log(out / "samples.jsonl") if r["type"] == "tof"]
    assert len(tof) == 3 * 12
    assert len(built) == 12  # 12 Hz over 1 s, shared by the three mounts
    assert all(ref() is None for ref in built)


def test_simulate_counts_follow_the_nearest_conductive_object(tmp_path):
    # A far conductive box listed first, a nearer conductive box, and a
    # still nearer non-conductive wall: the SC counts see only the nearer box.
    from hybridskin import config as cfgmod, sc
    from hybridskin.mesh import make_box
    from hybridskin.raycast import TriangleSet, point_mesh_distance
    cfg_path = wall_fixture(tmp_path, duration=1.0, site_ids=(0, 1))
    box = lambda z, conductive: {"name": f"box{z}", "conductive": conductive,
                                 "primitive": {"kind": "box", "size": [0.2, 0.2, 0.2],
                                               "center": [0.0, 0.0, z]}}
    scene = {"objects": [
        box(-1.0, True), box(0.5, True),
        {"name": "wall", "conductive": False,
         "primitive": {"kind": "plane", "width": 0.1, "height": 0.1,
                       "nx": 1, "ny": 1, "center": [0.0, 0.0, 0.2]}}]}
    cfg = json.loads(Path(cfg_path).read_text())
    cfg["simulation"]["scene"] = write_json(tmp_path / "boxes.json", scene)
    cfg["sensing"]["measurement"] = {"count_noise": 0.0, "tof_interference": 0.0}
    out = tmp_path / "sim"
    assert main(["simulate", "--config", write_json(tmp_path / "c.json", cfg),
                 "--out", str(out)]) == 0

    resolved = json.loads((out / "resolved_config.json").read_text())
    near = make_box((0.2, 0.2, 0.2), center=(0.0, 0.0, 0.5))
    d = point_mesh_distance((0.0, 0.0, 0.0), TriangleSet(near.vertices, near.faces))
    assert d == pytest.approx(0.4)
    electrode = cfgmod.build_electrode(resolved)
    delta = float(np.clip(electrode.t_cov - d, 0.0, electrode.delta_max))
    expected = sc.expected_counts(
        sc.capacitance(electrode.compressed(delta), d),
        cfgmod.build_measurement_spec(resolved))
    far = sc.expected_counts(sc.capacitance(electrode, 0.9),
                             cfgmod.build_measurement_spec(resolved))
    assert expected > far
    counts = [r["counts"] for r in read_log(out / "samples.jsonl") if r["type"] == "sc"]
    assert len(counts) >= 80
    assert counts == [expected] * len(counts)


def test_simulate_missing_input_exits_3(tmp_path, capsys):
    cfg = wall_fixture(tmp_path)
    data = json.loads((tmp_path / "config.json").read_text())
    data["simulation"]["chain"] = str(tmp_path / "missing_chain.json")
    cfg = write_json(tmp_path / "config2.json", data)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 3


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def test_reconstruct_point_count_matches_valid_zones(tmp_path):
    cfg = wall_fixture(tmp_path, duration=1.0)
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim_out)]) == 0
    log = sim_out / "samples.jsonl"
    rec_out = tmp_path / "rec"
    assert main(["reconstruct", "--config", cfg, "--log", str(log),
                 "--out", str(rec_out), "--format", "ascii"]) == 0
    valid_zones = sum(sum(r["valid"]) for r in read_log(log)
                      if r["type"] == "tof")
    from hybridskin.analysis import load_ply
    cloud = load_ply(rec_out / "cloud.ply")
    assert len(cloud) == valid_zones
    # wall at 2 m: every reconstructed point lies on the z=2 plane
    assert np.allclose(cloud.points[:, 2], 2.0, atol=1e-5)


def test_reconstruct_binary_format(tmp_path):
    cfg = wall_fixture(tmp_path, duration=0.5)
    sim_out = tmp_path / "sim"
    main(["simulate", "--config", cfg, "--out", str(sim_out)])
    rec_out = tmp_path / "recb"
    assert main(["reconstruct", "--config", cfg, "--log",
                 str(sim_out / "samples.jsonl"), "--out", str(rec_out)]) == 0
    head = (rec_out / "cloud.ply").read_bytes()[:64]
    assert b"binary_little_endian" in head


def test_simulate_and_reconstruct_pose_each_batch_in_one_forward_pass(tmp_path, monkeypatch):
    from hybridskin import kinematics
    calls = []
    forward_kinematics = kinematics.forward_kinematics

    def counted(chain, q):
        calls.append(np.shape(q))
        return forward_kinematics(chain, q)

    monkeypatch.setattr(kinematics, "forward_kinematics", counted)
    cfg = wall_fixture(tmp_path, duration=1.0, site_ids=(0, 1, 2))
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim_out)]) == 0
    # at most one per nodule's SC stream and one per ToF frame time (12 Hz over 1 s)
    assert 0 < len(calls) <= 3 + 12
    calls.clear()
    assert main(["reconstruct", "--config", cfg, "--log", str(sim_out / "samples.jsonl"),
                 "--out", str(tmp_path / "rec")]) == 0
    assert calls == [(3 * 12, 1)]


def test_reconstruct_names_a_non_finite_trajectory_sample(tmp_path, capsys):
    cfg = wall_fixture(tmp_path, duration=1.0)
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim_out)]) == 0
    (tmp_path / "traj.csv").write_text("t,q1\n0.0,0.0\n0.5,nan\n1.0,0.0\n")
    capsys.readouterr()
    assert main(["reconstruct", "--config", cfg, "--log", str(sim_out / "samples.jsonl"),
                 "--out", str(tmp_path / "rec")]) == 2
    error = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert error["error"] == "ValueError"
    assert "trajectory sample 1" in error["message"]


def test_reconstruct_names_a_nan_frame_timestamp(tmp_path, capsys):
    cfg = wall_fixture(tmp_path, duration=1.0)
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim_out)]) == 0
    records = read_log(sim_out / "samples.jsonl")
    next(r for r in records if r["type"] == "tof")["t"] = float("nan")
    log = tmp_path / "nan.jsonl"
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    assert main(["reconstruct", "--config", cfg, "--log", str(log),
                 "--out", str(tmp_path / "rec")]) == 2
    error = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert error["error"] == "DomainError"
    assert "t=nan" in error["message"]


# ---------------------------------------------------------------------------
# snr
# ---------------------------------------------------------------------------

def synth_snr_log(tmp_path, site_ids=(0, 1)):
    """SC-only log: inactive around 1000, palm contact around 1400."""
    rng = np.random.default_rng(0)
    records = []
    for sid in site_ids:
        t = 0.0
        for _ in range(300):
            counts = int(rng.normal(1000, 10))
            records.append({"type": "sc", "site_id": sid, "t": round(t, 6),
                            "counts": counts})
            t += 0.024
        for _ in range(300):
            counts = int(rng.normal(1400, 10))
            records.append({"type": "sc", "site_id": sid, "t": round(t, 6),
                            "counts": counts})
            t += 0.024
    log = tmp_path / "sc.jsonl"
    from hybridskin.logs import write_log
    write_log(log, records)
    labels = {"labels": [{
        "site_id": 0,
        "intervals": [[0.0, 300 * 0.024, "INACTIVE"],
                      [300 * 0.024, 600 * 0.024, "ACTIVE_REST"]],
    }]}
    labels_path = write_json(tmp_path / "labels.json", labels)
    return str(log), labels_path


def test_snr_command_reports_and_lists_omissions(tmp_path, capsys):
    log, labels = synth_snr_log(tmp_path)
    out = tmp_path / "snr"
    assert main(["snr", "--log", log, "--labels", labels,
                 "--out", str(out)]) == 0
    csv_text = (out / "snr.csv").read_text()
    assert csv_text.splitlines()[0] == "config,ring,mu_n,sigma_n,mu,snr,contact"
    assert "site0" in csv_text
    summary = (out / "summary.txt").read_text()
    assert "site 0" in summary
    assert "omitted" in summary.lower()
    assert "1" in summary  # site 1 had no labels
    stdout = capsys.readouterr().out
    assert "contact=true" in stdout


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def test_calibrate_writes_calibration_and_table(tmp_path):
    out = tmp_path / "cal"
    assert main(["calibrate", "--out", str(out)]) == 0
    payload = json.loads((out / "calibration.json").read_text())
    assert payload["sigma_base"] == pytest.approx(5.0)
    assert payload["sigma_tof"] == pytest.approx(np.sqrt(119.0), rel=1e-9)
    assert payload["orderings_ok"] is True
    assert payload["all_contact"] is True
    assert (out / "snr.csv").exists()
    assert "No covering" in (out / "summary.txt").read_text()


def test_calibrate_infeasible_table_exits_4(tmp_path, capsys):
    out = tmp_path / "cal_bad"
    code = main(["calibrate", "--out", str(out),
                 "--set", 'table.targets={"no_covering": [50, 120], '
                          '"covering_rest": [37, 13], "covering_squeeze": [45, 22]}'])
    assert code == 4
    assert "CalibrationError" in capsys.readouterr().err


def test_missing_config_file_exits_3(tmp_path):
    assert main(["calibrate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 3
