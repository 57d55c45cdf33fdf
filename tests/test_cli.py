import importlib.util
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from hybridskin import cli, meshio
from hybridskin.cli import main
from hybridskin.kinematics import Pose, Scene, SceneObject
from hybridskin.mesh import make_box, make_plane_patch, make_uv_sphere
from hybridskin.raycast import Bvh, TriangleSet
from references import (capacitance_scalar, capsule_mesh, conductive_distance_scalar,
                        encode_record, expected_counts_scalar, read_records, save_obj_by_line,
                        save_stl_per_material_by_face, tof_frames, tof_frames_merged)


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


def test_generate_on_an_inside_out_mesh_exits_2(tmp_path, capsys):
    cfg = generate_config(tmp_path, mesh={"kind": "sphere", "radius": -1.0})
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    error = error_of(capsys)
    assert error["error"] == "InvalidMesh"
    assert [f["code"] for f in error["findings"]] == ["inside-out"]
    assert not (tmp_path / "out").exists()


def link_stl_with_a_nan(path):
    """The 0.12 m test box as a binary STL whose fourth facet has a NaN."""
    meshio.save_stl(make_box((0.12, 0.12, 0.12)), path)
    data = bytearray(path.read_bytes())
    data[84 + 3 * 50 + 16:84 + 3 * 50 + 20] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(data))
    return str(path)


def test_generate_on_a_mesh_with_a_nan_exits_2_naming_the_file(tmp_path, capsys):
    link = link_stl_with_a_nan(tmp_path / "link.stl")
    cfg = generate_config(tmp_path, mesh=link)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert error_of(capsys) == {
        "error": "ValueError",
        "message": f"mesh {link}: facet 4 has a non-finite coordinate"}
    assert not (tmp_path / "out").exists()


def test_simulate_with_a_nan_in_a_scene_mesh_exits_2_naming_the_file(tmp_path, capsys):
    cfg_path = wall_fixture(tmp_path)
    cfg = json.loads(Path(cfg_path).read_text())
    scene = json.loads(Path(cfg["simulation"]["scene"]).read_text())
    obstacle = link_stl_with_a_nan(tmp_path / "obstacle.stl")
    scene["objects"].append({"name": "obstacle", "mesh": obstacle})
    cfg["simulation"]["scene"] = write_json(tmp_path / "scene_nan.json", scene)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", write_json(tmp_path / "c.json", cfg),
                 "--out", str(out)]) == 2
    assert error_of(capsys) == {
        "error": "ValueError",
        "message": f"mesh {obstacle}: facet 4 has a non-finite coordinate"}
    assert not (out / "samples.jsonl").exists()


def test_simulate_with_a_scene_obj_face_past_its_vertices_exits_2_naming_the_file(
        tmp_path, capsys):
    cfg_path = wall_fixture(tmp_path)
    cfg = json.loads(Path(cfg_path).read_text())
    scene = json.loads(Path(cfg["simulation"]["scene"]).read_text())
    obstacle = tmp_path / "obstacle.obj"
    obstacle.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
    scene["objects"].append({"name": "obstacle", "mesh": str(obstacle)})
    cfg["simulation"]["scene"] = write_json(tmp_path / "scene_obj.json", scene)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", write_json(tmp_path / "c.json", cfg),
                 "--out", str(out)]) == 2
    assert error_of(capsys) == {
        "error": "ValueError",
        "message": f"OBJ {obstacle} line 4: face index 9 is past the last of its 3 vertices"}
    assert not (out / "samples.jsonl").exists()


def test_generate_link_scale_manifest_lists_40_sites(tmp_path):
    cfg = generate_config(
        tmp_path,
        mesh={"kind": "cylinder", "radius": 0.06, "height": 0.5, "segments": 48},
        site_count=40, site_min_dist=0.03)
    out = tmp_path / "out40"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["sites"]) == 40


def test_generate_writes_what_the_per_face_and_per_line_writers_write(tmp_path, monkeypatch):
    link = capsule_mesh(45.0, 220.0, 48, 8, 16)  # millimetres, as a CAD export
    meshio.save_stl(link, tmp_path / "link.stl")
    cfg = generate_config(tmp_path, mesh=str(tmp_path / "link.stl"), mesh_units="mm",
                          site_count=40, site_min_dist=0.03)
    merged = []
    save_obj = meshio.save_obj

    def keep_the_merged_mesh(mesh, path):
        merged.append(mesh)
        save_obj(mesh, path)

    monkeypatch.setattr(meshio, "save_obj", keep_the_merged_mesh)
    out, ref = tmp_path / "out", tmp_path / "ref"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    assert len(json.loads((out / "manifest.json").read_text())["sites"]) == 40
    ref.mkdir()
    save_stl_per_material_by_face(merged[0], ref / "skin.stl")
    save_obj_by_line(merged[0], ref / "skin.obj")
    names = sorted(p.name for p in ref.iterdir())
    assert names == ["skin.obj", "skin_conductive.stl", "skin_flexible.stl",
                     "skin_structural.stl"]
    for name in names:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


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
    records = read_records(out / "samples.jsonl")
    tof = [r for r in records if r["type"] == "tof"]
    sc = [r for r in records if r["type"] == "sc"]
    assert len(tof) == 12
    assert 40 <= len(sc) <= 44
    times = [r["t"] for r in records]
    assert times == sorted(times)
    # snr decodes every SC line simulate writes by its regex, not json.loads
    lines = (out / "samples.jsonl").read_text().splitlines(keepends=True)
    assert sum(map(bool, map(cli.logs._SC_LINE.match, lines))) == len(sc)


def test_simulate_zero_duration_writes_empty_log(tmp_path):
    cfg = wall_fixture(tmp_path, duration=0.0)
    out = tmp_path / "sim0"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert read_records(out / "samples.jsonl") == []


@pytest.mark.parametrize("duration,value", [("Infinity", "inf"), ("-Infinity", "-inf"),
                                            ("NaN", "nan"), ("1e999", "inf")])
def test_simulate_rejects_a_non_finite_duration(tmp_path, capsys, monkeypatch, duration,
                                                value):
    # Unchecked, an infinite duration never ends the SC schedule's loop.
    def unbounded(*args):
        raise AssertionError("schedule_streams ran on a non-finite duration")
    monkeypatch.setattr(cli.sc, "schedule_streams", unbounded)
    cfg = wall_fixture(tmp_path)
    assert main(["simulate", "--config", cfg, "--set", f"simulation.duration={duration}",
                 "--out", str(tmp_path / "sim")]) == 2
    error = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert error["error"] == "ValueError"
    assert error["message"] == f"config simulation.duration must be a finite number, not {value}"


@pytest.mark.parametrize("site_id,reason", [
    (2 ** 63, "chain mounts[1].site_id 9223372036854775808 does not fit in 64 bits"),
    (6.5, "chain mounts[1].site_id must be an integer, not 6.5"),
    ("3", "chain mounts[1].site_id must be an integer, not '3'"),
])
def test_simulate_rejects_a_chain_site_id_the_log_cannot_hold(tmp_path, capsys, site_id,
                                                             reason):
    cfg = wall_fixture(tmp_path, site_ids=(0, site_id))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 2
    error = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert error == {"error": "ValueError", "message": reason}


def error_of(capsys):
    return json.loads(capsys.readouterr().err.splitlines()[-1])


def never_schedule(monkeypatch):
    # An unchecked rate or duration can make the SC schedule's loop endless.
    def unbounded(*args):
        raise AssertionError("schedule_streams ran on an unchecked config")
    monkeypatch.setattr(cli.sc, "schedule_streams", unbounded)


@pytest.mark.parametrize("override,reason", [
    ("sensing.tof.foo=1", "config sensing.tof.foo is not a key of sensing.tof"),
    ("sensing.tof.nx=8.5", "config sensing.tof.nx must be an integer, not 8.5"),
    ("sensing.tof.ny=true", "config sensing.tof.ny must be an integer, not True"),
    ("sensing.tof.fov_x=false", "config sensing.tof.fov_x must be a finite number, not False"),
    ("sensing.tof.max_range=4m", "config sensing.tof.max_range must be a finite number, not '4m'"),
    ("sensing.measurement.count_noise=NaN",
     "config sensing.measurement.count_noise must be a finite number, not nan"),
    ("sensing.measurement.rate=Infinity",
     "config sensing.measurement.rate must be a finite number, not inf"),
    ("sensing.measurement.clock_hz=1" + "0" * 400,
     "config sensing.measurement.clock_hz must be a finite number, not 1" + "0" * 400),
    ("sensing.electrode.delta=0.003",
     "config sensing.electrode.delta is not a key of sensing.electrode"),
    ("sensing.electrode.t_cov=1e999",
     "config sensing.electrode.t_cov must be a finite number, not inf"),
    ("sensing.electrode=0.003", "config sensing.electrode must be an object, not 0.003"),
    ("sensing.tof_active=False", "config sensing.tof_active must be true or false, not 'False'"),
    ("sensing.tof_active=1", "config sensing.tof_active must be true or false, not 1"),
], ids=["unknown_tof_key", "float_nx", "boolean_ny", "boolean_fov", "string_range",
        "nan_noise", "infinite_rate", "huge_clock", "electrode_delta", "infinite_t_cov",
        "electrode_not_an_object", "string_tof_active", "integer_tof_active"])
def test_simulate_rejects_a_sensing_value_of_the_wrong_type(tmp_path, capsys, monkeypatch,
                                                           override, reason):
    never_schedule(monkeypatch)
    cfg = wall_fixture(tmp_path)
    assert main(["simulate", "--config", cfg, "--set", override,
                 "--out", str(tmp_path / "sim")]) == 2
    assert error_of(capsys) == {"error": "ValueError", "message": reason}


def test_simulate_rejects_a_scene_object_conductive_flag_that_is_not_a_boolean(tmp_path,
                                                                              capsys):
    cfg = wall_fixture(tmp_path, conductive="false")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 2
    assert error_of(capsys) == {
        "error": "ValueError",
        "message": "scene objects[0].conductive must be true or false, not 'false'"}


@pytest.mark.parametrize("override,reason", [
    ("generation.ring.segments=64.5",
     "config generation.ring.segments must be an integer, not 64.5"),
    ("generation.ring.foo=1", "config generation.ring.foo is not a key of generation.ring"),
    ("generation.ring.height=NaN",
     "config generation.ring.height must be a finite number, not nan"),
    ("generation.mount.height=true",
     "config generation.mount.height must be a finite number, not True"),
    ("generation.strict=False", "config generation.strict must be true or false, not 'False'"),
], ids=["float_segments", "unknown_ring_key", "nan_ring_height", "boolean_mount_height",
        "string_strict"])
def test_generate_rejects_a_generation_value_of_the_wrong_type(tmp_path, capsys, override,
                                                              reason):
    cfg = generate_config(tmp_path)
    assert main(["generate", "--config", cfg, "--set", override,
                 "--out", str(tmp_path / "gen")]) == 2
    assert error_of(capsys) == {"error": "ValueError", "message": reason}


@pytest.mark.parametrize("override,reason", [
    ("generation.site_count=2.5", "config generation.site_count must be an integer, not 2.5"),
    ("generation.site_count=true", "config generation.site_count must be an integer, not True"),
    ("generation.site_cout=5", "config generation.site_cout is not a key of generation"),
    ("generation.rng.segments=3", "config generation.rng is not a key of generation"),
    ("generation.support.segments=12.5",
     "config generation.support.segments must be an integer, not 12.5"),
    ("seed=1.5", "config seed must be an integer, not 1.5"),
    ("generation.mesh=1", "config generation.mesh must be a path, a primitive object or null, "
                          "not 1"),
], ids=["float_site_count", "boolean_site_count", "misspelt_key", "misspelt_section",
        "float_support_segments", "float_seed", "numeric_mesh"])
def test_generate_rejects_a_config_fault_naming_the_key(tmp_path, capsys, override, reason):
    cfg = generate_config(tmp_path)
    assert main(["generate", "--config", cfg, "--set", override,
                 "--out", str(tmp_path / "gen")]) == 2
    assert error_of(capsys) == {"error": "ValueError", "message": reason}
    assert not (tmp_path / "gen").exists()


def test_generate_rejects_an_unknown_primitive_argument(tmp_path, capsys):
    cfg = generate_config(tmp_path, mesh={"kind": "box", "sise": [0.1, 0.1, 0.1]})
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "gen")]) == 2
    assert error_of(capsys) == {
        "error": "ValueError",
        "message": "primitive sise is not a key of the primitive"}


def test_simulate_rejects_an_unknown_primitive_argument_of_a_scene_object(tmp_path, capsys):
    cfg = wall_fixture(tmp_path)
    scene = {"objects": [{"name": "ball",
                          "primitive": {"kind": "sphere", "radius": 0.1, "segments": 8}}]}
    write_json(tmp_path / "scene.json", scene)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 2
    assert error_of(capsys) == {
        "error": "ValueError",
        "message": "primitive segments is not a key of the primitive"}


MISTYPED_PRIMITIVES = pytest.mark.parametrize("primitive,reason", [
    ({"kind": "box", "size": 5}, "primitive size must be an array of 3 items, not 5"),
    ({"kind": "sphere", "radius": "x"}, "primitive radius must be a finite number, not 'x'"),
    ({"kind": "plane", "nx": 2.5}, "primitive nx must be an integer, not 2.5"),
    ({"kind": "plane", "ny": True}, "primitive ny must be an integer, not True"),
    ({"kind": "cylinder", "capped": 1}, "primitive capped must be true or false, not 1"),
    ({"kind": "box", "center": [0.0, 0.0]}, "primitive center must be an array of 3 items, "
                                            "not [0.0, 0.0]"),
], ids=["scalar_size", "string_radius", "float_nx", "boolean_ny", "integer_capped",
        "short_center"])


@MISTYPED_PRIMITIVES
def test_generate_rejects_a_primitive_argument_of_the_wrong_type(tmp_path, capsys, primitive,
                                                                reason):
    cfg = generate_config(tmp_path, mesh=primitive)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "gen")]) == 2
    assert error_of(capsys) == {"error": "ValueError", "message": reason}
    assert not (tmp_path / "gen").exists()


@MISTYPED_PRIMITIVES
def test_simulate_rejects_a_scene_primitive_argument_of_the_wrong_type(tmp_path, capsys,
                                                                       primitive, reason):
    cfg = wall_fixture(tmp_path)
    write_json(tmp_path / "scene.json", {"objects": [{"name": "obj", "primitive": primitive}]})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 2
    assert error_of(capsys) == {"error": "ValueError", "message": reason}
    assert not (tmp_path / "sim").exists()


def with_chain(cfg_path, edit):
    """The config at cfg_path, its chain file changed in place by edit(chain)."""
    chain_path = Path(json.loads(Path(cfg_path).read_text())["simulation"]["chain"])
    chain = json.loads(chain_path.read_text())
    edit(chain)
    chain_path.write_text(json.dumps(chain))
    return cfg_path


@pytest.mark.parametrize("link,reason", [
    (0.5, "chain mounts[0].link must be an integer, not 0.5"),
    (1.0, "chain mounts[0].link must be an integer, not 1.0"),
    ("1", "chain mounts[0].link must be an integer, not '1'"),
    (True, "chain mounts[0].link must be an integer, not True"),
], ids=["fraction", "integral_float", "string", "boolean"])
def test_simulate_rejects_a_chain_link_that_is_not_an_integer(tmp_path, capsys, monkeypatch,
                                                             link, reason):
    never_schedule(monkeypatch)
    cfg = with_chain(wall_fixture(tmp_path), lambda c: c["mounts"][0].update(link=link))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 2
    assert error_of(capsys) == {"error": "ValueError", "message": reason}


@pytest.mark.parametrize("key", ["joints", "axis"])
def test_simulate_rejects_a_chain_without_joints_or_an_axis(tmp_path, capsys, monkeypatch, key):
    never_schedule(monkeypatch)
    drop = {"joints": lambda c: c.pop("joints"), "axis": lambda c: c["joints"][0].pop("axis")}
    cfg = with_chain(wall_fixture(tmp_path), drop[key])
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 2
    # A chain without joints is a base-only chain, so its link-1 mount is out of range.
    reason = {"joints": "mount link index 1 out of range",
              "axis": "chain joints[0].axis is required"}[key]
    assert error_of(capsys) == {"error": "ValueError", "message": reason}


@pytest.mark.parametrize("command", ["simulate", "reconstruct"])
def test_a_chain_with_two_mounts_of_one_site_id_exits_2(tmp_path, capsys, monkeypatch,
                                                         command):
    # One site id on two mounts would merge two nodules' streams in the log.
    never_schedule(monkeypatch)
    cfg = with_chain(wall_fixture(tmp_path, site_ids=(0, 0)),
                     lambda c: c["mounts"][1]["local"].update(translation=[1.0, 0.0, 0.0]))
    log = tmp_path / "samples.jsonl"
    log.write_text("")
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    assert main(argv + (["--log", str(log)] if command == "reconstruct" else [])) == 2
    assert error_of(capsys) == {"error": "ValueError", "message": "two mounts have site id 0"}


# The wall fixture's files with one fault each.
WALL = {"name": "wall", "primitive": {"kind": "plane", "width": 20.0, "height": 20.0,
                                      "nx": 2, "ny": 2, "center": [0.0, 0.0, 2.0]}}


def scene_of(**entry):
    return {"objects": [{**WALL, **entry}]}


def chain_of(joint=(), **keys):
    return {"joints": [{"axis": [0, 0, 1], **dict(joint)}], "mounts": [{"link": 1, "site_id": 0}],
            **keys}


@pytest.mark.parametrize("name,data,reason", [
    ("scene", scene_of(keyframes=[{"translation": [0.0, 0.0, 0.0]}]),
     "scene objects[0].keyframes[0].t is required"),
    ("scene", scene_of(keyframes=[{"t": 0.0, "rotation": 5}]),
     "scene objects[0].keyframes[0].rotation must be an array of 4 items, not 5"),
    ("scene", scene_of(keyframes=5), "scene objects[0].keyframes must be an array, not 5"),
    ("scene", {"objects": [{"mesh": 5}]}, "scene objects[0].mesh must be a string, not 5"),
    ("scene", [1], "scene file <path> must be an object, not [1]"),
    ("scene", {"objects": [5]}, "scene objects[0] must be an object, not 5"),
    ("scene", scene_of(conductve=True), "scene objects[0].conductve is not a key of objects[0]"),
    ("scene", scene_of(keyframes=[{"t": "0"}]),
     "scene objects[0].keyframes[0].t must be a finite number, not '0'"),
    ("scene", scene_of(name=5), "scene objects[0].name must be a string, not 5"),
    ("scene", {"objects": [{"mesh": "wall.stl", "units": 5}]},
     "scene objects[0].units must be a string, not 5"),
    ("chain", chain_of({"type": 5}), "chain joints[0].type must be a string, not 5"),
    ("chain", chain_of({"axis": 5}), "chain joints[0].axis must be an array of 3 items, not 5"),
    ("chain", chain_of({"origin": 5}), "chain joints[0].origin must be an object, not 5"),
    ("chain", chain_of({"origin": {"rotation": 5}}),
     "chain joints[0].origin.rotation must be an array of 4 items, not 5"),
    ("chain", chain_of(links=5), "chain links must be an array, not 5"),
    ("chain", chain_of(mounts=5), "chain mounts must be an array, not 5"),
    ("chain", chain_of({"axes": [0, 0, 1]}), "chain joints[0].axes is not a key of joints[0]"),
    ("manifest", {}, "manifest ring.inner_radius is required"),
    ("manifest", {"sites": 5}, "manifest sites must be an array, not 5"),
    ("manifest", [], "manifest file <path> must be an object, not []"),
], ids=["keyframe_without_t", "scalar_rotation", "scalar_keyframes", "numeric_mesh",
        "scene_array", "numeric_object", "misspelt_conductive", "string_t", "numeric_name",
        "numeric_units", "numeric_type", "scalar_axis", "scalar_origin",
        "scalar_origin_rotation", "scalar_links", "scalar_mounts", "misspelt_axis",
        "empty_manifest", "scalar_sites", "manifest_array"])
def test_simulate_rejects_a_malformed_input_file_naming_it_and_the_path(
        tmp_path, capsys, monkeypatch, name, data, reason):
    never_schedule(monkeypatch)
    cfg = wall_fixture(tmp_path)
    path = write_json(tmp_path / f"{name}.json", data)
    capsys.readouterr()
    assert main(["simulate", "--config", cfg, "--set", f"simulation.{name}={path}",
                 "--out", str(tmp_path / "sim")]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "ValueError", "message": reason.replace("<path>", path)}
    assert not (tmp_path / "sim").exists()


def test_simulate_rejects_a_scene_object_with_both_a_mesh_and_a_primitive(tmp_path, capsys,
                                                                          monkeypatch):
    # Either would make a mesh; taking one would silently drop the other.
    never_schedule(monkeypatch)
    cfg = wall_fixture(tmp_path)
    box = tmp_path / "box.stl"
    meshio.save_stl(make_box((0.1, 0.1, 0.1)), box)
    write_json(tmp_path / "scene.json", {"objects": [
        WALL, {**WALL, "mesh": str(box), "primitive": {"kind": "sphere", "radius": 5.0}}]})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 2
    assert error_of(capsys) == {
        "error": "ValueError",
        "message": "scene objects[1] gives both a mesh and a primitive"}
    assert not (tmp_path / "sim").exists()


def test_simulate_rejects_a_scene_object_with_neither_a_mesh_nor_a_primitive(tmp_path, capsys,
                                                                             monkeypatch):
    never_schedule(monkeypatch)
    cfg = wall_fixture(tmp_path)
    write_json(tmp_path / "scene.json", {"objects": [WALL, {"name": "ghost"}]})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 2
    assert error_of(capsys) == {
        "error": "ValueError",
        "message": "scene objects[1] needs a mesh or a primitive"}
    assert not (tmp_path / "sim").exists()


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
    # One Bvh per static object (the wall, a post) serves the run; each frame
    # time builds one over its posed movers only, and drops it before the next.
    from hybridskin import raycast
    cfg_path = wall_fixture(tmp_path, duration=1.0, site_ids=(0, 1, 2))
    cfg = json.loads(Path(cfg_path).read_text())
    scene = json.loads(Path(cfg["simulation"]["scene"]).read_text())
    scene["objects"].insert(0, {
        "name": "post", "primitive": {"kind": "cylinder", "radius": 0.05, "height": 1.0,
                                      "segments": 5, "center": [1.5, 0.0, 1.5]}})
    scene["objects"].append({
        "name": "hand", "primitive": {"kind": "box", "size": [0.2, 0.2, 0.2]},
        "keyframes": [{"t": 0.0, "translation": [0.0, 0.0, 1.0]},
                      {"t": 1.0, "translation": [0.5, 0.0, 1.0]}]})
    cfg["simulation"]["scene"] = write_json(tmp_path / "moving.json", scene)
    built = []
    build = raycast.Bvh.__init__

    def tracked_build(self, tris, *args, **kwargs):
        assert sum(ref() is not None for _, ref in built) <= 2  # only the static ones live
        build(self, tris, *args, **kwargs)
        built.append((tris.n_triangles, weakref.ref(self)))

    monkeypatch.setattr(raycast.Bvh, "__init__", tracked_build)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", write_json(tmp_path / "c.json", cfg),
                 "--out", str(out)]) == 0
    tof = [r for r in read_records(out / "samples.jsonl") if r["type"] == "tof"]
    assert len(tof) == 3 * 12
    assert any(d is not None and d < 1.5 for r in tof for d in r["d"])  # the hand is seen
    # 12 Hz over 1 s, shared by the three mounts: the post's 20 triangles and
    # the wall's 8 once, the hand's 12 at each frame time.
    assert [n for n, _ in built] == [20, 8] + [12] * 12
    assert all(ref() is None for _, ref in built)


def test_simulate_prepares_each_static_objects_triangles_once(tmp_path, monkeypatch):
    # A static conductive plate, a static non-conductive post and a conductive
    # mover: the ToF cast and the SC pass read each static object through the
    # one tree the run builds for it.
    from hybridskin import raycast
    cfg_path = wall_fixture(tmp_path, duration=1.0, site_ids=(0, 1))
    scene = {"objects": [
        {"name": "plate", "conductive": True,
         "primitive": {"kind": "plane", "width": 1.0, "height": 1.0, "nx": 2, "ny": 2,
                       "center": [0.0, 0.0, 0.5]}},
        {"name": "post", "primitive": {"kind": "cylinder", "radius": 0.05, "height": 1.0,
                                       "segments": 5, "center": [0.3, 0.0, 1.0]}},
        {"name": "hand", "conductive": True, "primitive": {"kind": "box", "size": [0.1] * 3},
         "keyframes": [{"t": 0.0, "translation": [0.0, 0.0, 0.3]},
                       {"t": 1.0, "translation": [0.1, 0.0, 0.2]}]}]}
    scene_path = write_json(tmp_path / "three.json", scene)
    statics = [obj.mesh for obj in cli.load_scene(scene_path).objects[:2]]
    prepared = [0, 0]
    prepare = raycast.TriangleSet.__init__

    def counted(self, vertices, faces):
        for k, mesh in enumerate(statics):
            prepared[k] += (np.array_equal(vertices, mesh.vertices)
                            and np.array_equal(faces, mesh.faces))
        prepare(self, vertices, faces)

    monkeypatch.setattr(raycast.TriangleSet, "__init__", counted)
    cfg = json.loads(Path(cfg_path).read_text())
    cfg["simulation"]["scene"] = scene_path
    out = tmp_path / "sim"
    assert main(["simulate", "--config", write_json(tmp_path / "c.json", cfg),
                 "--out", str(out)]) == 0
    assert prepared == [1, 1]
    records = read_records(out / "samples.jsonl")
    assert any(r["type"] == "sc" for r in records) and any(r["type"] == "tof" for r in records)


def test_simulate_counts_follow_the_nearest_conductive_object(tmp_path):
    # A far conductive box listed first, a nearer conductive box, and a
    # still nearer non-conductive wall: the SC counts see only the nearer box.
    from hybridskin import sc
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
    [d] = point_mesh_distance([(0.0, 0.0, 0.0)], TriangleSet(near.vertices, near.faces))
    assert d == pytest.approx(0.4)
    electrode = sc.ElectrodeModel(**resolved["sensing"]["electrode"])
    delta = float(np.clip(electrode.t_cov - d, 0.0, electrode.delta_max))
    spec = sc.MeasurementSpec(**resolved["sensing"]["measurement"])
    expected = expected_counts_scalar(capacitance_scalar(electrode, d, delta), spec)
    far = expected_counts_scalar(capacitance_scalar(electrode, 0.9), spec)
    assert expected > far
    counts = [r["counts"] for r in read_records(out / "samples.jsonl") if r["type"] == "sc"]
    assert len(counts) >= 80
    assert counts == [expected] * len(counts)


def sc_scene(conductive=True):
    """Two moving objects (one turning, one sliding), a static plate and a
    non-conductive wall; all but the wall conductive when asked."""
    rng = np.random.default_rng(21)

    def turned():
        q = rng.normal(size=4)
        return Pose(q / np.linalg.norm(q), rng.uniform(-0.3, 0.3, 3))

    box = SceneObject(mesh=make_box((0.1, 0.2, 0.15)), conductive=conductive, name="box",
                      keyframes=[(t, turned()) for t in (0.0, 0.4, 0.4, 1.1, 2.0)])
    ball = SceneObject(mesh=make_uv_sphere(0.05, 6, 10), conductive=conductive, name="ball",
                       keyframes=[(0.0, Pose(translation=(0.0, 0.0, 0.5))),
                                  (2.0, Pose(translation=(0.2, 0.0, 0.05)))])
    plate = SceneObject(mesh=make_plane_patch(0.3, 0.3, 2, 2, center=(0.0, 0.0, -0.2)),
                        conductive=conductive, name="plate")
    wall = SceneObject(mesh=make_plane_patch(1.0, 1.0, 1, 1, center=(0.0, 0.0, 0.1)),
                       name="wall")
    return Scene(objects=[box, wall, ball, plate])


def static_trees(scene):
    """One Bvh per static object and None per mover, as simulate builds them."""
    return [None if obj.keyframes else Bvh(TriangleSet(obj.mesh.vertices, obj.mesh.faces))
            for obj in scene.objects]


def test_conductive_distances_match_the_per_sample_form():
    rng = np.random.default_rng(22)
    scene = sc_scene()
    times = np.concatenate([[0.0, 0.4, 2.0], rng.uniform(0.0, 2.0, size=5000)])
    points = rng.uniform(-0.4, 0.4, size=(len(times), 3))
    got = cli._conductive_distances(scene, static_trees(scene), times, points)
    expected = [conductive_distance_scalar(scene, t, p) for t, p in zip(times, points)]
    assert np.array_equal(got, expected)


def test_conductive_distances_in_many_blocks_equal_one_block(monkeypatch):
    rng = np.random.default_rng(23)
    scene = sc_scene()
    times = rng.uniform(0.0, 2.0, size=700)
    points = rng.uniform(-0.4, 0.4, size=(len(times), 3))
    trees = static_trees(scene)
    one_block = cli._conductive_distances(scene, trees, times, points)
    monkeypatch.setattr(cli, "_DISTANCE_ROWS", 1000)  # 1000 // 100 ball faces: 10 samples a block
    assert np.array_equal(cli._conductive_distances(scene, trees, times, points), one_block)
    monkeypatch.setattr(cli, "_DISTANCE_ROWS", 1)
    assert np.array_equal(cli._conductive_distances(scene, trees, times[:50], points[:50]),
                          one_block[:50])


def test_sc_pass_without_conductive_objects_or_samples_reads_c0():
    from hybridskin import sc
    electrode = sc.ElectrodeModel(t_cov=0.006, delta_max=0.004)
    times = np.linspace(0.0, 2.0, 40)
    scene = sc_scene(conductive=False)
    d = cli._conductive_distances(scene, static_trees(scene), times, np.zeros((40, 3)))
    assert np.array_equal(d, np.full(40, np.inf))
    assert np.array_equal(sc.contact_capacitance(electrode, d), np.full(40, electrode.c0))
    # a zero-length stream: no block, no draw and no warning
    for scene in (sc_scene(), Scene()):
        d = cli._conductive_distances(scene, static_trees(scene), np.zeros(0), np.zeros((0, 3)))
        assert d.shape == (0,)
        c = sc.contact_capacitance(electrode, d)
        assert sc.measure_counts(c, sc.MeasurementSpec(), True,
                                 np.random.default_rng(0)).shape == (0,)


def tof_sensors(rng, n_times, n_sensors):
    """A (times, sensors) stack of poses near z = -1, looking roughly along +z."""
    axis = rng.normal(size=(n_times * n_sensors, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    angle = rng.uniform(0.0, 0.5, n_times * n_sensors)
    rotation = np.column_stack([np.cos(angle / 2), np.sin(angle / 2)[:, None] * axis])
    translation = rng.uniform(-0.3, 0.3, (n_times * n_sensors, 3)) + [0.0, 0.0, -1.0]
    return Pose(rotation.reshape(n_times, n_sensors, 4),
                translation.reshape(n_times, n_sensors, 3))


def tof_scene(rng, statics=True, movers=True):
    """Static clutter behind z = 0.4 and movers sweeping across in front of it."""
    objects = []
    if statics:
        objects += [
            SceneObject(mesh=make_plane_patch(4.0, 4.0, 3, 3, center=(0.0, 0.0, 1.5)),
                        name="wall"),
            SceneObject(mesh=make_uv_sphere(0.3, 8, 12, center=tuple(rng.uniform(-0.3, 0.3, 2))
                                            + (0.8,)), name="ball"),
            SceneObject(mesh=make_box((0.3, 0.2, 0.3), center=(0.3, -0.2, 0.6)), name="box")]
    if movers:
        for k in range(2):
            keys = [(t, Pose(translation=(*rng.uniform(-0.6, 0.6, 2), rng.uniform(-0.3, 0.3))))
                    for t in (0.0, 0.7, 2.0)]
            objects.insert(k, SceneObject(mesh=make_box((0.3, 0.3, 0.1)), name=f"hand{k}",
                                          keyframes=keys))
    return Scene(objects=objects)


def assert_same_frames(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.sensor_id, a.timestamp) == (b.sensor_id, b.timestamp)
        assert np.array_equal(a.valid, b.valid)
        assert np.array_equal(a.distances, b.distances, equal_nan=True)


def two_level_against_merged(scene, times, poses, spec, sensor_ids=None):
    """The two-level cast and the merged-scene reference on fresh rng streams."""
    sensor_ids = sensor_ids or list(range(poses.rotation.shape[1]))
    rngs = lambda: [np.random.default_rng([5, k]) for k in range(len(sensor_ids))]
    got = tof_frames(cli._tof_frames(scene, static_trees(scene), sensor_ids, times, poses,
                                     spec, rngs()), spec.nx, spec.ny)
    assert_same_frames(got, tof_frames_merged(scene, sensor_ids, times, poses, spec, rngs()))
    return got


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_two_level_tof_cast_equals_the_merged_scene_per_frame_time(seed):
    # Movers pass in front of static objects: a frame keeps the nearer hit.
    from hybridskin.tof import ToFSpec
    rng = np.random.default_rng(seed)
    spec = ToFSpec(nx=4, ny=4, range_noise_sigma=0.02, max_range=2.0)
    times = np.linspace(0.0, 1.9, 7)
    scene, poses = tof_scene(rng), tof_sensors(rng, len(times), 5)
    frames = two_level_against_merged(scene, times, poses, spec)
    statics = Scene(objects=[obj for obj in scene.objects if not obj.keyframes])
    behind = tof_frames_merged(statics, list(range(5)), times, poses, spec,
                               [np.random.default_rng([5, k]) for k in range(5)])
    seen = np.array([f.valid for f in frames])
    d = np.where(seen, [f.distances for f in frames], np.inf)
    d_static = np.where([f.valid for f in behind], [f.distances for f in behind], np.inf)
    assert np.any(d < d_static) and np.any((d == d_static) & seen) and not seen.all()


def test_two_level_tof_cast_ties_a_static_and_a_moving_triangle():
    # A mover that stands still on a static plate: every hit is a tie.
    from hybridskin.tof import ToFSpec
    plate = make_plane_patch(3.0, 3.0, 2, 2, center=(0.0, 0.0, 0.5))
    still = [(0.0, Pose()), (2.0, Pose())]
    scene = Scene(objects=[SceneObject(mesh=plate, name="plate"),
                           SceneObject(mesh=plate, name="twin", keyframes=still)])
    spec = ToFSpec(nx=3, ny=3, range_noise_sigma=0.0)
    times = np.array([0.0, 1.0])
    frames = two_level_against_merged(scene, times, tof_sensors(np.random.default_rng(3), 2, 4),
                                      spec)
    assert all(f.valid.all() for f in frames)


@pytest.mark.parametrize("statics,movers", [(False, True), (True, False), (False, False)])
def test_two_level_tof_cast_with_one_level_or_none(statics, movers):
    from hybridskin.tof import ToFSpec
    rng = np.random.default_rng(4)
    spec = ToFSpec(nx=4, ny=2, range_noise_sigma=0.01)
    times = np.linspace(0.0, 1.5, 4)
    frames = two_level_against_merged(tof_scene(rng, statics, movers), times,
                                      tof_sensors(rng, len(times), 3), spec)
    assert len(frames) == 4 * 3
    assert any(f.valid.any() for f in frames) == (statics or movers)


def test_two_level_tof_cast_of_zero_duration_is_empty():
    from hybridskin.tof import ToFSpec, frame_times
    spec = ToFSpec()
    times = frame_times(0.0, spec)
    assert two_level_against_merged(tof_scene(np.random.default_rng(5)), times,
                                    tof_sensors(np.random.default_rng(5), 0, 3), spec) == []


def test_two_level_tof_cast_in_many_blocks_equals_one_block(monkeypatch):
    from hybridskin.tof import ToFSpec
    rng = np.random.default_rng(6)
    spec = ToFSpec(nx=4, ny=4, range_noise_sigma=0.03)
    times = np.linspace(0.0, 1.9, 9)
    scene, poses = tof_scene(rng), tof_sensors(rng, len(times), 3)
    one_block = two_level_against_merged(scene, times, poses, spec)
    zone_rays, blocks = cli.tof.zone_rays, []
    monkeypatch.setattr(cli.tof, "zone_rays",
                        lambda p, s: blocks.append(p.rotation.shape[0]) or zone_rays(p, s))
    for per_block, sizes in ((1, [1] * 9), (2.5, [2, 2, 2, 2, 1])):
        blocks.clear()
        monkeypatch.setattr(cli, "_TOF_RAYS", int(per_block * 3 * 16))
        assert_same_frames(two_level_against_merged(scene, times, poses, spec), one_block)
        assert blocks == sizes


def test_simulate_poses_and_measures_the_sc_stream_in_whole_array_passes(tmp_path, monkeypatch):
    from hybridskin import kinematics, raycast, sc
    cfg_path = wall_fixture(tmp_path, duration=1.0, site_ids=(0, 1, 2))
    hand = {"name": "hand", "conductive": True,
            "primitive": {"kind": "box", "size": [0.1, 0.1, 0.1]},
            "keyframes": [{"t": 0.0, "translation": [0.0, 0.0, 0.6]},
                          {"t": 1.0, "translation": [0.0, 0.0, 0.2]}]}
    scene = json.loads((tmp_path / "scene.json").read_text())
    scene["objects"][0]["conductive"] = True
    scene["objects"].append(hand)
    cfg = json.loads(Path(cfg_path).read_text())
    cfg["simulation"]["scene"] = write_json(tmp_path / "hand.json", scene)
    calls = {"scene_at": 0, "triangle_sets": 0, "distance": 0, "measure": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(kinematics.Scene, "at", counted("scene_at", kinematics.Scene.at))
    monkeypatch.setattr(raycast.TriangleSet, "__init__",
                        counted("triangle_sets", raycast.TriangleSet.__init__))
    monkeypatch.setattr(cli, "point_mesh_distance",
                        counted("distance", raycast.point_mesh_distance))
    monkeypatch.setattr(sc, "measure_counts", counted("measure", sc.measure_counts))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", write_json(tmp_path / "c.json", cfg),
                 "--out", str(out)]) == 0
    records = read_records(out / "samples.jsonl")
    assert sum(r["type"] == "sc" for r in records) >= 3 * 40
    frame_times, conductive = 12, 2
    assert calls["scene_at"] == frame_times
    # The static wall once for both streams, the movers at each ToF frame
    # time, and the conductive hand once in the SC pass
    assert calls["triangle_sets"] == 1 + frame_times + 1
    assert calls["distance"] == conductive  # one block
    assert calls["measure"] == 3  # one per nodule


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
    valid_zones = sum(sum(r["valid"]) for r in read_records(log)
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


def test_reconstruct_reports_a_sensor_id_the_ply_cannot_hold(tmp_path, capsys):
    cfg = wall_fixture(tmp_path, duration=0.5)
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim_out)]) == 0
    chain = json.loads((tmp_path / "chain.json").read_text())
    chain["mounts"][0]["site_id"] = 2 ** 32
    write_json(tmp_path / "chain.json", chain)
    records = read_records(sim_out / "samples.jsonl")
    for r in records:
        if r["type"] == "tof":
            r["sensor_id"] = 2 ** 32
    log = tmp_path / "big_id.jsonl"
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    assert main(["reconstruct", "--config", cfg, "--log", str(log),
                 "--out", str(tmp_path / "rec")]) == 2
    error = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert error["error"] == "ValueError"
    assert "sensor_id 4294967296" in error["message"]


def test_reconstruct_ascii_reports_a_sensor_id_the_ply_cannot_hold(tmp_path, capsys):
    cfg = wall_fixture(tmp_path, duration=0.5, site_ids=(-1,))
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim_out)]) == 0
    capsys.readouterr()
    assert main(["reconstruct", "--config", cfg, "--log", str(sim_out / "samples.jsonl"),
                 "--out", str(tmp_path / "rec"), "--format", "ascii"]) == 2
    error = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert error["error"] == "ValueError"
    assert "sensor_id -1" in error["message"]
    assert not (tmp_path / "rec" / "cloud.ply").exists()


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
    # one for the whole SC stream (one joint) and one for the 12 ToF frame times
    assert len(calls) == 2 and calls[0][1:] == (1,) and calls[1] == (12, 1, 1)
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
    records = read_records(sim_out / "samples.jsonl")
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
    write_log(log, [encode_record(r) + "\n" for r in records])
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


def with_bad_line(log, bad, at=5):
    """The log with a blank line 2 and the record `bad` as line `at`."""
    lines = Path(log).read_text().splitlines()
    lines = lines[:1] + [""] + lines[1:]
    lines.insert(at - 1, bad)
    path = Path(log).with_name("bad.jsonl")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("bad,reason", [
    ('{"type":"sc","t":0.5,"counts":1000}', "no 'site_id' field"),
    ("[1,2]", "not a JSON object"),
    ('{"type":"sc","site_id":0,"t":"x","counts":1000}', "could not convert"),
    ('{"type":"sc","site_id":0,"t":NaN,"counts":1000}', "t must be finite"),
    ('{"type":"sc","site_id":0,"t":Infinity,"counts":1000}', "t must be finite"),
    ('{"type":"sc","site_id":0,"t":0.5,"counts":1618.7}', "counts must be an integer"),
    ('{"type":"sc","site_id":0,"t":0.5,"counts":true}', "counts must be an integer"),
    ('{"type":"sc","site_id":6.5,"t":0.5,"counts":1000}', "site_id must be an integer"),
], ids=["no_site_id", "not_an_object", "string_t", "nan_t", "infinite_t", "float_counts",
        "boolean_counts", "float_site_id"])
def test_snr_names_the_line_of_a_malformed_record(tmp_path, capsys, bad, reason):
    log, labels = synth_snr_log(tmp_path)
    assert main(["snr", "--log", with_bad_line(log, bad), "--labels", labels,
                 "--out", str(tmp_path / "snr")]) == 2
    error = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert error["error"] == "ValueError"
    assert error["message"].startswith("log line 5: ") and reason in error["message"]


def tof_line(**fields):
    record = {"type": "tof", "sensor_id": 0, "t": 0.5, "d": [None] * 64, "valid": [False] * 64}
    record.update(fields)
    return json.dumps({k: v for k, v in record.items() if v is not None})


@pytest.mark.parametrize("bad,reason", [
    ("[1,2]", "not a JSON object"),
    (tof_line(sensor_id=None), "no 'sensor_id' field"),
    (tof_line(t="x"), "could not convert"),
    (tof_line(d=[1.0], valid=[True]), "1 zones, expected 64"),
    (tof_line(sensor_id=0.0), "sensor_id must be an integer"),
    (tof_line(valid=[1] + [0] * 63, d=[1.0] + [None] * 63), "valid[0] must be true or false"),
    (tof_line(valid=[True] + [False] * 63, d=[float("nan")] + [None] * 63),
     "zone 0 is valid but its d is NaN"),
], ids=["not_an_object", "no_sensor_id", "string_t", "wrong_zone_count", "float_sensor_id",
        "integer_valid", "valid_nan_d"])
def test_reconstruct_names_the_line_of_a_malformed_record(tmp_path, capsys, bad, reason):
    cfg = wall_fixture(tmp_path, duration=1.0)
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim_out)]) == 0
    capsys.readouterr()
    assert main(["reconstruct", "--config", cfg,
                 "--log", with_bad_line(sim_out / "samples.jsonl", bad),
                 "--out", str(tmp_path / "rec")]) == 2
    error = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert error["error"] == "ValueError"
    assert error["message"].startswith("log line 5: ") and reason in error["message"]


def test_a_log_line_that_is_not_json_exits_3_naming_it(tmp_path, capsys):
    cfg = wall_fixture(tmp_path, duration=1.0)
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim_out)]) == 0
    log = with_bad_line(sim_out / "samples.jsonl", '{"type":"sc",')
    labels = write_json(tmp_path / "labels.json", {"labels": []})
    for argv in (["reconstruct", "--config", cfg], ["snr", "--labels", labels]):
        capsys.readouterr()
        assert main(argv + ["--log", log, "--out", str(tmp_path / "o")]) == 3
        error = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert error["error"] == "JSONDecodeError"
        assert error["message"].startswith("log line 5: Expecting property name")


@pytest.mark.parametrize("intervals", [
    [[float("nan"), 1.0, "INACTIVE"]], [[0.0, float("nan"), "INACTIVE"]],
    [[0.0, 1.0, "INACTIVE"], [float("nan"), 2.0, "ACTIVE_REST"]],
    [[0.0, float("inf"), "INACTIVE"]],
], ids=["nan_start", "nan_end", "nan_second_interval", "infinite_end"])
def test_snr_rejects_a_non_finite_label_bound(tmp_path, capsys, intervals):
    log, _ = synth_snr_log(tmp_path)
    labels = write_json(tmp_path / "bad_labels.json",
                        {"labels": [{"site_id": 0, "intervals": intervals}]})
    capsys.readouterr()
    assert main(["snr", "--log", log, "--labels", labels, "--out", str(tmp_path / "o")]) == 2
    error = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert error["error"] == "ValueError" and "must be a finite number" in error["message"]


# Labels the synthetic log's two phases; int() and float() would accept
# each value below, the log's own checks do not.
PHASES = [[0.0, 300 * 0.024, "INACTIVE"], [300 * 0.024, 600 * 0.024, "ACTIVE_REST"]]


@pytest.mark.parametrize("entry,reason", [
    ({"site_id": 6.5}, "site_id must be an integer, not 6.5"),
    ({"site_id": True}, "site_id must be an integer, not True"),
    ({"site_id": "1"}, "site_id must be an integer, not '1'"),
    ({"intervals": [["0.5"] + PHASES[0][1:], PHASES[1]]},
     "intervals[0][0] must be a finite number, not '0.5'"),
    ({"intervals": [[0.0, True, "INACTIVE"], PHASES[1]]},
     "intervals[0][1] must be a finite number, not True"),
    ({"intervals": [[False] + PHASES[0][1:], PHASES[1]]},
     "intervals[0][0] must be a finite number, not False"),
], ids=["float_site_id", "boolean_site_id", "string_site_id", "string_bound",
        "boolean_end", "boolean_start"])
def test_snr_rejects_a_label_value_of_the_wrong_type(tmp_path, capsys, entry, reason):
    log, _ = synth_snr_log(tmp_path)
    labels = write_json(tmp_path / "typed.json", {"labels": [
        {"site_id": 0, "intervals": PHASES}, {"site_id": 1, "intervals": PHASES, **entry}]})
    capsys.readouterr()
    assert main(["snr", "--log", log, "--labels", labels, "--out", str(tmp_path / "o")]) == 2
    error = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert error == {"error": "ValueError", "message": f"labels labels[1].{reason}"}


@pytest.mark.parametrize("labels,reason", [
    ([], "labels file <path> must be an object, not []"),
    ({"labels": {"site_id": 0}}, "labels labels must be an array, not {'site_id': 0}"),
    ({"labels": [{"site_id": 0, "intervals": PHASES}, 5]},
     "labels labels[1] must be an object, not 5"),
    ({"labels": [{"site_id": 0, "intervals": 3}]},
     "labels labels[0].intervals must be an array, not 3"),
    ({"labels": [{"site_id": 0, "intervals": [PHASES[0], 5]}]},
     "labels labels[0].intervals[1] must be an array of 3 items, not 5"),
    ({"labels": [{"site_id": 0, "intervals": [PHASES[0] + [1]]}]},
     "labels labels[0].intervals[0] must be an array of 3 items, "
     "not [0.0, 7.2, 'INACTIVE', 1]"),
], ids=["top_level_array", "labels_object", "integer_entry", "integer_intervals",
        "integer_interval", "four_element_interval"])
def test_snr_rejects_a_labels_file_of_the_wrong_shape(tmp_path, capsys, labels, reason):
    log, _ = synth_snr_log(tmp_path)
    path = write_json(tmp_path / "shape.json", labels)
    capsys.readouterr()
    assert main(["snr", "--log", log, "--labels", path, "--out", str(tmp_path / "o")]) == 2
    assert error_of(capsys) == {"error": "ValueError", "message": reason.replace("<path>", path)}


def test_snr_rejects_a_site_labelled_twice(tmp_path, capsys):
    log, _ = synth_snr_log(tmp_path)
    entry = {"site_id": 0, "intervals": [[0.0, 1.0, "INACTIVE"]]}
    labels = write_json(tmp_path / "twice.json", {"labels": [entry, dict(entry, site_id=1),
                                                             entry]})
    capsys.readouterr()
    assert main(["snr", "--log", log, "--labels", labels, "--out", str(tmp_path / "o")]) == 2
    error = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert error == {"error": "ValueError", "message": "labels list site 0 twice"}


def load_tracer():
    """The benchmark's tracer module, imported from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_trace_sees_the_log_layer(tmp_path):
    cfg = wall_fixture(tmp_path, duration=1.0)
    sim_out = tmp_path / "sim"
    tracer = load_tracer()
    probes = tracer.Tracer()
    probes.install()
    try:
        assert main(["simulate", "--config", cfg, "--out", str(sim_out)]) == 0
    finally:
        probes.remove()
    log = sim_out / "samples.jsonl"
    n_lines = log.read_bytes().count(b"\n")
    assert n_lines > 12
    metrics = probes.metrics()
    assert metrics["cli.simulate_s"] > 0 and metrics["logs.write_s"] > 0
    assert metrics["logs.records_written"] == n_lines
    assert metrics["logs.bytes_written"] == log.stat().st_size
    labels = write_json(tmp_path / "labels.json", {"labels": [
        {"site_id": 0, "intervals": [[0.0, 0.5, "INACTIVE"], [0.5, 1.0, "ACTIVE_REST"]]}]})
    for argv in (["reconstruct", "--config", cfg], ["snr", "--labels", labels]):
        probes = tracer.Tracer()
        probes.install()
        try:
            assert main(argv + ["--log", str(log), "--out", str(tmp_path / argv[0])]) == 0
        finally:
            probes.remove()
        metrics = probes.metrics()
        assert metrics[f"cli.{argv[0]}_s"] > 0
        assert metrics["logs.read_s"] > 0 and metrics["logs.decode_s"] > 0
        assert metrics["logs.records_read"] == n_lines


def test_blank_log_lines_are_skipped(tmp_path):
    log, labels = synth_snr_log(tmp_path)
    blank = with_bad_line(log, "   ")
    for path, out in ((log, "a"), (blank, "b")):
        assert main(["snr", "--log", path, "--labels", labels,
                     "--out", str(tmp_path / out)]) == 0
    for name in ("snr.csv", "summary.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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


@pytest.mark.parametrize("override,reason", [
    ("sensing.electrode.delta=0.003",
     "config sensing.electrode.delta is not a key of sensing.electrode"),
    ("sensing.electrode.d0=true", "config sensing.electrode.d0 must be a finite number, not True"),
    ("sensing.measurement.count_noise=NaN",
     "config sensing.measurement.count_noise must be a finite number, not nan"),
], ids=["electrode_delta", "boolean_d0", "nan_noise"])
def test_calibrate_rejects_a_sensing_value_of_the_wrong_type(tmp_path, capsys, override,
                                                            reason):
    assert main(["calibrate", "--set", override, "--out", str(tmp_path / "cal")]) == 2
    assert error_of(capsys) == {"error": "ValueError", "message": reason}


@pytest.mark.parametrize("override,reason", [
    ("table.seeds=1.5", "config table.seeds must be an integer, not 1.5"),
    ("table.seeds=0", "config table.seeds must be at least 1, not 0"),
    ('snr_threshold="7"', "config snr_threshold must be a finite number, not '7'"),
    ('table.targets={"no_covering": [null, 50], "covering_rest": [37, 13], '
     '"covering_squeeze": [45, 22]}',
     "config table.targets must be an object of pairs of finite numbers, not "
     "{'no_covering': [None, 50], 'covering_rest': [37, 13], 'covering_squeeze': [45, 22]}"),
    ("table.calibration_column=bogus",
     "calibration column 'bogus' is not one of no_covering, covering_rest, covering_squeeze"),
], ids=["float_seeds", "zero_seeds", "string_threshold", "null_target", "unknown_column"])
def test_calibrate_rejects_a_table_fault_naming_it(tmp_path, capsys, override, reason):
    assert main(["calibrate", "--set", override, "--out", str(tmp_path / "cal")]) == 2
    assert error_of(capsys) == {"error": "ValueError", "message": reason}
    assert not (tmp_path / "cal").exists()


def test_calibrate_without_rings_names_the_empty_cell(tmp_path, capsys):
    assert main(["calibrate", "--set", "table.rings=0", "--out", str(tmp_path / "cal")]) == 2
    assert error_of(capsys) == {
        "error": "InsufficientSamplesError",
        "message": "cell ('no_covering', True) has 0 ring(s), need >= 3"}
    assert not (tmp_path / "cal").exists()


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


def test_python_m_hybridskin_keeps_the_exit_codes_at_the_process_boundary(tmp_path):
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = lambda *argv: subprocess.run([sys.executable, "-m", "hybridskin", *argv],
                                       capture_output=True, text=True, env=env, timeout=120)
    shown = run("--help")
    assert shown.returncode == 0 and "calibrate" in shown.stdout
    failed = run("calibrate", "--set", "table.seeds=0", "--out", str(tmp_path / "cal"))
    assert failed.returncode == 2
    [line] = failed.stderr.splitlines()
    assert json.loads(line) == {"error": "ValueError",
                                "message": "config table.seeds must be at least 1, not 0"}
    assert not (tmp_path / "cal").exists()
