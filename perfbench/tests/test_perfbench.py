"""The benchmark's own tests: every workload's smoke run passes its checks,
and each check rejects a corrupted output.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import rig  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Builds a workload's smoke inputs once and runs one round of it."""
    cli = run.import_cli()
    done = {}

    def get(workload):
        if workload not in done:
            work = tmp_path_factory.mktemp(workload)
            workloads.build(workload, 7, work, smoke=True)
            spec, ref = checks.load(work)
            _, _, attempted, failed = run.run_round(cli, spec, work)
            done[workload] = (spec, ref, work / "out", attempted, failed)
        return done[workload]
    return get


def corrupted(smoke, tmp_path, workload):
    spec, ref, out, _, _ = smoke(workload)
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return spec, ref, copy


def rewrite_ply(path, edit):
    data = path.read_bytes()
    end = data.index(b"end_header\n") + len(b"end_header\n")
    rec = np.frombuffer(data, dtype=[("p", "<f4", 3), ("id", "<u4"), ("t", "<f4")],
                        offset=end).copy()
    path.write_bytes(data[:end] + edit(rec).tobytes())


def rewrite_lines(path, edit):
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_round_passes_every_check(smoke, workload):
    spec, _, _, attempted, failed = smoke(workload)
    assert attempted == len(spec["commands"])
    assert failed == 0


# --- skin_build / generate ----------------------------------------------

def test_generate_rejects_a_site_lifted_off_the_dermis(smoke, tmp_path):
    spec, ref, out = corrupted(smoke, tmp_path, "skin_build")
    path = out / "gen" / "manifest.json"
    m = json.loads(path.read_text())
    s = m["sites"][3]
    s["position"] = (np.array(s["position"]) + 0.001 * np.array(s["normal"])).tolist()
    path.write_text(json.dumps(m))
    assert any("off the dermis" in f for f in checks.check_generate(spec, out, ref))


def test_generate_rejects_crowded_sites(smoke, tmp_path):
    spec, ref, out = corrupted(smoke, tmp_path, "skin_build")
    path = out / "gen" / "manifest.json"
    m = json.loads(path.read_text())
    m["sites"][1]["position"] = m["sites"][0]["position"]
    path.write_text(json.dumps(m))
    assert any("apart" in f for f in checks.check_generate(spec, out, ref))


def test_generate_rejects_a_missing_ring(smoke, tmp_path):
    spec, ref, out = corrupted(smoke, tmp_path, "skin_build")
    path = out / "gen" / "skin_conductive.stl"
    data = bytearray(path.read_bytes())
    n = int.from_bytes(data[80:84], "little") - 8 * spec["gen"]["ring"]["segments"]
    data[80:84] = n.to_bytes(4, "little")
    path.write_bytes(bytes(data[:84 + 50 * n]))
    assert any("conductive STL" in f for f in checks.check_generate(spec, out, ref))


def test_generate_rejects_a_misplaced_dermis(smoke, tmp_path):
    spec, ref, out = corrupted(smoke, tmp_path, "skin_build")
    verts, groups = checks.read_obj(out / "gen" / "skin.obj")
    dermis = max(checks.components(groups["structural"]), key=len)
    idx = np.unique(groups["structural"][dermis]) + 1
    rewrite_lines(out / "gen" / "skin.obj", lambda lines: _scale_vertices(lines, idx, 1.01))
    assert any("structural shell" in f for f in checks.check_generate(spec, out, ref))


def test_generate_rejects_a_support_inside_a_ring_keep_out(smoke, tmp_path):
    spec, ref, out = corrupted(smoke, tmp_path, "skin_build")
    verts, groups = checks.read_obj(out / "gen" / "skin.obj")
    comps = sorted(checks.components(groups["flexible"]), key=len)
    support = np.unique(groups["flexible"][comps[0]])
    site = json.loads((out / "gen" / "manifest.json").read_text())["sites"][0]
    shift = np.array(site["position"]) - verts[support].mean(axis=0)

    moved = set(support.tolist())

    def move(lines):
        k = 0
        for i, line in enumerate(lines):
            if line.startswith("v "):
                if k in moved:
                    v = np.array(line.split()[1:], dtype=float) + shift
                    lines[i] = "v " + " ".join(repr(float(x)) for x in v)
                k += 1
        return lines
    rewrite_lines(out / "gen" / "skin.obj", move)
    assert any("keep-out" in f for f in checks.check_generate(spec, out, ref))


def _scale_vertices(lines, one_based, factor):
    wanted, k = set(one_based.tolist()), 0
    for i, line in enumerate(lines):
        if line.startswith("v "):
            k += 1
            if k in wanted:
                v = np.array(line.split()[1:], dtype=float) * factor
                lines[i] = "v " + " ".join(repr(float(x)) for x in v)
    return lines


# --- arm_sweep ----------------------------------------------------------

def test_simulate_rejects_a_dropped_frame(smoke, tmp_path):
    spec, ref, out = corrupted(smoke, tmp_path, "arm_sweep")
    log = out / "sim" / "samples.jsonl"

    def drop_first_tof(lines):
        i = next(i for i, ln in enumerate(lines) if '"type":"tof"' in ln)
        return lines[:i] + lines[i + 1:]
    rewrite_lines(log, drop_first_tof)
    assert any("ToF frames" in f for f in checks.check_simulate(spec, out, ref))


def test_simulate_rejects_an_sc_gap_outside_the_band(smoke, tmp_path):
    spec, ref, out = corrupted(smoke, tmp_path, "arm_sweep")
    log = out / "sim" / "samples.jsonl"

    def drop_one_sc(lines):
        i = [i for i, ln in enumerate(lines) if '"site_id":0,' in ln][5]
        return lines[:i] + lines[i + 1:]
    rewrite_lines(log, drop_one_sc)
    assert any("40-44 Hz" in f for f in checks.check_simulate(spec, out, ref))


def test_reconstruct_rejects_a_shifted_point_cloud(smoke, tmp_path):
    spec, ref, out = corrupted(smoke, tmp_path, "arm_sweep")

    def shift(rec):
        rec["p"][:, 0] += 0.1
        return rec
    rewrite_ply(out / "rec" / "cloud.ply", shift)
    assert any("from the scene" in f for f in checks.check_reconstruct_sweep(spec, out, ref))


def test_reconstruct_rejects_a_missing_point(smoke, tmp_path):
    spec, ref, out = corrupted(smoke, tmp_path, "arm_sweep")
    path = out / "rec" / "cloud.ply"
    n = len(checks.read_ply(path)[0])
    path.write_bytes(path.read_bytes().replace(f"element vertex {n}\n".encode(),
                                               f"element vertex {n - 1}\n".encode()))
    assert any("valid zones" in f for f in checks.check_reconstruct_sweep(spec, out, ref))


def test_reconstruct_sees_the_moving_hand(smoke):
    """Points on the hand are only explained by the hand at their own time."""
    spec, _, out, _, _ = smoke("arm_sweep")
    pts, _, ts = checks.read_ply(out / "rec" / "cloud.ply")
    on_hand = checks.hand_distance(pts, ts, spec["hand"]) < 0.06
    assert on_hand.any()
    frozen = checks.hand_distance(pts, np.zeros_like(ts), spec["hand"])
    assert np.any(frozen[on_hand] > 0.06)


@pytest.mark.parametrize("prefix,old,new,message", [
    (f"site {rig.CONTROL_SITE}: snr=", "contact=false", "contact=true", "control"),
    (f"site {rig.PRESSED_SITE}: snr=", "contact=true", "contact=false", "pressed"),
    (f"site {rig.PRESSED_SITE}: squeeze", "squeeze>rest=true", "squeeze>rest=false", "pressure"),
])
def test_snr_rejects_a_wrong_verdict(smoke, tmp_path, prefix, old, new, message):
    spec, ref, out = corrupted(smoke, tmp_path, "arm_sweep")
    rewrite_lines(out / "rep" / "summary.txt",
                  lambda lines: [ln.replace(old, new) if ln.startswith(prefix) else ln
                                 for ln in lines])
    assert any(message in f for f in checks.check_snr_sweep(spec, out, ref))


# --- log_replay ---------------------------------------------------------

def test_replay_reconstruct_rejects_a_slightly_shifted_point(smoke, tmp_path):
    spec, ref, out = corrupted(smoke, tmp_path, "log_replay")

    def nudge(rec):
        rec["p"][17, 2] += 1e-5
        return rec
    rewrite_ply(out / "rec" / "cloud.ply", nudge)
    assert any("analytic hit" in f for f in checks.check_reconstruct_replay(spec, out, ref))


def test_replay_reconstruct_rejects_swapped_sensor_ids(smoke, tmp_path):
    spec, ref, out = corrupted(smoke, tmp_path, "log_replay")

    def swap(rec):
        rec["id"] = rec["id"][::-1]
        return rec
    rewrite_ply(out / "rec" / "cloud.ply", swap)
    assert checks.check_reconstruct_replay(spec, out, ref)


@pytest.mark.parametrize("column,value", [(2, "+0.01"), (5, "*1.001"), (6, "flip")])
def test_replay_snr_rejects_an_altered_row(smoke, tmp_path, column, value):
    spec, ref, out = corrupted(smoke, tmp_path, "log_replay")

    def edit(lines):
        parts = lines[3].split(",")
        if value == "flip":
            parts[6] = "false" if parts[6] == "true" else "true"
        elif value[0] == "+":
            parts[column] = f"{float(parts[column]) + float(value[1:]):.6f}"
        else:
            parts[column] = f"{float(parts[column]) * float(value[1:]):.6f}"
        lines[3] = ",".join(parts)
        return lines
    rewrite_lines(out / "rep" / "snr.csv", edit)
    assert checks.check_snr_replay(spec, out, ref)


def test_replay_reference_matches_hybridskin_kinematics(tmp_path):
    """The benchmark's own FK agrees with the chain file it writes."""
    run.import_cli()
    from hybridskin.kinematics import forward_kinematics, load_chain
    (tmp_path / "chain.json").write_text(json.dumps(rig.chain_dict()))
    chain = load_chain(tmp_path / "chain.json")
    q = rig.HOME + 0.3
    links = forward_kinematics(chain, q)
    for m, t in zip(chain.sensor_mounts, rig.sensor_transforms(q)):
        pose = links[m.link_index].compose(m.local)
        assert np.allclose(pose.translation, t[:3, 3], atol=1e-12)
        assert np.allclose(pose.rotate([0.0, 0.0, 1.0]), t[:3, 2], atol=1e-12)


def test_checks_report_a_missing_output_as_one_failure(smoke, tmp_path, capsys):
    spec, ref, out = corrupted(smoke, tmp_path, "log_replay")
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    np.savez(tmp_path / "reference.npz", **ref)
    (out / "rec" / "cloud.ply").unlink()
    checks.main(["--work", str(tmp_path), "--commands", "reconstruct,snr"])
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["reconstruct"] and report["snr"] == []


# --- benchmark definition -----------------------------------------------

def test_traced_metrics_match_the_benchmark_definition():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == tracer.METRICS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("seed", range(5))
def test_inputs_keep_the_sensors_clear(seed):
    """No nodule starts inside the room's geometry, and the hand never
    comes within 0.3 m of the control nodule during the sweep."""
    params = rig.sweep_params(np.random.default_rng([seed, 1]))
    keys, _ = workloads.hand_schedule(workloads.SWEEP_DURATION)
    p, n, rot = workloads.hand_frame()
    hand = {"rotation": rot.tolist(),
            "keys": [[t, workloads.hand_center(p, n, g).tolist()] for t, g in keys]}
    for t in np.linspace(0.0, workloads.LOG_SECONDS, 61):
        sensors = np.array([m[:3, 3] for m in rig.sensor_transforms(
            rig.sweep_joints([t], params)[0])])
        for center, half in rig.room_boxes():
            assert np.all(np.any(np.abs(sensors - center) > half, axis=1))
        assert np.all(np.linalg.norm(sensors - rig.OBSTACLE_CENTER, axis=1) > rig.OBSTACLE_RADIUS)
        if t <= workloads.SWEEP_DURATION:
            control = sensors[[rig.CONTROL_SITE]]
            assert checks.hand_distance(control, np.array([t]), hand)[0] > 0.3


def test_traced_smoke_run_reports_every_layer():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "skin_build",
                           "--seed", "3", "--seconds", "0", "--trace", "1", "--smoke"],
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == tracer.METRICS
    assert result["metrics"]["geometry.self_intersection_faces"]["value"] > 0
    assert result["metrics"]["raycast.rays"]["value"] == 0
