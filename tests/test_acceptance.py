"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line so a plain `pytest -v -s tests/test_acceptance.py` reads as a
checklist. Tolerances are fixed here and nowhere else.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from hybridskin.analysis import (build_cell_logs, evaluate_configurations,
                                 load_ply, reconstruct, snr)
from hybridskin.cli import main
from hybridskin.geometry import OffsetSpec, extrude_covering, offset_surface
from hybridskin.kinematics import (Joint, JointTrajectory, KinematicChain,
                                   Pose, SensorMount, mount_poses)
from hybridskin.layout import MountSpec, RingSpec, compose_skin, sample_sites
from hybridskin.logs import read_log
from hybridskin.mesh import (make_cylinder, make_plane_patch, make_uv_sphere,
                             sphere_tessellation_for_chord_error)
from hybridskin.raycast import Bvh, Ray, TriangleSet, raycast_brute_force
from hybridskin.sc import (MeasurementSpec, capacitance, expected_counts,
                           fit_snr_table, measure_counts_array,
                           schedule_streams)
from hybridskin.tof import ToFSpec, capture_frame, frame_times

SNR_TARGETS = {"no_covering": (120.0, 50.0), "covering_rest": (37.0, 13.0),
             "covering_squeeze": (45.0, 22.0)}
TABLE_CELLS = (50.0, 13.0, 22.0, 120.0, 37.0, 45.0)


@contextmanager
def criterion(num, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance {num}] {name}: FAIL "
              f"({time.perf_counter() - start:.2f}s)")
        raise
    print(f"[acceptance {num}] {name}: PASS ({time.perf_counter() - start:.2f}s)")


def exact_stream(mu, sigma, n):
    d = sigma * np.sqrt((n - 1) / n)
    return mu + d * np.tile([-1.0, 1.0], n // 2)


def fit_plane_rms(points):
    centroid = points.mean(axis=0)
    _, _, vt = np.linalg.svd(points - centroid, full_matrices=False)
    residuals = (points - centroid) @ vt[-1]
    return float(np.sqrt(np.mean(residuals ** 2)))


# ---------------------------------------------------------------------------
# 1. SNR formula fidelity
# ---------------------------------------------------------------------------

def test_criterion_1_snr_formula_fidelity():
    with criterion(1, "SNR formula reproduces all six table values exactly"):
        start = time.perf_counter()
        for value in TABLE_CELLS:
            inactive = exact_stream(1000.0, 10.0, 1000)
            active = np.full(1000, 1000.0 + 10.0 * value)
            report = snr(inactive, active)
            assert abs(report.snr - value) / value < 1e-9
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 2 + 3. Calibrated Monte-Carlo table reproduction and contact threshold
# ---------------------------------------------------------------------------

def test_criterion_2_calibrated_monte_carlo_reproduction():
    with criterion(2, "calibrated seeds reproduce all six cells within 15%"):
        start = time.perf_counter()
        model = fit_snr_table(SNR_TARGETS, calibration_column="no_covering",
                              signal_delta=600.0)
        for seed in range(20):
            report = evaluate_configurations(
                build_cell_logs(model, n_samples=1000, n_rings=3, seed=seed))
            for column, (no_tof, with_tof) in SNR_TARGETS.items():
                got_no = report.cell(column, False).snr_mean
                got_with = report.cell(column, True).snr_mean
                assert abs(got_no - no_tof) / no_tof <= 0.15, (seed, column, got_no)
                assert abs(got_with - with_tof) / with_tof <= 0.15, \
                    (seed, column, got_with)
            assert report.column_order_ok, seed
            assert report.squeeze_above_rest, seed
            for stats in report.cells.values():
                assert stats.snr_mean >= 7.0
        assert time.perf_counter() - start < 30.0


def test_criterion_3_contact_verdict_in_all_configurations():
    with criterion(3, "contact detected (SNR >= 7) in all six configurations"):
        model = fit_snr_table(SNR_TARGETS, signal_delta=600.0)
        report = evaluate_configurations(
            build_cell_logs(model, n_samples=1000, n_rings=3, seed=0))
        assert report.all_contact
        for stats in report.cells.values():
            assert stats.contact
            for ring_report in stats.ring_reports:
                assert ring_report.contact


# ---------------------------------------------------------------------------
# 4. Plane reconstruction residuals
# ---------------------------------------------------------------------------

def five_sensor_rig():
    # Five mounts spread across link 1 of a one-joint chain, all roughly
    # facing the wall at z = 2 with small orientation offsets.
    mounts = []
    offsets = [(0.0, 0.0), (0.3, 0.1), (-0.3, 0.2), (0.2, -0.25), (-0.15, -0.3)]
    for sid, (dx, dy) in enumerate(offsets):
        tilt = Pose.from_axis_angle((0, 1, 0), 0.05 * (sid - 2),
                                    translation=(dx, dy, 0.0))
        mounts.append(SensorMount(link_index=1, local=tilt, site_id=sid))
    chain = KinematicChain(joints=[Joint(axis=(0, 0, 1))], sensor_mounts=mounts)
    trajectory = JointTrajectory(times=[0.0, 5.0], values=[[-0.1], [0.1]])
    return chain, trajectory


def run_plane_capture(noise_sigma):
    spec = ToFSpec(range_noise_sigma=noise_sigma)
    chain, trajectory = five_sensor_rig()
    wall = make_plane_patch(30.0, 30.0, 2, 2, center=(0, 0, 2.0))
    caster = Bvh(TriangleSet.from_meshes([wall]))
    frames = []
    times = frame_times(5.0, spec)
    assert len(times) == 60
    for sid, mount in enumerate(chain.sensor_mounts):
        rng = np.random.default_rng([123, sid])
        for t in times:
            [pose] = mount_poses(chain, trajectory.value_at(float(t)), [mount])
            frames.append(capture_frame(sid, pose, caster, float(t), spec, rng))
    cloud = reconstruct(frames, chain, trajectory, spec)
    return cloud


def test_criterion_4_plane_reconstruction_residuals():
    with criterion(4, "plane reconstruction residual (noiseless/noisy)"):
        start = time.perf_counter()
        clean = run_plane_capture(0.0)
        assert len(clean) == 5 * 60 * 64  # every zone hits the wall
        assert fit_plane_rms(clean.points) < 1e-6
        noisy = run_plane_capture(0.01)
        assert fit_plane_rms(noisy.points) < 0.015
        assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 5. Accelerated raycast equals brute force
# ---------------------------------------------------------------------------

def test_criterion_5_bvh_matches_brute_force():
    with criterion(5, "BVH equals brute force on 10 scenes x 10^4 rays"):
        rng = np.random.default_rng(777)
        for _ in range(10):
            centers = rng.uniform(-2, 2, size=(100, 3))
            tris = TriangleSet(
                (centers[:, None, :] + rng.normal(scale=0.4, size=(100, 3, 3)))
                .reshape(-1, 3),
                np.arange(300).reshape(-1, 3))
            bvh = Bvh(tris)
            origins = rng.uniform(-3, 3, size=(10_000, 3))
            dirs = rng.normal(size=(10_000, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            many_t, many_idx = bvh.raycast_many(origins, dirs)
            for k, (o, d) in enumerate(zip(origins, dirs)):
                ray = Ray(tuple(o), tuple(d))
                expect = raycast_brute_force(tris, ray)
                got = None if many_idx[k] < 0 else (float(many_t[k]), int(many_idx[k]))
                if k % 100 == 0:
                    assert bvh.raycast(ray) == got
                if expect is None:
                    assert got is None
                else:
                    assert got is not None
                    assert got[1] == expect[1]
                    assert abs(got[0] - expect[0]) <= 1e-9


# ---------------------------------------------------------------------------
# 6. Geometry properties
# ---------------------------------------------------------------------------

def test_criterion_6_geometry_properties():
    with criterion(6, "offset radius, 40-site spacing, keepout violations"):
        # sphere offset within tessellation tolerance
        r, d, tol = 0.05, 0.005, 1e-3
        n_lat, n_lon = sphere_tessellation_for_chord_error(r, tol)
        sphere = make_uv_sphere(r, n_lat, n_lon)
        offset = offset_surface(sphere, OffsetSpec(d))
        radii = np.linalg.norm(offset.vertices, axis=1)
        assert np.all(np.abs(radii - (r + d)) <= tol)

        # 40 sites on a link-scale mesh keep the minimum distance (O(n^2))
        link = make_cylinder(0.06, 0.5, 48)
        sites = sample_sites(link, 40, min_dist=0.03, seed=1)
        pos = np.array([s.position for s in sites])
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        np.fill_diagonal(dist, np.inf)
        assert len(sites) == 40
        assert dist.min() >= 0.03

        # zero keepout violations across 100 seeded assemblies
        dermis = make_plane_patch(0.2, 0.2, 10, 10)
        covering = extrude_covering(dermis, OffsetSpec(0.006))
        ring_spec, mount_spec = RingSpec(), MountSpec()
        support_radius = 0.002
        clearance = ring_spec.outer_radius + support_radius
        violations = 0
        for seed in range(100):
            sites = sample_sites(dermis, 3, min_dist=0.05, seed=seed)
            assembly = compose_skin(dermis, covering, sites, ring_spec,
                                    mount_spec, support_spacing=0.02,
                                    support_radius=support_radius, seed=seed)
            bases = np.array([s.vertices[-2] for s in assembly.supports])
            for _, _, footprint in assembly.mounts:
                rel = bases - np.asarray(footprint.center)
                axial = rel @ np.asarray(footprint.normal)
                inplane = np.sqrt(np.einsum("ij,ij->i", rel, rel) - axial ** 2)
                violations += int(np.sum(inplane < clearance - 1e-12))
        assert violations == 0


# ---------------------------------------------------------------------------
# 7. Stream rates
# ---------------------------------------------------------------------------

def test_criterion_7_stream_rates():
    with criterion(7, "120 ToF frames per sensor and SC rates in [40, 44] Hz"):
        spec = MeasurementSpec()
        tof_spec = ToFSpec()
        for seed in range(10):
            rng = np.random.default_rng(seed)
            sc_times = schedule_streams(10.0, spec, rng)
            tof_times = frame_times(10.0, tof_spec)
            assert len(tof_times) == 120
            assert np.allclose(np.diff(tof_times), 1.0 / 12.0, atol=1e-12)
            rates = 1.0 / np.diff(sc_times)
            assert rates.min() >= 40.0 - 1e-9
            assert rates.max() <= 44.0 + 1e-9
        assert len(frame_times(10.0, tof_spec)) == 120


# ---------------------------------------------------------------------------
# 8. Monotone tactile response
# ---------------------------------------------------------------------------

def test_criterion_8_monotone_tactile_response():
    with criterion(8, "squeeze ramp monotone; squeeze > rest at 99% confidence"):
        model = fit_snr_table(SNR_TARGETS, signal_delta=600.0)
        electrode = model.electrode_covered
        quiet = MeasurementSpec(count_noise=0.0, tof_interference=0.0)
        # Counts are integers, so strict monotonicity needs ramp steps that
        # advance the ideal count by more than one; 30 steps over the
        # fitted squeeze range gives ~1.8 counts per step at the flat end.
        deltas = np.linspace(0.0, model.delta_squeeze, 30)
        counts = [expected_counts(capacitance(electrode.compressed(dl), 0.0), quiet)
                  for dl in deltas]
        assert all(b > a for a, b in zip(counts, counts[1:]))

        rng = np.random.default_rng(5)
        rest = measure_counts_array(
            model.active_capacitance("covering_rest"), model.measurement,
            True, rng, 1000)
        squeeze = measure_counts_array(
            model.active_capacitance("covering_squeeze"), model.measurement,
            True, rng, 1000)
        se = np.sqrt(rest.var(ddof=1) / 1000 + squeeze.var(ddof=1) / 1000)
        z = (squeeze.mean() - rest.mean()) / se
        assert z > 2.3263  # one-sided 99%


# ---------------------------------------------------------------------------
# 9. End-to-end determinism
# ---------------------------------------------------------------------------

def pipeline_fixture(tmp_path):
    chain = {
        "joints": [{"axis": [0, 0, 1], "type": "REVOLUTE"}],
        "mounts": [{"link": 1, "site_id": 0,
                    "local": {"translation": [0.0, 0.0, 0.0]}}],
    }
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps(chain))
    traj_path = tmp_path / "traj.csv"
    traj_path.write_text("t,q1\n0.0,-0.05\n2.0,0.05\n")
    scene = {"objects": [
        {"name": "wall", "conductive": False,
         "primitive": {"kind": "plane", "width": 20.0, "height": 20.0,
                       "nx": 2, "ny": 2, "center": [0.0, 0.0, 2.0]}},
        {"name": "hand", "conductive": True,
         "primitive": {"kind": "box", "size": [0.1, 0.1, 0.1]},
         "keyframes": [{"t": 0.0, "translation": [0.0, 0.8, 0.0]},
                       {"t": 2.0, "translation": [0.0, 0.052, 0.0]}]},
    ]}
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(scene))
    labels = {"labels": [{"site_id": 0,
                          "intervals": [[0.0, 0.8, "INACTIVE"],
                                        [1.6, 2.0, "ACTIVE_REST"]]}]}
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(json.dumps(labels))
    config = {
        "seed": 11,
        "generation": {"mesh": {"kind": "box", "size": [0.12, 0.12, 0.12]},
                       "site_count": 2, "site_min_dist": 0.04},
        "simulation": {"duration": 2.0, "chain": str(chain_path),
                       "trajectory": str(traj_path), "scene": str(scene_path)},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    return str(cfg_path), str(labels_path)


def run_pipeline(cfg, labels, out_root):
    gen, sim = out_root / "gen", out_root / "sim"
    rec, rep = out_root / "rec", out_root / "rep"
    assert main(["generate", "--config", cfg, "--out", str(gen)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(sim), "--set",
                 f"simulation.manifest={gen / 'manifest.json'}"]) == 0
    assert main(["reconstruct", "--config", cfg, "--out", str(rec),
                 "--log", str(sim / "samples.jsonl")]) == 0
    assert main(["snr", "--config", cfg, "--out", str(rep),
                 "--log", str(sim / "samples.jsonl"), "--labels", labels]) == 0
    return {
        "skin_structural.stl": (gen / "skin_structural.stl").read_bytes(),
        "skin_conductive.stl": (gen / "skin_conductive.stl").read_bytes(),
        "skin_flexible.stl": (gen / "skin_flexible.stl").read_bytes(),
        "skin.obj": (gen / "skin.obj").read_bytes(),
        "manifest.json": (gen / "manifest.json").read_bytes(),
        "samples.jsonl": (sim / "samples.jsonl").read_bytes(),
        "cloud.ply": (rec / "cloud.ply").read_bytes(),
        "snr.csv": (rep / "snr.csv").read_bytes(),
        "summary.txt": (rep / "summary.txt").read_bytes(),
    }


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion(9, "full pipeline byte-identical across two runs"):
        cfg, labels = pipeline_fixture(tmp_path)
        first = run_pipeline(cfg, labels, tmp_path / "run1")
        second = run_pipeline(cfg, labels, tmp_path / "run2")
        assert set(first) == set(second)
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"
        # sanity on the pipeline content: SC contact should be detected
        summary = first["summary.txt"].decode()
        assert "contact=true" in summary
        cloud = load_ply(tmp_path / "run1" / "rec" / "cloud.ply")
        assert len(cloud) > 0
        log = read_log(tmp_path / "run1" / "sim" / "samples.jsonl")
        assert sum(1 for r in log if r["type"] == "tof") == 24  # 2 s at 12 Hz
