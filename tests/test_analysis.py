import numpy as np
import pytest

from hybridskin.analysis import (ACTIVE_REST, ACTIVE_SQUEEZE, INACTIVE,
                                 ActivityLabel, CellLog, PointCloud,
                                 build_cell_logs, evaluate_configurations,
                                 load_ply, pressure_series, reconstruct,
                                 save_ply, snr)
from hybridskin.errors import (DegenerateSignalError, DomainError,
                               InsufficientSamplesError, UnknownSensorError)
from hybridskin.kinematics import (Joint, JointTrajectory, KinematicChain,
                                   Pose, SensorMount, forward_kinematics,
                                   mount_poses)
from hybridskin.mesh import make_box, make_plane_patch, make_uv_sphere
from hybridskin.raycast import Bvh, TriangleSet, point_mesh_distance
from hybridskin.sc import ScSample, fit_snr_table
from hybridskin.tof import ToFFrame, ToFSpec, capture_frame, capture_frames
from references import raycast_brute_force, stack_poses, zone_ray

SNR_TARGETS = {"no_covering": (120.0, 50.0), "covering_rest": (37.0, 13.0),
             "covering_squeeze": (45.0, 22.0)}


def fit_plane_rms(points):
    """Independent least-squares plane fit; returns RMS residual."""
    centroid = points.mean(axis=0)
    _, _, vt = np.linalg.svd(points - centroid, full_matrices=False)
    normal = vt[-1]
    residuals = (points - centroid) @ normal
    return float(np.sqrt(np.mean(residuals ** 2)))


def exact_stream(mu, sigma, n):
    """Counts with exact sample mean mu and unbiased std sigma."""
    d = sigma * np.sqrt((n - 1) / n)
    signs = np.tile([-1.0, 1.0], n // 2)
    return mu + d * signs


# ---------------------------------------------------------------------------
# snr
# ---------------------------------------------------------------------------

def test_snr_reproduces_all_table_values_exactly():
    for value in (50.0, 13.0, 22.0, 120.0, 37.0, 45.0):
        inactive = exact_stream(1000.0, 10.0, 1000)
        report = snr(inactive, [1000.0 + 10.0 * value])
        assert abs(report.snr - value) / value < 1e-9
        assert report.contact is (value >= 7.0)
        assert report.mu_n == pytest.approx(1000.0, abs=1e-9)
        assert report.sigma_n == pytest.approx(10.0, rel=1e-12)


def test_snr_example_fifty():
    report = snr(exact_stream(1000.0, 10.0, 1000), [1500.0])
    assert report.snr == pytest.approx(50.0, rel=1e-12)
    assert report.contact


def test_equal_means_give_zero_snr_no_contact():
    report = snr(exact_stream(1000.0, 10.0, 100), [1000.0])
    assert report.snr == pytest.approx(0.0, abs=1e-9)
    assert not report.contact


def test_zero_variance_inactive_raises():
    with pytest.raises(DegenerateSignalError):
        snr([100.0] * 50, [200.0])


def test_sample_count_preconditions():
    with pytest.raises(InsufficientSamplesError):
        snr([100.0], [200.0])
    with pytest.raises(InsufficientSamplesError):
        snr([100.0, 101.0], [])


def test_snr_invariant_under_positive_affine_transform():
    rng = np.random.default_rng(0)
    inactive = rng.normal(1000.0, 10.0, 500)
    active = rng.normal(1400.0, 12.0, 500)
    base = snr(inactive, active)
    for a, b in ((2.0, 0.0), (0.5, 300.0), (17.0, -4000.0)):
        scaled = snr(a * inactive + b, a * active + b)
        assert scaled.snr == pytest.approx(base.snr, rel=1e-9)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def static_chain():
    return KinematicChain(
        joints=[Joint(axis=(0, 0, 1))],
        sensor_mounts=[SensorMount(1, Pose.identity(), 0)])


def orbit_chain(radius=0.5):
    # Sensor on link 1, offset radially, boresight (+z local) looking back
    # at the joint axis.
    inward = Pose.from_axis_angle((0, 1, 0), -np.pi / 2,
                                  translation=(radius, 0.0, 0.0))
    return KinematicChain(joints=[Joint(axis=(0, 0, 1))],
                          sensor_mounts=[SensorMount(1, inward, 0)])


def constant_trajectory(duration=10.0, n_joints=1):
    return JointTrajectory(times=[0.0, duration],
                           values=[[0.0] * n_joints, [0.0] * n_joints])


def test_single_frame_on_wall_fits_plane():
    spec = ToFSpec(range_noise_sigma=0.0)
    wall = make_plane_patch(20, 20, 2, 2, center=(0, 0, 2.0))
    frame = capture_frame(0, Pose.identity(),
                          Bvh(TriangleSet.from_meshes([wall])), 0.0, spec,
                          np.random.default_rng(0))
    cloud = reconstruct([frame], static_chain(), constant_trajectory(), spec)
    assert len(cloud) == 64
    assert fit_plane_rms(cloud.points) < 1e-6
    assert np.allclose(cloud.points[:, 2], 2.0, atol=1e-9)


def test_empty_frame_list_gives_empty_cloud():
    spec = ToFSpec()
    cloud = reconstruct([], static_chain(), constant_trajectory(), spec)
    assert len(cloud) == 0


def test_point_provenance_distance_matches_log():
    spec = ToFSpec(range_noise_sigma=0.0)
    wall = make_plane_patch(20, 20, 2, 2, center=(0, 0, 2.0))
    frame = capture_frame(0, Pose.identity(),
                          Bvh(TriangleSet.from_meshes([wall])), 0.0, spec,
                          np.random.default_rng(0))
    cloud = reconstruct([frame], static_chain(), constant_trajectory(), spec)
    logged = frame.distances[frame.valid].ravel()
    recon = np.linalg.norm(cloud.points, axis=1)  # sensor sits at the origin
    assert np.allclose(np.sort(recon), np.sort(logged), atol=1e-9)


def test_orbiting_sensor_covers_hidden_box_faces():
    spec = ToFSpec(range_noise_sigma=0.0)
    chain = orbit_chain(radius=0.5)
    box = make_box((0.2, 0.2, 0.2))
    caster = Bvh(TriangleSet.from_meshes([box]))
    duration = 5.0
    traj = JointTrajectory(times=[0.0, duration], values=[[0.0], [2 * np.pi]])
    frames = []
    rng = np.random.default_rng(0)
    for k in range(60):
        t = k / 12.0
        [pose] = mount_poses(chain, traj.value_at(t), chain.sensor_mounts)
        frames.append(capture_frame(0, pose, caster, t, spec, rng))
    cloud = reconstruct(frames, chain, traj, spec)
    assert len(cloud) > 500
    # every point sits on the box surface
    tris = TriangleSet(box.vertices, box.faces)
    for p in cloud.points[::25]:
        assert point_mesh_distance(p, tris) < 1e-9  # well under the 1 cm bound
    # orbiting coverage reaches side faces a single static sensor cannot see
    on_x = np.abs(np.abs(cloud.points[:, 0]) - 0.1) < 1e-6
    on_y = np.abs(np.abs(cloud.points[:, 1]) - 0.1) < 1e-6
    faces_seen = {(0, np.sign(p[0])) for p in cloud.points[on_x]}
    faces_seen |= {(1, np.sign(p[1])) for p in cloud.points[on_y]}
    assert len(faces_seen) >= 3


def three_sensor_orbit():
    # Three sensors on one revolute link, each looking inward from its own
    # angle and tilt at clutter around the joint axis.
    mounts = []
    for sid, (phi, tilt) in enumerate([(0.0, 0.1), (2.0, -0.2), (4.0, 0.3)]):
        inward = Pose.from_axis_angle((0, 1, 0), -np.pi / 2 + tilt,
                                      translation=(0.8, 0.0, 0.1 * sid))
        mounts.append(SensorMount(1, Pose.from_axis_angle((0, 0, 1), phi).compose(inward),
                                  sid))
    chain = KinematicChain(joints=[Joint(axis=(0, 0, 1))], sensor_mounts=mounts)
    traj = JointTrajectory(times=[0.0, 2.0], values=[[0.0], [1.5]])
    scene = [make_uv_sphere(0.2, 10, 20), make_box((0.3, 0.3, 0.3), center=(0.1, 0, 0)),
             make_plane_patch(3, 3, 2, 2, center=(0, 0, -0.4))]
    return chain, traj, TriangleSet.from_meshes(scene)


def test_reconstruct_runs_of_shared_timestamps_follow_the_zone_rays():
    spec = ToFSpec(range_noise_sigma=0.0)
    chain, traj, tris = three_sensor_orbit()
    bvh = Bvh(tris)
    # A run of three sensors at t=0.5, a run at t=1.0, then t=0.5 again.
    schedule = [(0.5, [0, 1, 2]), (1.0, [2, 0]), (0.5, [1, 2])]
    frames = []
    for t, sids in schedule:
        poses = [forward_kinematics(chain, traj.value_at(t))[1].compose(
            chain.sensor_mounts[sid].local) for sid in sids]
        frames += capture_frames(sids, stack_poses(poses), bvh, t, spec,
                                 [np.random.default_rng(0)] * len(sids))
    cloud = reconstruct(frames, chain, traj, spec)

    points, ids, times = [], [], []
    for frame in frames:
        mount = chain.sensor_mounts[frame.sensor_id]
        pose = forward_kinematics(chain, traj.value_at(frame.timestamp))[1].compose(
            mount.local)
        for i in range(spec.nx):
            for j in range(spec.ny):
                ray = zone_ray(pose, i, j, spec)
                hit = raycast_brute_force(tris, ray, spec.max_range)
                assert frame.valid[i, j] == (hit is not None)
                if hit is not None:
                    t_hit = max(hit[0], 1e-6)
                    points.append(np.add(ray.origin, t_hit * np.asarray(ray.direction)))
                    ids.append(frame.sensor_id)
                    times.append(frame.timestamp)
    assert 0 < len(points) < 64 * len(frames)  # hits and misses both occur
    assert np.abs(cloud.points - np.asarray(points)).max() <= 1e-12
    assert np.array_equal(cloud.sensor_ids, ids)
    assert np.array_equal(cloud.timestamps, times)


def test_unknown_sensor_inside_a_run_raises():
    spec = ToFSpec(range_noise_sigma=0.0)
    chain, traj, tris = three_sensor_orbit()
    frames = capture_frames([0, 99, 1], stack_poses([Pose.identity()] * 3), Bvh(tris), 0.5,
                            spec, [np.random.default_rng(0)] * 3)
    with pytest.raises(UnknownSensorError):
        reconstruct(frames, chain, traj, spec)


@pytest.mark.parametrize("schedule,error", [
    # an earlier run out of the trajectory's domain, a later frame's sensor unknown
    ([(0.5, [0, 1]), (9.0, [2]), (1.0, [99])], DomainError),
    # an earlier frame's sensor unknown, a later run out of domain
    ([(0.5, [0]), (1.0, [1, 99]), (9.0, [2])], UnknownSensorError),
    # in one run: its first sensor, then its timestamp, then its other sensors
    ([(0.5, [0]), (9.0, [99, 1])], UnknownSensorError),
    ([(0.5, [0]), (9.0, [1, 99])], DomainError),
])
def test_reconstruct_raises_the_first_fault_in_frame_order(schedule, error):
    spec = ToFSpec()
    chain, traj, _ = three_sensor_orbit()
    shape = (spec.nx, spec.ny)
    frames = [ToFFrame(sid, t, np.ones(shape), np.ones(shape, dtype=bool))
              for t, sids in schedule for sid in sids]
    with pytest.raises(error):
        reconstruct(frames, chain, traj, spec)


def test_unknown_sensor_raises():
    spec = ToFSpec()
    wall = make_plane_patch(4, 4, 1, 1, center=(0, 0, 1.0))
    frame = capture_frame(99, Pose.identity(),
                          Bvh(TriangleSet.from_meshes([wall])), 0.0, spec,
                          np.random.default_rng(0))
    with pytest.raises(UnknownSensorError):
        reconstruct([frame], static_chain(), constant_trajectory(), spec)


def test_frame_outside_trajectory_domain_raises():
    spec = ToFSpec()
    wall = make_plane_patch(4, 4, 1, 1, center=(0, 0, 1.0))
    frame = capture_frame(0, Pose.identity(),
                          Bvh(TriangleSet.from_meshes([wall])), 99.0, spec,
                          np.random.default_rng(0))
    with pytest.raises(DomainError):
        reconstruct([frame], static_chain(), constant_trajectory(duration=1.0), spec)


# ---------------------------------------------------------------------------
# six-cell table evaluation
# ---------------------------------------------------------------------------

def hand_built_cells(n=1000):
    cells = []
    for column, (no_tof, with_tof) in SNR_TARGETS.items():
        for with_flag, value in ((False, no_tof), (True, with_tof)):
            for ring in range(3):
                cells.append(CellLog(
                    column=column, with_tof=with_flag, ring=ring,
                    inactive=exact_stream(1000.0, 10.0, n),
                    active=np.full(n, 1000.0 + 10.0 * value)))
    return cells


def test_hand_built_logs_reproduce_exact_table():
    report = evaluate_configurations(hand_built_cells())
    for column, (no_tof, with_tof) in SNR_TARGETS.items():
        assert report.cells[(column, False)].snr_mean == pytest.approx(no_tof, rel=1e-9)
        assert report.cells[(column, True)].snr_mean == pytest.approx(with_tof, rel=1e-9)
    assert report.column_order_ok
    assert report.squeeze_above_rest
    assert report.all_contact


def test_all_inactive_logs_report_no_contact():
    cells = []
    for column in SNR_TARGETS:
        for with_flag in (False, True):
            for ring in range(3):
                cells.append(CellLog(column=column, with_tof=with_flag, ring=ring,
                                     inactive=exact_stream(1000.0, 10.0, 1000),
                                     active=np.full(1000, 1000.0)))
    report = evaluate_configurations(cells)
    for stats in report.cells.values():
        assert stats.snr_mean == pytest.approx(0.0, abs=1e-9)
        assert not stats.contact
    assert not report.all_contact


def test_insufficient_samples_or_rings_raise():
    cells = hand_built_cells(n=100)
    with pytest.raises(InsufficientSamplesError):
        evaluate_configurations(cells)  # MIN_CELL_SAMPLES = 1000
    cells = [c for c in hand_built_cells() if c.ring < 2]
    with pytest.raises(InsufficientSamplesError):
        evaluate_configurations(cells)


def test_calibrated_monte_carlo_reproduces_table_within_tolerance():
    model = fit_snr_table(SNR_TARGETS, signal_delta=600.0)
    logs = build_cell_logs(model, n_samples=1000, n_rings=3, seed=0)
    report = evaluate_configurations(logs)
    for column, (no_tof, with_tof) in SNR_TARGETS.items():
        assert report.cells[(column, False)].snr_mean == pytest.approx(no_tof, rel=0.15)
        assert report.cells[(column, True)].snr_mean == pytest.approx(with_tof, rel=0.15)
    assert report.column_order_ok
    assert report.squeeze_above_rest
    assert report.all_contact
    rows = report.csv_rows()
    assert rows[0] == "config,ring,mu_n,sigma_n,mu,snr,contact"
    assert len(rows) == 1 + 18  # 6 cells x 3 rings
    assert "No covering" in report.summary_text()


# ---------------------------------------------------------------------------
# pressure response
# ---------------------------------------------------------------------------

def ramp_samples(site_id=0):
    # squeeze ramp: compression rises linearly; noise-free counts from the
    # covered electrode model
    from hybridskin.sc import MeasurementSpec, capacitance, expected_counts
    model_spec = MeasurementSpec(count_noise=0.0, tof_interference=0.0)
    from hybridskin.sc import ElectrodeModel
    electrode = ElectrodeModel(c0=10e-12, k=1e-12, d0=0.005, t_cov=0.006,
                               delta_max=0.005)
    samples = []
    for idx, delta in enumerate(np.linspace(0.0, 0.005, 50)):
        c = capacitance(electrode.compressed(delta), 0.0)
        samples.append(ScSample(site_id, 2.0 + idx * 0.01,
                                expected_counts(c, model_spec)))
    return samples


def test_squeeze_ramp_counts_strictly_increase():
    counts = [s.counts for s in ramp_samples()]
    assert all(b > a for a, b in zip(counts, counts[1:]))


def test_pressure_ordering_detected_at_table_noise():
    model = fit_snr_table(SNR_TARGETS, signal_delta=600.0)
    rng = np.random.default_rng(21)
    from hybridskin.sc import capacitance, measure_counts_array
    idle_c = model.electrode_covered.c0
    rest_c = capacitance(model.electrode_for("covering_rest"), 0.0)
    squeeze_c = capacitance(model.electrode_for("covering_squeeze"), 0.0)
    samples = []
    t = 0.0
    for c, state_len in ((idle_c, 1000), (rest_c, 1000), (squeeze_c, 1000)):
        for n in measure_counts_array(c, model.measurement, True, rng, state_len):
            samples.append(ScSample(0, t, int(n)))
            t += 0.024
    labels = ActivityLabel(site_id=0, intervals=[
        (0.0, 1000 * 0.024, INACTIVE),
        (1000 * 0.024, 2000 * 0.024, ACTIVE_REST),
        (2000 * 0.024, 3000 * 0.024, ACTIVE_SQUEEZE),
    ])
    report = pressure_series(samples, labels)
    assert report.applicable
    assert report.squeeze_above_rest
    assert report.rest_above_inactive
    assert report.means[ACTIVE_SQUEEZE] > report.means[ACTIVE_REST] > report.means[INACTIVE]


def test_no_contact_series_is_not_applicable():
    samples = [ScSample(0, 0.01 * i, 1000 + (i % 3)) for i in range(100)]
    labels = ActivityLabel(site_id=0, intervals=[(0.0, 1.0, INACTIVE)])
    report = pressure_series(samples, labels)
    assert not report.applicable


def test_labels_validate_interval_order():
    with pytest.raises(ValueError):
        ActivityLabel(0, [(0.0, 1.0, INACTIVE), (0.5, 2.0, ACTIVE_REST)])
    with pytest.raises(ValueError):
        ActivityLabel(0, [(0.0, 1.0, "LOUNGING")])


# ---------------------------------------------------------------------------
# PLY export
# ---------------------------------------------------------------------------

def sample_cloud():
    rng = np.random.default_rng(3)
    return PointCloud(points=rng.normal(size=(40, 3)),
                      sensor_ids=rng.integers(0, 5, size=40),
                      timestamps=np.linspace(0, 1, 40))


def test_ply_binary_round_trip(tmp_path):
    cloud = sample_cloud()
    path = tmp_path / "cloud.ply"
    save_ply(cloud, path, binary=True)
    loaded = load_ply(path)
    assert len(loaded) == len(cloud)
    assert np.allclose(loaded.points, cloud.points, atol=1e-6)
    assert np.array_equal(loaded.sensor_ids, cloud.sensor_ids)


def test_ply_ascii_round_trip(tmp_path):
    cloud = sample_cloud()
    path = tmp_path / "cloud_ascii.ply"
    save_ply(cloud, path, binary=False)
    text = path.read_text()
    assert text.startswith("ply\nformat ascii 1.0")
    loaded = load_ply(path)
    assert np.allclose(loaded.points, cloud.points, atol=1e-5)


def test_cloud_rejects_non_finite_points():
    with pytest.raises(ValueError):
        PointCloud(points=[[0, 0, np.nan]], sensor_ids=[0], timestamps=[0.0])
