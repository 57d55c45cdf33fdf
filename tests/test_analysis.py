import math

import numpy as np
import pytest

from hybridskin import analysis
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
from hybridskin.sc import fit_snr_table
from hybridskin.tof import ToFSpec, capture_frame
from references import (ScSample, ToFFrame, capture_frames_through, ply_binary_body_struct,
                        raycast_brute_force, reconstruct_by_runs, reconstruct_frames,
                        stack_poses, stacked, state_at_scalar, tof_table, zone_ray)

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
    cloud = reconstruct(frame, static_chain(), constant_trajectory(), spec)
    assert len(cloud) == 64
    assert fit_plane_rms(cloud.points) < 1e-6
    assert np.allclose(cloud.points[:, 2], 2.0, atol=1e-9)


def test_empty_frame_list_gives_empty_cloud():
    spec = ToFSpec()
    cloud = reconstruct(tof_table([]), static_chain(), constant_trajectory(), spec)
    assert len(cloud) == 0


def test_point_provenance_distance_matches_log():
    spec = ToFSpec(range_noise_sigma=0.0)
    wall = make_plane_patch(20, 20, 2, 2, center=(0, 0, 2.0))
    frame = capture_frame(0, Pose.identity(),
                          Bvh(TriangleSet.from_meshes([wall])), 0.0, spec,
                          np.random.default_rng(0))
    cloud = reconstruct(frame, static_chain(), constant_trajectory(), spec)
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
    cloud = reconstruct(stacked(frames), chain, traj, spec)
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
        frames += capture_frames_through(bvh, sids, stack_poses(poses), t, spec,
                                         [np.random.default_rng(0)] * len(sids))
    cloud = reconstruct(tof_table(frames), chain, traj, spec)

    points, ids, times = [], [], []
    for frame in frames:
        mount = chain.sensor_mounts[frame.sensor_id]
        pose = forward_kinematics(chain, traj.value_at(frame.timestamp))[1].compose(
            mount.local)
        for i in range(spec.nx):
            for j in range(spec.ny):
                origin, direction = zone_ray(pose, i, j, spec)
                hit = raycast_brute_force(tris, origin, direction, spec.max_range)
                assert frame.valid[i, j] == (hit is not None)
                if hit is not None:
                    t_hit = max(hit[0], 1e-6)
                    points.append(np.add(origin, t_hit * np.asarray(direction)))
                    ids.append(frame.sensor_id)
                    times.append(frame.timestamp)
    assert 0 < len(points) < 64 * len(frames)  # hits and misses both occur
    assert np.abs(cloud.points - np.asarray(points)).max() <= 1e-12
    assert np.array_equal(cloud.sensor_ids, ids)
    assert np.array_equal(cloud.timestamps, times)


def test_reconstruct_blocks_carry_the_bits_of_the_run_by_run_form(monkeypatch):
    spec = ToFSpec()
    chain, traj, _ = three_sensor_orbit()
    rng = np.random.default_rng(5)
    # Runs of 1 to 4 frames sharing a timestamp, some with no valid zone.
    frames, starts = [], []
    while len(frames) < 200:
        starts.append(len(frames))
        t = float(rng.uniform(0.0, 2.0))
        for _ in range(int(rng.integers(1, 5))):
            valid = rng.random((spec.nx, spec.ny)) < 0.6
            if rng.random() < 0.1:
                valid[:] = False
            d = np.where(valid, rng.uniform(0.01, spec.max_range, valid.shape), np.nan)
            frames.append(ToFFrame(int(rng.integers(0, 3)), t, d, valid))
    block = analysis._RAY_BLOCK // (spec.nx * spec.ny)
    ends = starts[1:] + [len(frames)]
    assert sum(s < e - 1 and s // block != (e - 1) // block
               for s, e in zip(starts, ends)) >= 2  # runs straddle block edges
    assert any(not f.valid.any() for f in frames)
    n_rays = len(frames) * spec.nx * spec.ny
    assert n_rays > 2 * analysis._RAY_BLOCK

    calls = []
    zone_rays = analysis.zone_rays
    monkeypatch.setattr(analysis, "zone_rays",
                        lambda poses, s: calls.append(len(poses)) or zone_rays(poses, s))
    cloud = reconstruct(tof_table(frames), chain, traj, spec)
    reference = reconstruct_by_runs(frames, chain, traj, spec)
    assert len(calls) == math.ceil(n_rays / analysis._RAY_BLOCK)
    assert np.array_equal(cloud.points, reference.points)
    assert np.array_equal(cloud.sensor_ids, reference.sensor_ids)
    assert np.array_equal(cloud.timestamps, reference.timestamps)


def test_reconstruct_rejects_frames_of_another_zone_grid():
    spec = ToFSpec()
    chain, traj, _ = three_sensor_orbit()
    frames = [ToFFrame(0, 0.5, np.ones((4, 4)), np.ones((4, 4), dtype=bool))] * 256
    with pytest.raises(ValueError, match="16 zones"):
        reconstruct(tof_table(frames), chain, traj, spec)


def test_unknown_sensor_inside_a_run_raises():
    spec = ToFSpec(range_noise_sigma=0.0)
    chain, traj, tris = three_sensor_orbit()
    frames = capture_frames_through(Bvh(tris), [0, 99, 1], stack_poses([Pose.identity()] * 3),
                                    0.5, spec, [np.random.default_rng(0)] * 3)
    with pytest.raises(UnknownSensorError):
        reconstruct(tof_table(frames), chain, traj, spec)


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
        reconstruct(tof_table(frames), chain, traj, spec)


def random_runs(rng, spec, n_runs, t_max=2.0):
    """Frames in runs of 1 to 4 sharing a timestamp; some timestamps repeat
    an earlier run's, and some frames have no valid zone."""
    frames, times = [], []
    for _ in range(n_runs):
        t = float(rng.choice(times)) if times and rng.random() < 0.2 else float(
            rng.uniform(0.0, t_max))
        times.append(t)
        for _ in range(int(rng.integers(1, 5))):
            valid = rng.random((spec.nx, spec.ny)) < rng.choice([0.0, 0.6, 1.0])
            d = np.where(valid, rng.uniform(0.01, spec.max_range, valid.shape), np.nan)
            frames.append(ToFFrame(int(rng.integers(0, 3)), t, d, valid))
    return frames


def outcome(reconstruct_fn, frames, chain, traj, spec):
    try:
        cloud = reconstruct_fn(frames, chain, traj, spec)
    except (UnknownSensorError, DomainError, ValueError) as exc:
        return type(exc), str(exc)
    return cloud.points, cloud.sensor_ids, cloud.timestamps


@pytest.mark.parametrize("fault", ["none", "unknown_first_in_run", "unknown_later_in_run",
                                   "domain_before_unknown", "domain_after_unknown",
                                   "domain_in_the_unknowns_run", "empty"])
def test_table_reconstruct_equals_the_frame_list_reference(fault):
    spec = ToFSpec()
    chain, traj, _ = three_sensor_orbit()
    rng = np.random.default_rng(11)
    frames = [] if fault == "empty" else random_runs(rng, spec, 60)
    starts = [k for k in range(len(frames))
              if k == 0 or frames[k].timestamp != frames[k - 1].timestamp]
    multi = [s for s, e in zip(starts, starts[1:] + [len(frames)]) if e - s >= 2]

    def unknown_at(k):
        frames[k] = ToFFrame(99, frames[k].timestamp, frames[k].distances, frames[k].valid)

    def out_of_domain(run):
        stop = next((s for s in starts if s > run), len(frames))
        for k in range(run, stop):
            frames[k] = ToFFrame(frames[k].sensor_id, 9.0, frames[k].distances,
                                 frames[k].valid)

    if fault == "unknown_first_in_run":
        unknown_at(multi[3])
        out_of_domain(multi[3])  # its run's time is never checked
    elif fault == "unknown_later_in_run":
        unknown_at(multi[3] + 1)
    elif fault == "domain_before_unknown":
        out_of_domain(starts[10])
        unknown_at(starts[20])
    elif fault == "domain_after_unknown":
        unknown_at(starts[10])
        out_of_domain(starts[20])
    elif fault == "domain_in_the_unknowns_run":
        unknown_at(multi[3] + 1)
        out_of_domain(multi[3])
    got = outcome(reconstruct, tof_table(frames), chain, traj, spec)
    want = outcome(reconstruct_frames, frames, chain, traj, spec)
    if fault == "none":
        assert len(got[0]) > 0 and len(multi) > 3
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a == b if not isinstance(a, np.ndarray) else np.array_equal(a, b)
    if fault in ("unknown_first_in_run", "unknown_later_in_run", "domain_after_unknown"):
        assert got[0] is UnknownSensorError
    if fault in ("domain_before_unknown", "domain_in_the_unknowns_run"):
        assert got[0] is DomainError


def test_unknown_sensor_raises():
    spec = ToFSpec()
    wall = make_plane_patch(4, 4, 1, 1, center=(0, 0, 1.0))
    frame = capture_frame(99, Pose.identity(),
                          Bvh(TriangleSet.from_meshes([wall])), 0.0, spec,
                          np.random.default_rng(0))
    with pytest.raises(UnknownSensorError):
        reconstruct(frame, static_chain(), constant_trajectory(), spec)


def test_frame_outside_trajectory_domain_raises():
    spec = ToFSpec()
    wall = make_plane_patch(4, 4, 1, 1, center=(0, 0, 1.0))
    frame = capture_frame(0, Pose.identity(),
                          Bvh(TriangleSet.from_meshes([wall])), 99.0, spec,
                          np.random.default_rng(0))
    with pytest.raises(DomainError):
        reconstruct(frame, static_chain(), constant_trajectory(duration=1.0),
                    spec)


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
    from hybridskin.sc import MeasurementSpec, contact_capacitance, expected_counts
    model_spec = MeasurementSpec(count_noise=0.0, tof_interference=0.0)
    from hybridskin.sc import ElectrodeModel
    electrode = ElectrodeModel(c0=10e-12, k=1e-12, d0=0.005, t_cov=0.006,
                               delta_max=0.005)
    c = contact_capacitance(electrode, electrode.t_cov - np.linspace(0.0, 0.005, 50))
    return [ScSample(site_id, 2.0 + idx * 0.01, n)
            for idx, n in enumerate(expected_counts(c, model_spec).tolist())]


def test_squeeze_ramp_counts_strictly_increase():
    counts = [s.counts for s in ramp_samples()]
    assert all(b > a for a, b in zip(counts, counts[1:]))


def test_pressure_ordering_detected_at_table_noise():
    model = fit_snr_table(SNR_TARGETS, signal_delta=600.0)
    rng = np.random.default_rng(21)
    from hybridskin.sc import contact_capacitance, measure_counts
    idle_c = model.electrode_covered.c0
    rest_c = contact_capacitance(*model.contact("covering_rest"))
    squeeze_c = contact_capacitance(*model.contact("covering_squeeze"))
    samples = []
    t = 0.0
    for c, state_len in ((idle_c, 1000), (rest_c, 1000), (squeeze_c, 1000)):
        for n in measure_counts(np.full(state_len, c), model.measurement, True, rng):
            samples.append(ScSample(0, t, int(n)))
            t += 0.024
    labels = ActivityLabel(site_id=0, intervals=[
        (0.0, 1000 * 0.024, INACTIVE),
        (1000 * 0.024, 2000 * 0.024, ACTIVE_REST),
        (2000 * 0.024, 3000 * 0.024, ACTIVE_SQUEEZE),
    ])
    report = pressure_series([s.counts for s in samples],
                             labels.states_at([s.timestamp for s in samples]))
    assert report.applicable
    assert report.squeeze_above_rest
    assert report.rest_above_inactive
    assert report.means[ACTIVE_SQUEEZE] > report.means[ACTIVE_REST] > report.means[INACTIVE]


def test_no_contact_series_is_not_applicable():
    samples = [ScSample(0, 0.01 * i, 1000 + (i % 3)) for i in range(100)]
    labels = ActivityLabel(site_id=0, intervals=[(0.0, 1.0, INACTIVE)])
    report = pressure_series([s.counts for s in samples],
                             labels.states_at([s.timestamp for s in samples]))
    assert not report.applicable


def test_states_at_equals_the_interval_scan_at_and_between_the_edges():
    # Touching, separated and single-point-wide gaps; times exactly on every
    # edge, one ulp either side, far outside, and NaN.
    label = ActivityLabel(0, [(0.0, 1.0, INACTIVE), (1.0, 2.5, ACTIVE_REST),
                              (3.0, 3.5, ACTIVE_SQUEEZE),
                              (np.nextafter(3.5, 4.0), 4.0, INACTIVE)])
    edges = np.array([0.0, 1.0, 2.5, 3.0, 3.5, np.nextafter(3.5, 4.0), 4.0])
    times = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                            [-1e300, -np.inf, np.inf, np.nan],
                            np.random.default_rng(7).uniform(-1.0, 5.0, 500)])
    states = label.states_at(times)
    assert states.dtype == object and states.shape == times.shape
    assert list(states) == [state_at_scalar(label, t) for t in times.tolist()]
    assert list(states[:7]) == [INACTIVE, ACTIVE_REST, None, ACTIVE_SQUEEZE, None, INACTIVE,
                                None]
    assert list(ActivityLabel(1, []).states_at([0.0, np.nan])) == [None, None]
    assert label.states_at([]).shape == (0,)


def test_labels_validate_interval_order():
    with pytest.raises(ValueError):
        ActivityLabel(0, [(0.0, 1.0, INACTIVE), (0.5, 2.0, ACTIVE_REST)])
    with pytest.raises(ValueError):
        ActivityLabel(0, [(0.0, 1.0, "LOUNGING")])


@pytest.mark.parametrize("intervals", [
    [(np.nan, 1.0, INACTIVE)], [(0.0, np.nan, INACTIVE)],
    [(0.0, 1.0, INACTIVE), (np.nan, 2.0, ACTIVE_REST)],
    [(0.0, 1.0, INACTIVE), (1.0, np.nan, ACTIVE_REST)],
    [(-np.inf, 1.0, INACTIVE)], [(0.0, np.inf, INACTIVE)],
], ids=["nan_start", "nan_end", "nan_second_start", "nan_second_end", "-inf", "inf"])
def test_labels_reject_non_finite_bounds(intervals):
    with pytest.raises(ValueError, match="non-finite bound"):
        ActivityLabel(0, intervals)


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


def test_ply_binary_body_matches_struct_pack_bit_for_bit(tmp_path):
    rng = np.random.default_rng(11)
    f32_max = float(np.finfo(np.float32).max)
    magnitudes = np.concatenate([
        10.0 ** rng.uniform(-45, 38, 300),  # subnormal to near float32 max
        [0.0, 1e-46, 5e-324, 1.0 + 2.0 ** -24, 1.0 + 3 * 2.0 ** -24, f32_max]])
    values = magnitudes * rng.choice([-1.0, 1.0], magnitudes.size)
    n = values.size // 3
    times = rng.permutation(values)[:n]
    times[:2] = [np.inf, np.nan]
    ids = rng.integers(0, 2 ** 32, n)
    ids[:2] = [0, 2 ** 32 - 1]
    cloud = PointCloud(values[:3 * n].reshape(n, 3), ids, times)
    path = tmp_path / "cloud.ply"
    save_ply(cloud, path, binary=True)
    data = path.read_bytes()
    body = ply_binary_body_struct(cloud)
    assert data.index(b"end_header\n") + len(b"end_header\n") == len(data) - len(body)
    assert data.endswith(body)
    loaded = load_ply(path)
    assert np.array_equal(loaded.points, cloud.points.astype(np.float32))
    assert np.array_equal(loaded.sensor_ids, cloud.sensor_ids)
    assert np.array_equal(loaded.timestamps, cloud.timestamps.astype(np.float32),
                          equal_nan=True)


@pytest.mark.parametrize("sensor_id,point,t", [
    (-1, 0.0, 0.0),
    (2 ** 32, 0.0, 0.0),
    (0, 3.5e38, 0.0),
    (0, -1e300, 0.0),
    (0, 0.0, 1e39),
])
def test_ply_binary_rejects_values_outside_its_types(tmp_path, sensor_id, point, t):
    cloud = PointCloud([[0.0, point, 0.0]], [sensor_id], [t])
    with pytest.raises(ValueError, match="PLY"):
        save_ply(cloud, tmp_path / "cloud.ply", binary=True)


@pytest.mark.parametrize("sensor_id,point,t", [
    (-1, 0.0, 0.0),
    (2 ** 32, 0.0, 0.0),
    (0, 1e39, 0.0),
    (0, -1e300, 0.0),
    (0, 0.0, 1e39),
])
def test_ply_ascii_rejects_the_values_binary_rejects(tmp_path, sensor_id, point, t):
    # An ASCII PLY declares the same uint/float properties as a binary one.
    cloud = PointCloud([[0.0, point, 0.0]], [sensor_id], [t])
    with pytest.raises(ValueError, match="PLY"):
        save_ply(cloud, tmp_path / "cloud.ply", binary=False)
    assert not (tmp_path / "cloud.ply").exists()


def test_ply_ascii_body_is_one_formatted_line_per_point(tmp_path):
    cloud = sample_cloud()
    save_ply(cloud, tmp_path / "cloud.ply", binary=False)
    body = "".join(f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g} {int(sid)} {t:.9g}\n"
                   for p, sid, t in zip(cloud.points, cloud.sensor_ids, cloud.timestamps))
    assert (tmp_path / "cloud.ply").read_text().endswith("end_header\n" + body)


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
