import numpy as np
import pytest

from hybridskin.kinematics import Pose
from hybridskin.mesh import make_box, make_plane_patch, make_uv_sphere
from hybridskin.raycast import Bvh, TriangleSet
from hybridskin.tof import (ToFSpec, _local_zone_directions, capture_frame, capture_frames,
                            frame_times, zone_rays)
from references import (capture_frames_through, raycast_brute_force, stack_poses,
                        tof_frames, zone_angles, zone_direction_local, zone_ray)


def wall_caster(z=2.0, size=20.0):
    wall = make_plane_patch(size, size, 2, 2, center=(0, 0, z))
    return Bvh(TriangleSet.from_meshes([wall]))


def test_single_zone_grid_fires_along_boresight():
    spec = ToFSpec(nx=1, ny=1)
    _, direction = zone_ray(Pose.identity(), 0, 0, spec)
    assert np.allclose(direction, (0, 0, 1), atol=1e-15)


def test_center_zones_are_symmetric_about_boresight():
    spec = ToFSpec()
    tx3, _ = zone_angles(3, 0, spec)
    tx4, _ = zone_angles(4, 0, spec)
    # angle formula evaluated independently: ((i+0.5)/8 - 0.5) * 45 deg
    assert np.degrees(tx3) == pytest.approx(-2.8125, abs=1e-12)
    assert np.degrees(tx4) == pytest.approx(2.8125, abs=1e-12)


def test_corner_zone_angles():
    spec = ToFSpec()
    tx, ty = zone_angles(0, 0, spec)
    assert np.degrees(tx) == pytest.approx(-19.6875, abs=1e-12)
    assert np.degrees(ty) == pytest.approx(-19.6875, abs=1e-12)


def test_zone_grid_mirror_symmetry():
    spec = ToFSpec()
    for i in range(8):
        for j in range(8):
            d = zone_direction_local(i, j, spec)
            m = zone_direction_local(7 - i, 7 - j, spec)
            mirrored = np.array([-m[0], -m[1], m[2]])
            assert np.allclose(d, mirrored, atol=1e-9)


@pytest.mark.parametrize("spec", [ToFSpec(), ToFSpec(nx=1, ny=1), ToFSpec(nx=3, ny=5, fov_x=61.0,
                                                                          fov_y=12.5)],
                         ids=["8x8", "1x1", "3x5"])
def test_local_zone_directions_are_the_per_zone_form(spec):
    local = _local_zone_directions(spec)
    assert local.shape == (spec.nx * spec.ny, 3) and not local.flags.writeable
    for i in range(spec.nx):
        for j in range(spec.ny):
            assert np.array_equal(local[i * spec.ny + j], zone_direction_local(i, j, spec))


def test_zone_ray_rotates_with_sensor_pose():
    spec = ToFSpec()
    pose = Pose.from_axis_angle([0, 1, 0], np.pi / 2, translation=(1, 2, 3))
    origin, direction = zone_ray(pose, 3, 3, spec)
    assert origin == (1.0, 2.0, 3.0)
    local = zone_direction_local(3, 3, spec)
    assert np.allclose(direction, pose.rotate(local), atol=1e-12)


def test_empty_scene_yields_all_no_target():
    spec = ToFSpec()
    frame = capture_frame(0, Pose.identity(), Bvh(TriangleSet.from_meshes([])), 0.0, spec,
                          np.random.default_rng(0))
    assert not frame.valid.any()
    assert np.all(np.isnan(frame.distances))


def test_wall_distances_match_cosine_oracle():
    spec = ToFSpec(range_noise_sigma=0.0)
    frame = capture_frame(0, Pose.identity(), wall_caster(z=2.0), 0.0, spec,
                          np.random.default_rng(0))
    assert frame.valid.shape == (1, 64) and frame.valid.all()
    for i in range(8):
        for j in range(8):
            tx, ty = zone_angles(i, j, spec)
            expected = 2.0 * np.sqrt(1 + np.tan(tx) ** 2 + np.tan(ty) ** 2)
            assert frame.distances[0, i * 8 + j] == pytest.approx(expected, abs=1e-12)


def test_distances_stay_within_max_range():
    spec = ToFSpec(range_noise_sigma=0.5)  # huge noise to stress the clamp
    rng = np.random.default_rng(3)
    frame = capture_frame(0, Pose.identity(), wall_caster(z=3.9), 0.0, spec, rng)
    d = frame.distances[frame.valid]
    assert np.all(d > 0.0)
    assert np.all(d <= spec.max_range)


def test_same_seed_gives_identical_frames():
    spec = ToFSpec()
    caster = wall_caster()
    a = capture_frame(0, Pose.identity(), caster, 0.0, spec,
                      np.random.default_rng(11))
    b = capture_frame(0, Pose.identity(), caster, 0.0, spec,
                      np.random.default_rng(11))
    assert np.array_equal(a.distances, b.distances)
    assert np.array_equal(a.valid, b.valid)


def test_noise_sigma_matches_sample_statistics():
    spec = ToFSpec(range_noise_sigma=0.01)
    caster = wall_caster(z=2.0)
    rng = np.random.default_rng(8)
    noiseless = capture_frame(0, Pose.identity(), caster, 0.0,
                              ToFSpec(range_noise_sigma=0.0),
                              np.random.default_rng(0))
    residuals = []
    for _ in range(40):
        frame = capture_frame(0, Pose.identity(), caster, 0.0, spec, rng)
        residuals.append(frame.distances - noiseless.distances)
    residuals = np.concatenate([r.ravel() for r in residuals])
    assert residuals.std() == pytest.approx(0.01, rel=0.15)
    assert abs(residuals.mean()) < 0.002


def cluttered_caster():
    return Bvh(TriangleSet.from_meshes([
        make_uv_sphere(0.3, 12, 24), make_box((1.0, 1.0, 1.0)),
        make_plane_patch(6, 6, 3, 3, center=(0, 0, -0.7))]))


def random_poses(rng, n):
    poses = []
    for _ in range(n):
        q = rng.normal(size=4)
        poses.append(Pose(tuple(q / np.linalg.norm(q)), tuple(rng.uniform(-1.5, 1.5, 3))))
    return stack_poses(poses)


def cast_frames(caster, sensor_ids, times, poses, spec, rngs):
    """capture_frames of the zone rays of a (times, sensors) pose stack."""
    origins, directions = zone_rays(poses, spec)
    dist, idx = caster.raycast_many(origins, directions, spec.max_range)
    return capture_frames(sensor_ids, times, dist, idx >= 0, spec, rngs)


def test_capture_frames_equals_per_sensor_capture_frame():
    # A block of three frame times: each sensor's one noise draw for the
    # block carries the bits of one draw per frame.
    spec = ToFSpec(range_noise_sigma=0.05)
    caster = cluttered_caster()
    times = [0.25, 0.5, 0.75]
    poses = random_poses(np.random.default_rng(5), 3 * 12)
    poses = Pose(poses.rotation.reshape(3, 12, 4), poses.translation.reshape(3, 12, 3))
    ids = list(range(20, 32))
    batch = tof_frames(cast_frames(caster, ids, times, poses, spec,
                                   [np.random.default_rng([3, k]) for k in ids]))
    assert len(batch) == len(times) * len(ids)
    singles = {k: np.random.default_rng([3, k]) for k in ids}
    by_time = [np.random.default_rng([3, k]) for k in ids]
    n_valid = 0
    for j, t in enumerate(times):
        reference = capture_frames_through(caster, ids, poses[j], t, spec, by_time)
        for k, sensor_id in enumerate(ids):
            frame = batch[j * len(ids) + k]
            [single] = tof_frames(capture_frame(sensor_id, poses[j, k], caster, t, spec,
                                                singles[sensor_id]))
            assert frame.sensor_id == sensor_id and frame.timestamp == t
            for other in (single, reference[k]):
                assert np.array_equal(frame.distances, other.distances, equal_nan=True)
                assert np.array_equal(frame.valid, other.valid)
            assert np.array_equal(np.isnan(frame.distances), ~frame.valid)
            n_valid += int(frame.valid.sum())
    assert 0 < n_valid < 64 * len(batch)  # both hits and misses were compared


def test_capture_frames_rays_are_the_zone_rays():
    # Noiseless distances equal brute-force casts of zone_ray's rays bit for
    # bit, so the packet builds each zone ray with zone_ray's arithmetic.
    spec = ToFSpec(range_noise_sigma=0.0)
    caster = cluttered_caster()
    poses = random_poses(np.random.default_rng(6), 6)
    frames = tof_frames(cast_frames(caster, list(range(6)), [0.0], poses[None], spec,
                                    [np.random.default_rng(0)] * 6))
    for pose, frame in zip(poses, frames):
        for i in range(spec.nx):
            for j in range(spec.ny):
                hit = raycast_brute_force(caster.tris, *zone_ray(pose, i, j, spec),
                                          spec.max_range)
                if hit is None:
                    assert not frame.valid[i, j]
                else:
                    assert frame.distances[i, j] == max(hit[0], 1e-6)


def test_capture_frames_needs_one_pose_and_rng_per_sensor():
    spec = ToFSpec()
    dist, hit = np.full(2 * 64, 1.0), np.ones(2 * 64, dtype=bool)
    with pytest.raises(ValueError):
        capture_frames([0, 1], [0.0], dist, hit, spec, [np.random.default_rng(0)])
    with pytest.raises(ValueError):
        capture_frames([0, 1], [0.0, 0.1], dist, hit, spec, [np.random.default_rng(0)] * 2)
    for ids, times in (([], [0.0]), ([0], [])):
        table = capture_frames(ids, times, np.zeros(0), np.zeros(0, dtype=bool), spec,
                               [np.random.default_rng(0)] * len(ids))
        assert len(table) == 0 and table.sensor_ids.dtype == np.int64
        assert table.distances.shape == table.valid.shape == (0, 64)


def test_frame_times_are_strictly_periodic():
    spec = ToFSpec(rate=12.0)
    t = frame_times(1.0, spec)
    assert len(t) == 12
    assert np.allclose(np.diff(t), 1.0 / 12.0, atol=1e-15)
    assert len(frame_times(10.0, spec)) == 120
    assert len(frame_times(0.0, spec)) == 0
    assert len(frame_times(0.01, spec)) == 1

