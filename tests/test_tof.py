import numpy as np
import pytest

from hybridskin.kinematics import Pose
from hybridskin.mesh import make_box, make_plane_patch, make_uv_sphere
from hybridskin.raycast import Bvh, TriangleSet
from hybridskin.tof import (ToFFrame, ToFSpec, capture_frame,
                            capture_frames, frame_times, zone_angles,
                            zone_direction_local)
from references import raycast_brute_force, stack_poses, zone_ray


def wall_caster(z=2.0, size=20.0):
    wall = make_plane_patch(size, size, 2, 2, center=(0, 0, z))
    return Bvh(TriangleSet.from_meshes([wall]))


def test_single_zone_grid_fires_along_boresight():
    spec = ToFSpec(nx=1, ny=1)
    ray = zone_ray(Pose.identity(), 0, 0, spec)
    assert np.allclose(ray.direction, (0, 0, 1), atol=1e-15)


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


def test_zone_index_out_of_range():
    spec = ToFSpec()
    with pytest.raises(IndexError):
        zone_angles(8, 0, spec)
    with pytest.raises(IndexError):
        zone_angles(0, -1, spec)


def test_zone_ray_rotates_with_sensor_pose():
    spec = ToFSpec()
    pose = Pose.from_axis_angle([0, 1, 0], np.pi / 2, translation=(1, 2, 3))
    ray = zone_ray(pose, 3, 3, spec)
    assert ray.origin == (1.0, 2.0, 3.0)
    local = zone_direction_local(3, 3, spec)
    assert np.allclose(ray.direction, pose.rotate(local), atol=1e-12)


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
    assert frame.valid.all()
    for i in range(8):
        for j in range(8):
            tx, ty = zone_angles(i, j, spec)
            expected = 2.0 * np.sqrt(1 + np.tan(tx) ** 2 + np.tan(ty) ** 2)
            assert frame.distances[i, j] == pytest.approx(expected, abs=1e-12)


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


def test_capture_frames_equals_per_sensor_capture_frame():
    spec = ToFSpec(range_noise_sigma=0.05)
    caster = cluttered_caster()
    poses = random_poses(np.random.default_rng(5), 12)
    ids = list(range(20, 32))
    batch = capture_frames(ids, poses, caster, 0.25, spec,
                           [np.random.default_rng([3, k]) for k in ids])
    assert len(batch) == len(ids)
    n_valid = 0
    for k, frame in zip(ids, batch):
        single = capture_frame(k, poses[k - 20], caster, 0.25, spec,
                               np.random.default_rng([3, k]))
        assert frame.sensor_id == k and frame.timestamp == 0.25
        assert np.array_equal(frame.distances, single.distances, equal_nan=True)
        assert np.array_equal(np.isnan(frame.distances), ~frame.valid)
        assert np.array_equal(frame.valid, single.valid)
        n_valid += int(frame.valid.sum())
    assert 0 < n_valid < 64 * len(ids)  # both hits and misses were compared


def test_capture_frames_rays_are_the_zone_rays():
    # Noiseless distances equal brute-force casts of zone_ray's rays bit for
    # bit, so the packet builds each zone ray with zone_ray's arithmetic.
    spec = ToFSpec(range_noise_sigma=0.0)
    caster = cluttered_caster()
    poses = random_poses(np.random.default_rng(6), 6)
    frames = capture_frames(list(range(6)), poses, caster, 0.0, spec,
                            [np.random.default_rng(0)] * 6)
    for pose, frame in zip(poses, frames):
        for i in range(spec.nx):
            for j in range(spec.ny):
                hit = raycast_brute_force(caster.tris, zone_ray(pose, i, j, spec),
                                          spec.max_range)
                if hit is None:
                    assert not frame.valid[i, j]
                else:
                    assert frame.distances[i, j] == max(hit[0], 1e-6)


def test_capture_frames_needs_one_pose_and_rng_per_sensor():
    spec = ToFSpec()
    with pytest.raises(ValueError):
        capture_frames([0, 1], stack_poses([Pose.identity()]), wall_caster(), 0.0, spec,
                       [np.random.default_rng(0)] * 2)
    assert capture_frames([], stack_poses([]), wall_caster(), 0.0, spec, []) == []


def test_frame_times_are_strictly_periodic():
    spec = ToFSpec(rate=12.0)
    t = frame_times(1.0, spec)
    assert len(t) == 12
    assert np.allclose(np.diff(t), 1.0 / 12.0, atol=1e-15)
    assert len(frame_times(10.0, spec)) == 120
    assert len(frame_times(0.0, spec)) == 0
    assert len(frame_times(0.01, spec)) == 1


def test_frame_validation_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        ToFFrame(0, 0.0, np.zeros((8, 8)), np.zeros((4, 4), dtype=bool))
