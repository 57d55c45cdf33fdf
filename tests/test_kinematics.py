import numpy as np
import pytest

from hybridskin.errors import DimensionError, DomainError
from hybridskin.kinematics import (Joint, JointTrajectory, KinematicChain,
                                   Pose, PRISMATIC, Scene, SceneObject,
                                   SensorMount, forward_kinematics, load_chain,
                                   load_trajectory, mount_poses,
                                   quat_from_axis_angle, quat_multiply,
                                   quat_rotate, save_chain, save_trajectory)
from hybridskin.mesh import make_box
from references import (compose_scalar, forward_kinematics_scalar, mount_poses_scalar,
                        pose_at_scalar, pose_matrix, quat_multiply_scalar,
                        quat_rotate_cross, value_at_scalar)


def rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0, 0], [s, c, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def trans(x, y, z):
    m = np.eye(4)
    m[:3, 3] = (x, y, z)
    return m


# ---------------------------------------------------------------------------
# Pose algebra
# ---------------------------------------------------------------------------

def test_pose_requires_unit_quaternion():
    with pytest.raises(ValueError):
        Pose(rotation=(1.0, 1.0, 0.0, 0.0))


def test_pose_compose_matches_matrix_product():
    rng = np.random.default_rng(0)
    for _ in range(50):
        axis_a, axis_b = rng.normal(size=3), rng.normal(size=3)
        pa = Pose.from_axis_angle(axis_a, rng.uniform(-np.pi, np.pi),
                                  translation=rng.normal(size=3))
        pb = Pose.from_axis_angle(axis_b, rng.uniform(-np.pi, np.pi),
                                  translation=rng.normal(size=3))
        assert np.allclose(pose_matrix(pa.compose(pb)),
                           pose_matrix(pa) @ pose_matrix(pb), atol=1e-12)


def test_pose_composition_is_associative():
    rng = np.random.default_rng(1)
    ps = [Pose.from_axis_angle(rng.normal(size=3), rng.uniform(-np.pi, np.pi),
                               translation=rng.normal(size=3)) for _ in range(3)]
    left = ps[0].compose(ps[1]).compose(ps[2])
    right = ps[0].compose(ps[1].compose(ps[2]))
    assert np.allclose(pose_matrix(left), pose_matrix(right), atol=1e-9)


# ---------------------------------------------------------------------------
# forward kinematics
# ---------------------------------------------------------------------------

def planar_two_joint_chain():
    joints = [
        Joint(axis=(0, 0, 1)),
        Joint(axis=(0, 0, 1), origin=Pose(translation=(0.3, 0.0, 0.0))),
    ]
    mount = SensorMount(link_index=2, local=Pose(translation=(0.2, 0.0, 0.0)),
                        site_id=0)
    return KinematicChain(joints=joints, sensor_mounts=[mount])


def test_zero_joints_compose_origins_only():
    chain = planar_two_joint_chain()
    poses = forward_kinematics(chain, [0.0, 0.0])
    assert np.allclose(pose_matrix(poses[0]), np.eye(4))
    assert np.allclose(pose_matrix(poses[1]), np.eye(4))
    assert np.allclose(poses[2].translation, (0.3, 0.0, 0.0))


def test_quarter_turn_maps_x_to_y():
    chain = KinematicChain(joints=[Joint(axis=(0, 0, 1))])
    pose = forward_kinematics(chain, [np.pi / 2])[1]
    assert np.allclose(pose.rotate([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)


def test_two_link_planar_arm_against_matrix_oracle():
    chain = planar_two_joint_chain()
    q = (np.pi / 2, -np.pi / 2)
    # Independent homogeneous-matrix evaluation of the same chain.
    oracle = rot_z(q[0]) @ trans(0.3, 0, 0) @ rot_z(q[1])
    link2 = forward_kinematics(chain, q)[2]
    assert np.allclose(pose_matrix(link2), oracle, atol=1e-12)
    assert np.allclose(link2.translation, (0.0, 0.3, 0.0), atol=1e-12)
    end = oracle @ trans(0.2, 0, 0)
    tip = mount_poses(chain, q, chain.sensor_mounts)[0]
    assert np.allclose(pose_matrix(tip), end, atol=1e-12)
    assert np.allclose(tip.translation, (0.2, 0.3, 0.0), atol=1e-12)


def test_random_configurations_match_matrix_oracle():
    chain = planar_two_joint_chain()
    rng = np.random.default_rng(3)
    for _ in range(25):
        q = rng.uniform(-np.pi, np.pi, size=2)
        oracle = rot_z(q[0]) @ trans(0.3, 0, 0) @ rot_z(q[1]) @ trans(0.2, 0, 0)
        [tip] = mount_poses(chain, q, chain.sensor_mounts)
        assert np.allclose(pose_matrix(tip), oracle, atol=1e-12)


def test_prismatic_joint_translates_along_axis():
    chain = KinematicChain(joints=[Joint(axis=(0, 0, 1), joint_type=PRISMATIC)])
    pose = forward_kinematics(chain, [0.25])[1]
    assert np.allclose(pose.translation, (0.0, 0.0, 0.25))


def test_dimension_mismatch_raises():
    chain = planar_two_joint_chain()
    with pytest.raises(DimensionError):
        forward_kinematics(chain, [0.1])


def test_mount_with_identity_local_equals_link_pose():
    joints = [Joint(axis=(0, 0, 1))]
    chain = KinematicChain(joints=joints,
                           sensor_mounts=[SensorMount(1, Pose.identity(), 0)])
    q = [0.7]
    assert np.allclose(pose_matrix(mount_poses(chain, q, chain.sensor_mounts)[0]),
                       pose_matrix(forward_kinematics(chain, q)[1]))


def test_fk_continuity_bound():
    # Perturbing one revolute joint by eps moves any link origin by <= reach*eps.
    chain = planar_two_joint_chain()
    q = np.array([0.4, -0.9])
    eps = 1e-6
    reach = 0.5
    base = np.asarray(forward_kinematics(chain, q)[2].translation)
    for k in range(2):
        dq = q.copy()
        dq[k] += eps
        moved = np.asarray(forward_kinematics(chain, dq)[2].translation)
        assert np.linalg.norm(moved - base) <= reach * eps * (1 + 1e-6)


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------

def test_trajectory_interpolates_linearly():
    traj = JointTrajectory(times=[0.0, 1.0, 3.0],
                           values=[[0.0, 0.0], [1.0, -1.0], [1.0, 3.0]])
    assert np.allclose(traj.value_at(0.5), [0.5, -0.5])
    assert np.allclose(traj.value_at(2.0), [1.0, 1.0])
    assert np.allclose(traj.value_at(3.0), [1.0, 3.0])


def test_trajectory_rejects_out_of_domain():
    traj = JointTrajectory(times=[0.0, 1.0], values=[[0.0], [1.0]])
    with pytest.raises(DomainError):
        traj.value_at(-0.1)
    with pytest.raises(DomainError):
        traj.value_at(1.1)


def test_trajectory_requires_monotone_times():
    with pytest.raises(ValueError):
        JointTrajectory(times=[0.0, 0.0], values=[[0.0], [1.0]])


def test_trajectory_rejects_non_finite_samples():
    with pytest.raises(ValueError, match="trajectory sample 1"):
        JointTrajectory(times=[0.0, np.nan, 2.0], values=[[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError, match="trajectory sample 2"):
        JointTrajectory(times=[0.0, 1.0, 2.0], values=[[0.0, 0.0], [1.0, 1.0], [2.0, np.inf]])


def test_trajectory_rejects_a_nan_time():
    traj = JointTrajectory(times=[0.0, 1.0], values=[[0.0], [1.0]])
    with pytest.raises(DomainError, match="t=nan"):
        traj.value_at(np.nan)
    with pytest.raises(DomainError, match="t=nan"):
        traj.value_at(np.array([0.5, np.nan, 0.25]))


# ---------------------------------------------------------------------------
# batched kernels against the Pose-by-Pose references, bit for bit
# ---------------------------------------------------------------------------

FR3_DH = [  # modified DH (a, d, alpha) of the Franka FR3
    (0.0, 0.333, 0.0), (0.0, 0.0, -np.pi / 2), (0.0, 0.316, np.pi / 2),
    (0.0825, 0.0, np.pi / 2), (-0.0825, 0.384, -np.pi / 2), (0.0, 0.0, np.pi / 2),
    (0.088, 0.0, np.pi / 2)]


def random_pose(rng):
    q = rng.normal(size=4)
    return Pose(q / np.linalg.norm(q), rng.uniform(-0.2, 0.2, 3))


def random_mounts(rng, n_links, n=12):
    return [SensorMount(int(rng.integers(0, n_links)), random_pose(rng), k)
            for k in range(n)]


def fr3_chain(rng):
    # Each origin is RotX(alpha) TransX(a) TransZ(d); the joint turns about z.
    joints = [Joint(axis=(0, 0, 1), origin=Pose.from_axis_angle(
        (1, 0, 0), alpha, translation=(a, -np.sin(alpha) * d, np.cos(alpha) * d)))
        for a, d, alpha in FR3_DH]
    return KinematicChain(joints=joints, sensor_mounts=random_mounts(rng, 8))


def mixed_chain(rng):
    joints = []
    for k in range(6):
        axis = rng.normal(size=3)
        joints.append(Joint(axis=tuple(axis / np.linalg.norm(axis)),
                            joint_type=PRISMATIC if k % 2 else "REVOLUTE",
                            origin=random_pose(rng)))
    return KinematicChain(joints=joints, sensor_mounts=random_mounts(rng, 7))


def assert_same_bits(pose, references):
    """pose stacks the (rotation, translation) pairs of references bit for bit."""
    assert np.array_equal(pose.rotation, np.reshape([r[0] for r in references],
                                                    pose.rotation.shape))
    assert np.array_equal(pose.translation, np.reshape([r[1] for r in references],
                                                       pose.translation.shape))


@pytest.mark.parametrize("make_chain", [fr3_chain, mixed_chain])
def test_batched_forward_kinematics_matches_the_pose_by_pose_form(make_chain):
    rng = np.random.default_rng(11)
    chain = make_chain(rng)
    q = rng.uniform(-np.pi, np.pi, size=(2000, chain.n_joints))
    reference = [forward_kinematics_scalar(chain, row) for row in q]
    for i, link in enumerate(forward_kinematics(chain, q)):
        assert_same_bits(link, [links[i] for links in reference])

    def mount_reference(k, mounts):
        return [compose_scalar(reference[k][m.link_index], (m.local.rotation, m.local.translation))
                for m in mounts]

    # mounts[k] posed at row k
    paired = [chain.sensor_mounts[k] for k in rng.integers(0, 12, size=len(q))]
    assert_same_bits(mount_poses(chain, q, paired),
                     [mount_reference(k, [m])[0] for k, m in enumerate(paired)])
    # every mount at each row, from one row or from a (rows, 1, n_joints) batch
    every = [pose for k in range(50) for pose in mount_reference(k, chain.sensor_mounts)]
    assert_same_bits(mount_poses(chain, q[0], chain.sensor_mounts), every[:12])
    batch = mount_poses(chain, q[:50, None, :], chain.sensor_mounts)
    assert batch.rotation.shape == (50, 12, 4)
    assert_same_bits(batch, every)
    assert_same_bits(mount_poses(chain, q[7], chain.sensor_mounts[:3]),
                     mount_poses_scalar(chain, q[7], chain.sensor_mounts[:3]))


def test_quaternion_kernels_match_the_scalar_forms():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(2000, 4))
    b = rng.normal(size=(2000, 4))
    v = rng.normal(size=(2000, 3))
    product = quat_multiply(a, b)
    rotated = quat_rotate(a, v)
    for k in range(len(a)):
        assert np.array_equal(product[k], quat_multiply_scalar(a[k], b[k]))
        assert np.array_equal(rotated[k], quat_rotate_cross(a[k], v[k]))


def test_batched_value_at_matches_the_scalar_form_on_knots_and_ends():
    rng = np.random.default_rng(13)
    times = np.cumsum(rng.uniform(0.01, 0.2, size=40))
    traj = JointTrajectory(times=times, values=rng.normal(size=(40, 7)))
    t = np.concatenate([times, rng.uniform(times[0], times[-1], size=500)])
    batch = traj.value_at(t)
    assert batch.shape == (len(t), 7)
    for k, tk in enumerate(t):
        assert np.array_equal(batch[k], value_at_scalar(traj, tk))
        assert np.array_equal(traj.value_at(tk), value_at_scalar(traj, tk))
    one = JointTrajectory(times=[0.5], values=[[1.0, -2.0]])
    assert np.array_equal(one.value_at(0.5), value_at_scalar(one, 0.5))
    assert np.array_equal(one.value_at(np.full((3, 2), 0.5)), np.tile([1.0, -2.0], (3, 2, 1)))
    assert one.value_at(np.zeros(0)).shape == (0, 2)


def random_keyframes(rng, n):
    """n keyframes over random rotations, with near-equal and opposite-sign
    neighbours (both slerp branches, both arcs) and repeated knot times."""
    times = np.cumsum(rng.uniform(0.05, 0.5, size=n))
    times[5::7] = times[4::7][:len(times[5::7])]  # repeated knots
    keyframes = [(float(times[0]), random_pose(rng))]
    for t in times[1:]:
        prev = keyframes[-1][1]
        kind = rng.integers(4)
        if kind == 0:  # within the lerp branch's 1e-12 of the previous rotation
            q = prev.rotation + rng.normal(scale=1e-8, size=4)
            pose = Pose(q / np.linalg.norm(q), rng.uniform(-1, 1, 3))
        elif kind == 1:  # the same rotation with the opposite sign
            pose = Pose(-prev.rotation, rng.uniform(-1, 1, 3))
        else:
            pose = random_pose(rng)
        keyframes.append((float(t), pose))
    return keyframes


def test_batched_pose_at_matches_the_scalar_form_bit_for_bit():
    rng = np.random.default_rng(14)
    mover = SceneObject(mesh=make_box(), keyframes=random_keyframes(rng, 50), name="m")
    knots = np.array([k[0] for k in mover.keyframes])
    t = np.concatenate([knots, rng.uniform(knots[0], knots[-1], size=20_000)])
    batch = mover.pose_at(t)
    assert batch.rotation.shape == (len(t), 4)
    assert_same_bits(batch, [(p.rotation, p.translation)
                             for p in (pose_at_scalar(mover, tk) for tk in t)])
    for tk in (knots[0], knots[-1], t[-1]):  # a single time is the batch shape ()
        single, reference = mover.pose_at(tk), pose_at_scalar(mover, tk)
        assert single.rotation.shape == (4,)
        assert_same_bits(single, [(reference.rotation, reference.translation)])
    one = SceneObject(mesh=make_box(), keyframes=mover.keyframes[:1])
    assert_same_bits(one.pose_at(np.full(3, knots[0])),
                     [(mover.keyframes[0][1].rotation, mover.keyframes[0][1].translation)] * 3)
    with pytest.raises(DomainError):
        mover.pose_at(np.array([knots[0], knots[-1] + 1e-9]))


# ---------------------------------------------------------------------------
# non-finite input is rejected where it enters
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: Pose(rotation=(np.nan, 0.0, 0.0, 0.0)),
    lambda: Pose(translation=(np.inf, 0.0, 0.0)),
    lambda: Pose(rotation=[[1.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0]],
                 translation=np.zeros((2, 3))),
    lambda: Joint(axis=(np.nan, 0.0, 0.0)),
    lambda: Joint(axis=(np.inf, 0.0, 0.0)),
], ids=["nan_rotation", "inf_translation", "nan_in_a_stack", "nan_axis", "inf_axis"])
def test_non_finite_kinematics_input_is_rejected(make):
    with pytest.raises(ValueError):
        make()


# ---------------------------------------------------------------------------
# scene
# ---------------------------------------------------------------------------

def test_static_scene_is_time_invariant():
    scene = Scene(objects=[SceneObject(mesh=make_box((1, 1, 1)))])
    a = scene.at(0.0)[0][0]
    b = scene.at(100.0)[0][0]
    assert np.array_equal(a.vertices, b.vertices)


def test_constant_velocity_mover():
    mover = SceneObject(
        mesh=make_box((0.1, 0.1, 0.1)),
        keyframes=[(0.0, Pose()), (10.0, Pose(translation=(1.0, 0.0, 0.0)))])
    scene = Scene(objects=[mover])
    posed, _ = scene.at(2.0)[0]
    assert np.allclose(posed.vertices, mover.mesh.vertices + [0.2, 0.0, 0.0],
                       atol=1e-12)


def test_rotation_keyframes_slerp_midpoint():
    full = Pose(tuple(quat_from_axis_angle([0, 0, 1], np.pi)))
    mover = SceneObject(mesh=make_box((0.1, 0.1, 0.1)),
                        keyframes=[(0.0, Pose()), (1.0, full)])
    pose = mover.pose_at(0.5)
    expected = quat_from_axis_angle([0, 0, 1], np.pi / 2)
    assert np.allclose(np.abs(np.dot(pose.rotation, expected)), 1.0, atol=1e-9)


def test_mover_outside_keyframes_raises():
    mover = SceneObject(mesh=make_box(), keyframes=[(0.0, Pose()), (1.0, Pose())])
    with pytest.raises(DomainError):
        mover.pose_at(2.0)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_chain_json_round_trip(tmp_path):
    chain = planar_two_joint_chain()
    path = tmp_path / "chain.json"
    save_chain(chain, path)
    loaded = load_chain(path)
    assert loaded.n_joints == 2
    assert loaded.sensor_mounts[0].site_id == 0
    q = [0.3, 0.7]
    [a] = mount_poses(loaded, q, loaded.sensor_mounts)
    [b] = mount_poses(chain, q, chain.sensor_mounts)
    assert np.allclose(pose_matrix(a), pose_matrix(b), atol=1e-15)


def test_trajectory_csv_round_trip(tmp_path):
    traj = JointTrajectory(times=[0.0, 0.5, 1.5], values=[[0.0, 1.0],
                                                          [0.25, 0.5],
                                                          [1.0, -1.0]])
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path)
    assert path.read_text().splitlines()[0] == "t,q1,q2"
    loaded = load_trajectory(path)
    assert np.array_equal(loaded.times, traj.times)
    assert np.array_equal(loaded.values, traj.values)


def test_trajectory_csv_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,1.0\n1.0,2.0\n")
    with pytest.raises(ValueError):
        load_trajectory(path)
