import numpy as np
import pytest

from hybridskin.errors import DimensionError, DomainError
from hybridskin.kinematics import (Joint, JointTrajectory, KinematicChain,
                                   Pose, PRISMATIC, Scene, SceneObject,
                                   SensorMount, forward_kinematics, load_chain,
                                   load_trajectory, mount_poses,
                                   quat_from_axis_angle, save_chain,
                                   save_trajectory)
from hybridskin.mesh import make_box


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
        assert np.allclose(pa.compose(pb).matrix(), pa.matrix() @ pb.matrix(),
                           atol=1e-12)


def test_pose_composition_is_associative():
    rng = np.random.default_rng(1)
    ps = [Pose.from_axis_angle(rng.normal(size=3), rng.uniform(-np.pi, np.pi),
                               translation=rng.normal(size=3)) for _ in range(3)]
    left = ps[0].compose(ps[1]).compose(ps[2])
    right = ps[0].compose(ps[1].compose(ps[2]))
    assert np.allclose(left.matrix(), right.matrix(), atol=1e-9)


def test_pose_inverse_gives_identity():
    p = Pose.from_axis_angle([0.3, -1.0, 0.4], 1.234, translation=(0.5, -0.2, 1.0))
    ident = p.compose(p.inverse())
    assert np.allclose(ident.matrix(), np.eye(4), atol=1e-9)


def test_pose_apply_rotates_and_translates():
    p = Pose.from_axis_angle([0, 0, 1], np.pi / 2, translation=(1.0, 0.0, 0.0))
    assert np.allclose(p.apply([1.0, 0.0, 0.0]), [1.0, 1.0, 0.0], atol=1e-12)


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
    assert np.allclose(poses[0].matrix(), np.eye(4))
    assert np.allclose(poses[1].matrix(), np.eye(4))
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
    assert np.allclose(link2.matrix(), oracle, atol=1e-12)
    assert np.allclose(link2.translation, (0.0, 0.3, 0.0), atol=1e-12)
    end = oracle @ trans(0.2, 0, 0)
    tip = mount_poses(chain, q, chain.sensor_mounts)[0]
    assert np.allclose(tip.matrix(), end, atol=1e-12)
    assert np.allclose(tip.translation, (0.2, 0.3, 0.0), atol=1e-12)


def test_random_configurations_match_matrix_oracle():
    chain = planar_two_joint_chain()
    rng = np.random.default_rng(3)
    for _ in range(25):
        q = rng.uniform(-np.pi, np.pi, size=2)
        oracle = rot_z(q[0]) @ trans(0.3, 0, 0) @ rot_z(q[1]) @ trans(0.2, 0, 0)
        [tip] = mount_poses(chain, q, chain.sensor_mounts)
        assert np.allclose(tip.matrix(), oracle, atol=1e-12)


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
    assert np.allclose(mount_poses(chain, q, chain.sensor_mounts)[0].matrix(),
                       forward_kinematics(chain, q)[1].matrix())


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
    assert np.allclose(a.matrix(), b.matrix(), atol=1e-15)


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
