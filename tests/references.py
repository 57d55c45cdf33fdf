"""Reference implementations that only the tests call.

Each is the plain, one-at-a-time form of something the library does in a
batched or vectorized way, or a fixture writer the library has no use for.
Tests import them as `from references import ...`.
"""

import math
from pathlib import Path

import numpy as np

from hybridskin.errors import DimensionError, DomainError
from hybridskin.kinematics import REVOLUTE, Pose, quat_to_matrix
from hybridskin.raycast import Ray, TriangleSet, _intersect_rows
from hybridskin.tof import ToFSpec, zone_direction_local


def raycast_brute_force(tris: TriangleSet, ray: Ray, max_range=np.inf):
    """Nearest hit over all triangles: (distance, triangle_index) or None.

    Runs the same row-wise kernel as Bvh.raycast_many over every triangle,
    so the accelerated result must match it bit for bit.
    """
    if tris.n_triangles == 0:
        return None
    o = np.asarray(ray.origin)[None, :]
    d = np.asarray(ray.direction)[None, :]
    t = _intersect_rows(o, d, tris.v0, tris.e1, tris.e2)
    idx = int(np.argmin(t))  # argmin takes the lowest index on ties
    if not np.isfinite(t[idx]) or t[idx] > max_range:
        return None
    return float(t[idx]), idx


def zone_ray(sensor_pose: Pose, i: int, j: int, spec: ToFSpec) -> Ray:
    """World ray of zone (i, j); tof.zone_rays must give the same bits."""
    d = sensor_pose.rotate(zone_direction_local(i, j, spec))
    d = d / np.linalg.norm(d)
    return Ray(origin=sensor_pose.translation, direction=tuple(d))


def save_stl_ascii(mesh, path, name="hybridskin"):
    """ASCII STL writer, the fixture for the ASCII reader."""
    tris = mesh.triangles()
    normals = mesh.face_normals()
    lines = [f"solid {name}"]
    for i in range(mesh.n_faces):
        n = normals[i]
        lines.append(f"  facet normal {n[0]:.9e} {n[1]:.9e} {n[2]:.9e}")
        lines.append("    outer loop")
        for v in tris[i]:
            lines.append(f"      vertex {v[0]:.9e} {v[1]:.9e} {v[2]:.9e}")
        lines.append("    endloop")
        lines.append("  endfacet")
    lines.append(f"endsolid {name}")
    Path(path).write_text("\n".join(lines) + "\n")


def sphere_tessellation_for_chord_error(radius, tol):
    """(n_lat, n_lon) so a UV sphere's chordal error stays below tol."""
    # chord sagitta for angular step t is r*(1 - cos(t/2))
    t = 2.0 * math.acos(max(0.0, 1.0 - tol / radius))
    n_lat = max(4, int(math.ceil(math.pi / t)))
    n_lon = max(8, int(math.ceil(2.0 * math.pi / t)))
    return n_lat, n_lon


def pose_matrix(pose: Pose):
    """4x4 homogeneous matrix of a pose."""
    m = np.eye(4)
    m[:3, :3] = quat_to_matrix(pose.rotation)
    m[:3, 3] = pose.translation
    return m


def stack_poses(poses):
    """One Pose stacking single poses, the form capture_frames takes."""
    return Pose(np.array([p.rotation for p in poses]).reshape(-1, 4),
                np.array([p.translation for p in poses]).reshape(-1, 3))


# ---------------------------------------------------------------------------
# Pose-by-Pose kinematics: the bit references of the batched kernels
# ---------------------------------------------------------------------------

def quat_multiply_scalar(a, b):
    """Hamilton product of two single quaternions, one float at a time."""
    aw, ax, ay, az = (float(c) for c in a)
    bw, bx, by, bz = (float(c) for c in b)
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_rotate_cross(q, v):
    """v rotated by a single quaternion q through np.cross."""
    w, x, y, z = (float(c) for c in q)
    qv = np.array([x, y, z])
    v = np.asarray(v, dtype=np.float64)
    t = 2.0 * np.cross(qv, v)
    return v + w * t + np.cross(qv, t)


def compose_scalar(a, b):
    """(rotation, translation) of a o b for single poses a, b as (q, t) pairs."""
    q = quat_multiply_scalar(a[0], b[0])
    q = q / np.linalg.norm(q)
    return q, quat_rotate_cross(a[0], b[1]) + np.asarray(a[1], dtype=np.float64)


def joint_motion_scalar(joint, qi):
    """(rotation, translation) of one joint's motion for one joint value."""
    axis = np.asarray(joint.axis, dtype=np.float64)
    if joint.joint_type != REVOLUTE:
        return np.array([1.0, 0.0, 0.0, 0.0]), qi * axis
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * qi
    q = np.concatenate([[math.cos(half)], math.sin(half) * axis])
    return q / np.linalg.norm(q), np.zeros(3)


def forward_kinematics_scalar(chain, q):
    """(rotation, translation) of every link for one joint vector, Pose by Pose."""
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    if q.shape[0] != chain.n_joints:
        raise DimensionError(f"got {q.shape[0]} joint values for {chain.n_joints} joints")
    poses = [(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))]
    for joint, qi in zip(chain.joints, q):
        origin = (joint.origin.rotation, joint.origin.translation)
        poses.append(compose_scalar(compose_scalar(poses[-1], origin),
                                    joint_motion_scalar(joint, qi)))
    return poses


def mount_poses_scalar(chain, q, mounts):
    """(rotation, translation) of each mount for one joint vector."""
    links = forward_kinematics_scalar(chain, q)
    return [compose_scalar(links[m.link_index], (m.local.rotation, m.local.translation))
            for m in mounts]


def value_at_scalar(traj, t):
    """Joint values of a trajectory at one time t."""
    times = traj.times
    if t < times[0] or t > times[-1]:
        raise DomainError(f"t={t} outside trajectory domain [{times[0]}, {times[-1]}]")
    if len(times) == 1:
        return traj.values[0].copy()
    i = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0), len(times) - 2)
    u = (t - times[i]) / (times[i + 1] - times[i])
    return (1.0 - u) * traj.values[i] + u * traj.values[i + 1]
