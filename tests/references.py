"""Reference implementations that only the tests call.

Each is the plain, one-at-a-time form of something the library does in a
batched or vectorized way, or a fixture writer the library has no use for.
Tests import them as `from references import ...`.
"""

import math
from pathlib import Path

import numpy as np

from hybridskin.kinematics import Pose, quat_to_matrix
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
