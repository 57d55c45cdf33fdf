"""Reference implementations that only the tests call.

Each is the plain, one-at-a-time form of something the library does in a
batched or vectorized way, or a fixture writer the library has no use for.
Tests import them as `from references import ...`.
"""

import functools
import itertools
import json
import math
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from hybridskin import analysis
from hybridskin.errors import DimensionError, DomainError, UnknownSensorError
from hybridskin.analysis import PointCloud
from hybridskin.kinematics import (REVOLUTE, Pose, _quat_normalize, mount_poses,
                                   quat_to_matrix)
from hybridskin.logs import ToFTable
from hybridskin.mesh import (DEGENERATE_AREA, Finding, Material, TriMesh,
                             ValidationReport)
from hybridskin.raycast import Bvh, TriangleSet, _intersect_rows, point_mesh_distance
from hybridskin.sc import expected_counts
from hybridskin.tof import NO_TARGET, ToFSpec, zone_rays


@dataclass(frozen=True)
class ScSample:
    """One SC record."""
    site_id: int
    timestamp: float
    counts: int

    def __post_init__(self):
        if self.counts < 0:
            raise ValueError("counts must be >= 0")


@dataclass
class ToFFrame:
    """One ToF record: a sensor's (nx, ny) zone grid at one time."""
    sensor_id: int
    timestamp: float
    distances: np.ndarray  # (nx, ny), NaN where no target
    valid: np.ndarray      # (nx, ny) bool

    def __post_init__(self):
        self.distances = np.asarray(self.distances, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.distances.shape != self.valid.shape:
            raise ValueError("distances and valid grids must have the same shape")


def raycast_brute_force(tris: TriangleSet, origin, direction, max_range=np.inf):
    """Nearest hit of one ray over all triangles: (distance, triangle_index)
    or None, for a unit direction.

    Runs the same row-wise kernel as Bvh.raycast_many over every triangle,
    so the accelerated result must match it bit for bit.
    """
    if tris.n_triangles == 0:
        return None
    o = np.asarray(origin, dtype=np.float64)[None, :]
    d = np.asarray(direction, dtype=np.float64)[None, :]
    t = _intersect_rows(o, d, tris.v0, tris.e1, tris.e2)
    idx = int(np.argmin(t))  # argmin takes the lowest index on ties
    if not np.isfinite(t[idx]) or t[idx] > max_range:
        return None
    return float(t[idx]), idx


def zone_angles(i: int, j: int, spec: ToFSpec):
    """Boresight-relative angles (radians) of zone (i, j)."""
    theta_x = ((i + 0.5) / spec.nx - 0.5) * math.radians(spec.fov_x)
    theta_y = ((j + 0.5) / spec.ny - 0.5) * math.radians(spec.fov_y)
    return theta_x, theta_y


def zone_direction_local(i: int, j: int, spec: ToFSpec):
    """Unit ray direction of zone (i, j) in the sensor frame (boresight = +z);
    row i*ny + j of tof._local_zone_directions must have the same bits."""
    theta_x, theta_y = zone_angles(i, j, spec)
    d = np.array([math.tan(theta_x), math.tan(theta_y), 1.0])
    return d / np.linalg.norm(d)


def zone_ray(sensor_pose: Pose, i: int, j: int, spec: ToFSpec):
    """World (origin, direction) of zone (i, j); tof.zone_rays must give the
    same bits."""
    d = sensor_pose.rotate(zone_direction_local(i, j, spec))
    d = d / np.linalg.norm(d)
    return tuple(sensor_pose.translation.tolist()), tuple(d.tolist())


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
    """One Pose stacking single poses, the form zone_rays takes."""
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


def quat_slerp_scalar(qa, qb, u):
    """Slerp of two single quaternions by a float u, through math."""
    qa = np.asarray(qa, dtype=np.float64)
    qb = np.asarray(qb, dtype=np.float64)
    dot = float(np.dot(qa, qb))
    if dot < 0.0:  # take the short arc
        qb = -qb
        dot = -dot
    if dot > 1.0 - 1e-12:
        return _quat_normalize(qa + u * (qb - qa))
    theta = math.acos(min(1.0, dot))
    s = math.sin(theta)
    return (math.sin((1.0 - u) * theta) / s) * qa + (math.sin(u * theta) / s) * qb


def interpolate_pose_scalar(pa: Pose, pb: Pose, u: float) -> Pose:
    """Linear translation + slerp rotation between two single poses."""
    q = _quat_normalize(quat_slerp_scalar(pa.rotation, pb.rotation, u))
    t = (1.0 - u) * pa.translation + u * pb.translation
    return Pose(q, t)


def pose_at_scalar(obj, t: float) -> Pose:
    """A scene object's pose at one time t, keyframe pair by keyframe pair."""
    if not obj.keyframes:
        return Pose.identity()
    times = [k[0] for k in obj.keyframes]
    if not times[0] <= t <= times[-1]:
        raise DomainError(f"t={t} outside keyframe domain of scene object {obj.name!r}")
    if len(times) == 1:
        return obj.keyframes[0][1]
    i = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0), len(times) - 2)
    t0, t1 = times[i], times[i + 1]
    u = (t - t0) / (t1 - t0) if t1 > t0 else t - t0  # equal knots: t == t0, u = 0
    return interpolate_pose_scalar(obj.keyframes[i][1], obj.keyframes[i + 1][1], u)


# ---------------------------------------------------------------------------
# Sample-by-sample SC stream: the bit references of simulate's batched pass
# ---------------------------------------------------------------------------

def conductive_distance_scalar(scene, t: float, point):
    """Distance from one point to the nearest conductive surface at time t
    (None if there is none), from one merged set of the posed meshes."""
    meshes = []
    for obj in scene.objects:
        if not obj.conductive:
            continue
        if obj.keyframes:
            pose = pose_at_scalar(obj, t)
            vertices = obj.mesh.vertices @ quat_to_matrix(pose.rotation).T + pose.translation
            meshes.append(TriMesh(vertices, obj.mesh.faces, obj.mesh.face_material))
        else:
            meshes.append(obj.mesh)
    if not meshes:
        return None
    return float(point_mesh_distance([point], TriangleSet.from_meshes(meshes))[0])


def capacitance_scalar(model, object_distance=None, delta=0.0) -> float:
    """Capacitance of one electrode with its covering compressed by delta,
    given the nearest conductive object's distance; None (no conductive
    object) leaves the baseline C0. sc.contact_capacitance derives delta
    from the distance instead."""
    if not 0.0 <= delta <= model.delta_max:
        raise ValueError(f"compression {delta} outside [0, {model.delta_max}]")
    if object_distance is None:
        return model.c0
    if object_distance < 0.0:
        raise ValueError("object distance must be >= 0")
    return model.c0 + model.k / (max(object_distance, model.t_cov - delta) + model.d0)


def expected_counts_scalar(c: float, spec) -> int:
    """Noise-free count of one capacitance."""
    return int(expected_counts([c], spec)[0])


def measure_counts_scalar(c: float, spec, tof_active: bool, rng) -> int:
    """One count measurement from a size-1 normal draw."""
    base = expected_counts_scalar(c, spec)
    sigma = spec.sigma(tof_active)
    if sigma == 0.0:
        return max(base, 0)
    return max(int(np.rint(base + rng.normal(0.0, sigma, size=1))[0]), 0)


# ---------------------------------------------------------------------------
# Frame-time-by-frame-time ToF stream: the bit reference of simulate's
# two-level cast
# ---------------------------------------------------------------------------

def capture_frames_through(bvh, sensor_ids, poses: Pose, t: float, spec: ToFSpec, rngs):
    """One frame per sensor at time t, the zone rays cast through bvh as one
    packet; poses stacks one pose per sensor. Each sensor draws one (nx, ny)
    noise grid per frame."""
    shape = (spec.nx, spec.ny)
    noise = [rng.normal(0.0, spec.range_noise_sigma, size=shape)
             if spec.range_noise_sigma > 0.0 else np.zeros(shape) for rng in rngs]
    origins, directions = zone_rays(poses, spec)
    dist, idx = bvh.raycast_many(origins, directions, spec.max_range)
    dist = dist.reshape((-1,) + shape)
    valid = idx.reshape((-1,) + shape) >= 0
    frames = []
    for k, sensor_id in enumerate(sensor_ids):
        d = np.minimum(np.maximum(dist[k] + noise[k], 1e-6), spec.max_range)
        frames.append(ToFFrame(sensor_id=sensor_id, timestamp=float(t),
                               distances=np.where(valid[k], d, NO_TARGET), valid=valid[k]))
    return frames


def tof_frames_merged(scene, sensor_ids, times, poses: Pose, spec: ToFSpec, rngs):
    """Every sensor's frame at every time, one Bvh over the whole posed scene
    per frame time; poses is (times, sensors)."""
    frames = []
    for j, t in enumerate(np.asarray(times).tolist()):
        bvh = Bvh(TriangleSet.from_meshes([m for m, _ in scene.at(t)]))
        frames += capture_frames_through(bvh, sensor_ids, poses[j], t, spec, rngs)
    return frames


# ---------------------------------------------------------------------------
# Run-by-run reconstruction and point-by-point PLY: the bit references of
# analysis.reconstruct's ray blocks and save_ply's one-array write
# ---------------------------------------------------------------------------

def reconstruct_by_runs(frames, chain, trajectory, spec: ToFSpec) -> PointCloud:
    """One zone_rays call per run of frames that share a timestamp."""
    by_site = {m.site_id: m for m in chain.sensor_mounts}
    runs = [list(run) for _, run in itertools.groupby(frames, key=lambda f: f.timestamp)]
    if not runs:
        return PointCloud(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), np.zeros(0))
    q = trajectory.value_at(np.array([run[0].timestamp for run in runs]))
    poses = mount_poses(chain, np.repeat(q, [len(run) for run in runs], axis=0),
                        [by_site[f.sensor_id] for f in frames])
    n_zones = spec.nx * spec.ny
    points, ids, times = [], [], []
    start = 0
    for run in runs:
        origins, directions = zone_rays(poses[start:start + len(run)], spec)
        start += len(run)
        d = np.concatenate([f.distances.reshape(-1) for f in run])
        valid = np.concatenate([f.valid.reshape(-1) for f in run])
        points.append(origins[valid] + d[valid, None] * directions[valid])
        ids.append(np.repeat([f.sensor_id for f in run], n_zones)[valid])
        times.append(np.repeat([f.timestamp for f in run], n_zones)[valid])
    return PointCloud(np.concatenate(points), np.concatenate(ids), np.concatenate(times))


def reconstruct_frames(frames, chain, trajectory, spec: ToFSpec) -> PointCloud:
    """analysis.reconstruct over a list of ToFFrames, grouping runs with
    itertools.groupby and concatenating each block's frames."""
    frames = list(frames)
    by_site = {m.site_id: m for m in chain.sensor_mounts}
    runs = [list(run) for _, run in itertools.groupby(frames, key=lambda f: f.timestamp)]
    unknown = next(((k, j) for k, run in enumerate(runs) for j, f in enumerate(run)
                    if f.sensor_id not in by_site), None)
    checked = len(runs) if unknown is None else unknown[0] + (unknown[1] > 0)
    q = trajectory.value_at(np.array([run[0].timestamp for run in runs[:checked]]))
    if unknown is not None:
        k, j = unknown
        raise UnknownSensorError(f"no mount for sensor id {runs[k][j].sensor_id}")
    if not runs:
        return PointCloud(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), np.zeros(0))
    poses = mount_poses(chain, np.repeat(q, [len(run) for run in runs], axis=0),
                        [by_site[f.sensor_id] for f in frames])
    n_zones = spec.nx * spec.ny
    odd = next((f for f in frames if f.valid.size != n_zones), None)
    if odd is not None:
        raise ValueError(f"frame of sensor {odd.sensor_id} at t={odd.timestamp} has "
                         f"{odd.valid.size} zones, the spec has {n_zones}")
    valid = np.concatenate([f.valid.reshape(-1) for f in frames])
    counts = valid.reshape(len(frames), n_zones).sum(axis=1)
    points = np.empty((int(counts.sum()), 3))
    step = max(1, analysis._RAY_BLOCK // n_zones)
    row = 0
    for start in range(0, len(frames), step):
        origins, directions = zone_rays(poses[start:start + step], spec)
        d = np.concatenate([f.distances.reshape(-1) for f in frames[start:start + step]])
        v = valid[start * n_zones:(start + step) * n_zones]
        n = np.count_nonzero(v)
        points[row:row + n] = origins[v] + d[v, None] * directions[v]
        row += n
    return PointCloud(points, np.repeat([f.sensor_id for f in frames], counts),
                      np.repeat([f.timestamp for f in frames], counts))


def tof_frames(table: ToFTable, nx=8, ny=8) -> list:
    """One ToFFrame per row of a ToFTable of an nx x ny zone grid."""
    return [ToFFrame(sensor_id, t, d.reshape(nx, ny), v.reshape(nx, ny))
            for sensor_id, t, d, v in zip(table.sensor_ids.tolist(), table.times.tolist(),
                                          table.distances, table.valid)]


def stacked(tables) -> ToFTable:
    """The rows of a list of ToFTables, in order, as one ToFTable."""
    return ToFTable(*(np.concatenate([getattr(t, f.name) for t in tables])
                      for f in fields(ToFTable)))


def tof_table(frames) -> ToFTable:
    """The ToFTable of a list of ToFFrames of one zone grid."""
    frames = list(frames)
    n_zones = frames[0].valid.size if frames else 64
    return ToFTable(np.array([f.sensor_id for f in frames], dtype=np.int64),
                    np.array([f.timestamp for f in frames], dtype=np.float64),
                    np.array([f.distances.reshape(-1) for f in frames],
                             dtype=np.float64).reshape(-1, n_zones),
                    np.array([f.valid.reshape(-1) for f in frames],
                             dtype=bool).reshape(-1, n_zones))


# ---------------------------------------------------------------------------
# Record-by-record log writing: the bit reference of logs.log_lines
# ---------------------------------------------------------------------------

def sc_record(sample: ScSample) -> dict:
    return {"type": "sc", "site_id": int(sample.site_id),
            "t": float(sample.timestamp), "counts": int(sample.counts)}


def tof_record(frame: ToFFrame) -> dict:
    flat_d = frame.distances.reshape(-1)
    flat_v = frame.valid.reshape(-1)
    return {
        "type": "tof",
        "sensor_id": int(frame.sensor_id),
        "t": float(frame.timestamp),
        "d": [float(d) if v else None for d, v in zip(flat_d, flat_v)],
        "valid": [bool(v) for v in flat_v],
    }


def _merge_key(record):
    stream = 0 if record["type"] == "sc" else 1
    rid = record.get("site_id", record.get("sensor_id", 0))
    return (record["t"], stream, rid)


def merge_records(records) -> list:
    """Chronological order with the stable sc-before-tof tie break."""
    return sorted(records, key=_merge_key)


def encode_record(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


# ---------------------------------------------------------------------------
# Record-by-record log decoding: the bit references of the table decoders
# ---------------------------------------------------------------------------

def read_records(path) -> list:
    """One json.loads record per line; a blank line reads as an empty
    record, which neither stream takes."""
    records = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            records.append(json.loads(line) if line else {})
    return records


# What a decoder raises on a record that is not an object or lacks a field
# or a value of the field's type.
_MALFORMED = (AttributeError, KeyError, TypeError, ValueError)


def _names_bad_lines(decode):
    """decode, raising a ValueError that names the first line it rejects,
    found by decoding each record alone after the whole list has failed."""
    @functools.wraps(decode)
    def decoded(records, *args, **kwargs):
        try:
            return decode(records, *args, **kwargs)
        except _MALFORMED as exc:
            error = exc
        for line, record in enumerate(records, 1):
            try:
                decode([record], *args, **kwargs)
            except _MALFORMED as exc:
                if not isinstance(record, dict):
                    reason = "not a JSON object"
                elif isinstance(exc, KeyError):
                    reason = f"no {exc.args[0]!r} field"
                else:
                    reason = str(exc)
                raise ValueError(f"log line {line}: {reason}") from None
        raise error
    return decoded


@_names_bad_lines
def sc_samples_by_record(records) -> list:
    """One ScSample per SC record of read_records' list."""
    return [ScSample(site_id=r["site_id"], timestamp=float(r["t"]), counts=r["counts"])
            for r in records if r.get("type") == "sc"]


@_names_bad_lines
def tof_frames_by_record(records, nx=8, ny=8) -> list:
    """One ToFFrame per ToF record of read_records' list."""
    frames = []
    for r in records:
        if r.get("type") != "tof":
            continue
        d = np.array([math.nan if x is None else float(x) for x in r["d"]])
        v = np.array([bool(x) for x in r["valid"]])
        if d.size != nx * ny:
            raise ValueError(f"tof record has {d.size} zones, expected {nx * ny}")
        frames.append(ToFFrame(sensor_id=r["sensor_id"], timestamp=float(r["t"]),
                               distances=d.reshape(nx, ny),
                               valid=v.reshape(nx, ny)))
    return frames


def state_at_scalar(label, t):
    """The state of one time: the first interval with t0 <= t < t1, else None."""
    for t0, t1, state in label.intervals:
        if t0 <= t < t1:
            return state
    return None


def ply_binary_body_struct(cloud: PointCloud) -> bytes:
    """The binary PLY vertex records, one struct.pack per point."""
    return b"".join(struct.pack("<fffIf", p[0], p[1], p[2], int(sid), t)
                    for p, sid, t in zip(cloud.points, cloud.sensor_ids, cloud.timestamps))


# ---------------------------------------------------------------------------
# Per-face, per-line and per-support forms: the bit references of generate's
# one-shot writers, windowed support placement, templated parts and
# vectorized winding check
# ---------------------------------------------------------------------------

def capsule_mesh(radius, length, n_seg, n_cap, n_len) -> TriMesh:
    """Closed capsule along z, centred at the origin, outward winding.

    A cylinder of the given length capped by hemispheres of n_cap rings,
    with n_seg segments around and n_len rings along the body.
    """
    half = 0.5 * length
    profile = [(half + radius * math.cos(th), radius * math.sin(th))
               for th in (0.5 * math.pi * i / n_cap for i in range(1, n_cap + 1))]
    profile += [(half - length * k / n_len, radius) for k in range(1, n_len + 1)]
    profile += [(-half + radius * math.cos(th), radius * math.sin(th))
                for th in (0.5 * math.pi * (1 + i / n_cap) for i in range(1, n_cap))]
    verts = [[0.0, 0.0, half + radius]]
    for z, rho in profile:
        verts += [[rho * math.cos(2.0 * math.pi * j / n_seg),
                   rho * math.sin(2.0 * math.pi * j / n_seg), z] for j in range(n_seg)]
    verts.append([0.0, 0.0, -half - radius])
    bottom = len(verts) - 1
    ring = lambda r, j: 1 + r * n_seg + j % n_seg
    faces = [[0, ring(0, j), ring(0, j + 1)] for j in range(n_seg)]
    for r in range(len(profile) - 1):
        for j in range(n_seg):
            faces.append([ring(r, j), ring(r + 1, j), ring(r + 1, j + 1)])
            faces.append([ring(r, j), ring(r + 1, j + 1), ring(r, j + 1)])
    last = len(profile) - 1
    faces += [[bottom, ring(last, j + 1), ring(last, j)] for j in range(n_seg)]
    return TriMesh.from_arrays(verts, faces)


def save_stl_by_face(mesh, path):
    """Binary STL, one 50-byte record appended per face."""
    tris = mesh.triangles().astype("<f4")
    normals = mesh.face_normals().astype("<f4")
    out = bytearray()
    header = b"hybridskin binary stl"
    out += header + b"\0" * (80 - len(header))
    out += struct.pack("<I", mesh.n_faces)
    for i in range(mesh.n_faces):
        out += normals[i].tobytes()
        out += tris[i].tobytes()
        out += b"\0\0"
    Path(path).write_bytes(bytes(out))


def save_stl_per_material_by_face(mesh, base_path):
    """One save_stl_by_face file per material, on a copy of the vertices."""
    base = Path(base_path)
    written = {}
    for mat in Material:
        sel = mesh.face_material == int(mat)
        if not np.any(sel):
            continue
        sub = TriMesh(mesh.vertices.copy(), mesh.faces[sel], mesh.face_material[sel])
        path = base.with_name(base.stem + mat.suffix + ".stl")
        save_stl_by_face(sub, path)
        written[mat] = path
    return written


def save_obj_by_line(mesh, path):
    """OBJ with material groups, one f-string per vertex and per face."""
    lines = ["# hybridskin OBJ export"]
    for v in mesh.vertices:
        lines.append(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}")
    for mat in Material:
        sel = mesh.face_material == int(mat)
        if not np.any(sel):
            continue
        lines.append(f"g {mat.name.lower()}")
        lines.append(f"usemtl {mat.name.lower()}")
        for f in mesh.faces[sel]:
            lines.append(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}")
    Path(path).write_text("\n".join(lines) + "\n")


def greedy_grid_hash(pos, blocked, spacing):
    """Greedy dart throwing over a grid hash: the accepted indices, in order.

    A conflict closer than `spacing` can only sit in the same or an
    adjacent cell of size `spacing`.
    """
    spacing_sq = spacing * spacing
    inv_cell = 1.0 / spacing
    grid = {}
    accepted = []
    for c, (x, y, z) in enumerate(pos.tolist()):
        if blocked[c]:
            continue
        ix = math.floor(x * inv_cell)
        iy = math.floor(y * inv_cell)
        iz = math.floor(z * inv_cell)
        near = (p for cell in itertools.product((ix - 1, ix, ix + 1), (iy - 1, iy, iy + 1),
                                                (iz - 1, iz, iz + 1))
                for p in grid.get(cell, ()))
        if any((x - px) ** 2 + (y - py) ** 2 + (z - pz) ** 2 < spacing_sq
               for px, py, pz in near):
            continue
        grid.setdefault((ix, iy, iz), []).append((x, y, z))
        accepted.append(c)
    return accepted


def tangent_frame_scalar(normal):
    """Orthonormal (t1, t2) completing one unit normal."""
    n = np.asarray(normal, dtype=np.float64)
    ref = np.array([1.0, 0.0, 0.0]) if abs(n[0]) <= 0.9 else np.array([0.0, 1.0, 0.0])
    t1 = np.cross(n, ref)
    t1 = t1 / np.linalg.norm(t1)
    t2 = np.cross(n, t1)
    return t1, t2


def support_cylinder(base, top, radius, segments):
    """One closed support cylinder from base to top, tagged FLEXIBLE."""
    axis = np.asarray(top, dtype=np.float64) - np.asarray(base, dtype=np.float64)
    length = np.linalg.norm(axis)
    if length <= 0.0:
        raise ValueError("support has zero length (coincident dermis/covering points)")
    n = axis / length
    t1, t2 = tangent_frame_scalar(n)
    phis = 2.0 * np.pi * np.arange(segments) / segments
    circle = np.outer(np.cos(phis), t1) + np.outer(np.sin(phis), t2)
    verts = np.vstack([base + radius * circle, top + radius * circle, [base, top]])
    bot_c, top_c = 2 * segments, 2 * segments + 1
    faces = []
    for j in range(segments):
        a, b = j, (j + 1) % segments
        c, d = segments + j, segments + (j + 1) % segments
        faces.append([a, b, d])
        faces.append([a, d, c])
        faces.append([bot_c, b, a])
        faces.append([top_c, c, d])
    return TriMesh.from_arrays(verts, faces, Material.FLEXIBLE)


def instance_ring_by_face(site, spec):
    """The conductive ring of one site, one face appended at a time."""
    n = np.asarray(site.normal)
    t1, t2 = tangent_frame_scalar(n)
    base = np.asarray(site.position)
    s = spec.segments
    phis = 2.0 * np.pi * np.arange(s) / s
    circle = np.outer(np.cos(phis), t1) + np.outer(np.sin(phis), t2)
    verts = np.vstack([base + spec.inner_radius * circle,
                       base + spec.outer_radius * circle,
                       base + spec.inner_radius * circle + spec.height * n,
                       base + spec.outer_radius * circle + spec.height * n])
    IB, OB, IT, OT = 0, s, 2 * s, 3 * s
    faces = []
    for j in range(s):
        k = (j + 1) % s
        faces += [[IB + j, OB + k, OB + j], [IB + j, IB + k, OB + k],
                  [IT + j, OT + j, OT + k], [IT + j, OT + k, IT + k],
                  [OB + j, OB + k, OT + k], [OB + j, OT + k, OT + j],
                  [IB + j, IT + k, IB + k], [IB + j, IT + j, IT + k]]
    return TriMesh.from_arrays(verts, faces, Material.CONDUCTIVE)


def instance_mount_by_face(site, spec):
    """The structural mount of one site, one face appended at a time."""
    n = np.asarray(site.normal)
    t1, t2 = tangent_frame_scalar(n)
    base = np.asarray(site.position)
    s = 32
    phis = 2.0 * np.pi * np.arange(s) / s
    circle = np.outer(np.cos(phis), t1) + np.outer(np.sin(phis), t2)
    verts = np.vstack([base + spec.footprint_radius * circle,
                       base + spec.footprint_radius * circle + spec.height * n,
                       [base, base + spec.height * n]])
    faces = []
    for j in range(s):
        k = (j + 1) % s
        faces += [[j, k, s + k], [j, s + k, s + j], [2 * s, k, j], [2 * s + 1, s + j, s + k]]
    return TriMesh.from_arrays(verts, faces, Material.STRUCTURAL)


def validate_mesh_dict(mesh):
    """validate_mesh with the winding check as a dict of directed-edge signs."""
    findings = []
    bad = np.where((mesh.faces < 0) | (mesh.faces >= mesh.n_vertices))[0]
    if bad.size:
        findings.append(Finding(
            "invalid-index", "error",
            f"{bad.size} face(s) reference out-of-range vertex indices",
            sorted(set(bad.tolist()))))
        return ValidationReport(findings, 0, False, False)
    degen = np.where(mesh.face_areas() <= DEGENERATE_AREA)[0]
    if degen.size:
        findings.append(Finding(
            "degenerate-face", "error",
            f"{degen.size} face(s) have area <= {DEGENERATE_AREA} m^2", degen.tolist()))
    keys = {}
    for a, b in mesh.edges():
        a, b = int(a), int(b)
        keys.setdefault((a, b) if a < b else (b, a), []).append(1 if a < b else -1)
    boundary = 0
    conflict_edges = []
    for key, signs in keys.items():
        if len(signs) == 1:
            boundary += 1
        elif len(signs) == 2:
            if signs[0] == signs[1]:
                conflict_edges.append(key)
        else:
            findings.append(Finding(
                "non-manifold-edge", "warning",
                f"edge {key} shared by {len(signs)} faces", [list(key)]))
    if conflict_edges:
        findings.append(Finding(
            "inconsistent-winding", "error",
            f"{len(conflict_edges)} edge(s) traversed twice in the same direction",
            [list(k) for k in conflict_edges[:16]]))
    unreferenced = np.setdiff1d(np.arange(mesh.n_vertices), mesh.faces.reshape(-1))
    if unreferenced.size:
        findings.append(Finding(
            "unreferenced-vertex", "warning",
            f"{unreferenced.size} vertex(es) not used by any face", unreferenced.tolist()))
    return ValidationReport(findings, boundary, boundary == 0, not conflict_edges)


def weld_by_unique(triangles):
    """Weld a triangle soup with np.unique over its vertex rows.

    np.unique keeps an arbitrary one of -0.0 and +0.0 where both occur.
    """
    verts, inverse = np.unique(triangles.reshape(-1, 3), axis=0, return_inverse=True)
    return verts, inverse.reshape(-1, 3)


def keepout_blocked_by_keepout(pos, top, keepouts, radius):
    """Candidates with either end within keepout radius + radius of a keepout's axis,
    one keepout at a time."""
    blocked = np.zeros(len(pos), dtype=bool)
    for k in keepouts:
        center = np.asarray(k.center, dtype=np.float64)
        normal = np.asarray(k.normal, dtype=np.float64)
        r = float(k.radius) + radius
        for end in (pos, top):
            rel = end - center
            axial = np.einsum("ij,j->i", rel, normal)
            blocked |= np.einsum("ij,ij->i", rel, rel) - axial * axial < r * r
    return blocked


def sweep_and_prune_rows(mesh):
    """Candidate rows of a sweep and prune along the axis of largest extent:
    each face against the later sorted faces whose box starts no further
    along that axis than its own box ends."""
    tri = mesh.triangles()
    lo, hi = tri.min(axis=1), tri.max(axis=1)
    axis = int(np.argmax(hi.max(axis=0) - lo.min(axis=0)))
    start = np.sort(lo[:, axis], kind="stable")
    order = np.argsort(lo[:, axis], kind="stable")
    end = np.searchsorted(start, hi[order, axis], side="right")
    return int((end - np.arange(1, len(start) + 1)).sum())
