"""Serial-chain kinematics, pose algebra, and dynamic scene evaluation.

Rotations are unit quaternions (w, x, y, z). The chain is strictly serial,
base link plus one link per joint, the usual structure of industrial arms;
the world pose of link i is the composition of all joint origins and joint
motions up to i. Sensor mounts hang off links with a fixed local pose.
"""

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimensionError, DomainError

QUAT_TOL = 1e-9

REVOLUTE = "REVOLUTE"
PRISMATIC = "PRISMATIC"


def quat_multiply(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_rotate(q, v):
    w, x, y, z = q
    qv = np.array([x, y, z])
    v = np.asarray(v, dtype=np.float64)
    t = 2.0 * np.cross(qv, v)
    return v + w * t + np.cross(qv, t)


def quat_from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        raise ValueError("rotation axis must be nonzero")
    axis = axis / norm
    half = 0.5 * angle
    return np.concatenate([[math.cos(half)], math.sin(half) * axis])


def quat_to_matrix(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_slerp(qa, qb, u):
    qa = np.asarray(qa, dtype=np.float64)
    qb = np.asarray(qb, dtype=np.float64)
    dot = float(np.dot(qa, qb))
    if dot < 0.0:  # take the short arc
        qb = -qb
        dot = -dot
    if dot > 1.0 - 1e-12:
        out = qa + u * (qb - qa)
        return out / np.linalg.norm(out)
    theta = math.acos(min(1.0, dot))
    s = math.sin(theta)
    return (math.sin((1.0 - u) * theta) / s) * qa + (math.sin(u * theta) / s) * qb


@dataclass(frozen=True)
class Pose:
    """Rigid transform: rotation quaternion (w,x,y,z) then translation."""

    rotation: tuple = (1.0, 0.0, 0.0, 0.0)
    translation: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        q = np.asarray(self.rotation, dtype=np.float64)
        if q.shape != (4,):
            raise ValueError("rotation must be a quaternion (w,x,y,z)")
        if abs(np.linalg.norm(q) - 1.0) > QUAT_TOL:
            raise ValueError(f"quaternion not unit length: |q|={np.linalg.norm(q)}")
        object.__setattr__(self, "rotation", tuple(float(c) for c in q))
        t = np.asarray(self.translation, dtype=np.float64)
        if t.shape != (3,):
            raise ValueError("translation must be a 3-vector")
        object.__setattr__(self, "translation", tuple(float(c) for c in t))

    @classmethod
    def identity(cls):
        return cls()

    @classmethod
    def from_axis_angle(cls, axis, angle, translation=(0.0, 0.0, 0.0)):
        q = quat_from_axis_angle(axis, angle)
        q = q / np.linalg.norm(q)
        return cls(tuple(q), tuple(translation))

    def compose(self, other: "Pose") -> "Pose":
        """self applied after other's frame: world = self o other."""
        q = quat_multiply(self.rotation, other.rotation)
        q = q / np.linalg.norm(q)
        t = quat_rotate(self.rotation, other.translation) + np.asarray(self.translation)
        return Pose(tuple(q), tuple(t))

    def rotate(self, vectors):
        v = np.asarray(vectors, dtype=np.float64)
        single = v.ndim == 1
        v = np.atleast_2d(v)
        out = v @ quat_to_matrix(self.rotation).T
        return out[0] if single else out


def interpolate_pose(pa: Pose, pb: Pose, u: float) -> Pose:
    """Linear translation + slerp rotation between two poses."""
    q = quat_slerp(pa.rotation, pb.rotation, u)
    q = q / np.linalg.norm(q)
    t = (1.0 - u) * np.asarray(pa.translation) + u * np.asarray(pb.translation)
    return Pose(tuple(q), tuple(t))


@dataclass(frozen=True)
class Joint:
    axis: tuple
    joint_type: str = REVOLUTE
    origin: Pose = field(default_factory=Pose.identity)

    def __post_init__(self):
        a = np.asarray(self.axis, dtype=np.float64)
        if abs(np.linalg.norm(a) - 1.0) > QUAT_TOL:
            raise ValueError("joint axis must be unit length")
        object.__setattr__(self, "axis", tuple(float(c) for c in a))
        if self.joint_type not in (REVOLUTE, PRISMATIC):
            raise ValueError(f"unknown joint type {self.joint_type!r}")

    def motion(self, q: float) -> Pose:
        if self.joint_type == REVOLUTE:
            return Pose.from_axis_angle(self.axis, q)
        return Pose(translation=tuple(q * np.asarray(self.axis)))


@dataclass(frozen=True)
class SensorMount:
    link_index: int
    local: Pose
    site_id: int


@dataclass
class KinematicChain:
    joints: list
    sensor_mounts: list = field(default_factory=list)
    links: list = None  # link names; defaults to link0..linkN

    def __post_init__(self):
        if self.links is None:
            self.links = [f"link{i}" for i in range(len(self.joints) + 1)]
        if len(self.links) != len(self.joints) + 1:
            raise ValueError(
                f"{len(self.links)} links with {len(self.joints)} joints "
                "(need joint count = link count - 1)")
        for m in self.sensor_mounts:
            if not 0 <= m.link_index < len(self.links):
                raise ValueError(f"mount link index {m.link_index} out of range")

    @property
    def n_joints(self):
        return len(self.joints)


def forward_kinematics(chain: KinematicChain, q) -> list:
    """World pose of every link (base first) for joint values q."""
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    if q.shape[0] != chain.n_joints:
        raise DimensionError(
            f"got {q.shape[0]} joint values for {chain.n_joints} joints")
    poses = [Pose.identity()]
    for joint, qi in zip(chain.joints, q):
        poses.append(poses[-1].compose(joint.origin).compose(joint.motion(qi)))
    return poses


def mount_poses(chain: KinematicChain, q, mounts) -> list:
    """World pose of each mount for joint values q, from one forward pass."""
    links = forward_kinematics(chain, q)
    return [links[m.link_index].compose(m.local) for m in mounts]


def _bracket(times, t, what):
    """(i, u): t lies a fraction u of the way from times[i] to times[i + 1].

    times is sorted; one sample gives (0, 0.0). Raises DomainError when t
    lies outside [times[0], times[-1]].
    """
    if t < times[0] or t > times[-1]:
        raise DomainError(f"t={t} outside {what} [{times[0]}, {times[-1]}]")
    if len(times) == 1:
        return 0, 0.0
    i = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0), len(times) - 2)
    t0, t1 = times[i], times[i + 1]
    return i, 0.0 if t1 == t0 else (t - t0) / (t1 - t0)


@dataclass
class JointTrajectory:
    times: np.ndarray
    values: np.ndarray  # (k, n_joints)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64).reshape(-1)
        self.values = np.atleast_2d(np.asarray(self.values, dtype=np.float64))
        if self.values.shape[0] != self.times.shape[0]:
            raise ValueError("trajectory times and values disagree in length")
        if self.times.shape[0] < 1:
            raise ValueError("trajectory needs at least one sample")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("trajectory times must be strictly increasing")

    def value_at(self, t: float) -> np.ndarray:
        i, u = _bracket(self.times, t, "trajectory domain")
        if len(self.times) == 1:
            return self.values[0].copy()
        return (1.0 - u) * self.values[i] + u * self.values[i + 1]


@dataclass
class SceneObject:
    mesh: "TriMesh"
    conductive: bool = False
    keyframes: list = None  # [(t, Pose), ...] sorted; None = static
    name: str = ""

    def pose_at(self, t: float) -> Pose:
        if not self.keyframes:
            return Pose.identity()
        i, u = _bracket([k[0] for k in self.keyframes], t,
                        f"keyframe domain of scene object {self.name!r}")
        if len(self.keyframes) == 1:
            return self.keyframes[0][1]
        return interpolate_pose(self.keyframes[i][1], self.keyframes[i + 1][1], u)


@dataclass
class Scene:
    objects: list = field(default_factory=list)

    def at(self, t: float):
        """Posed copies of every object at time t: [(TriMesh, conductive)]."""
        posed = []
        for obj in self.objects:
            pose = obj.pose_at(t)
            if obj.keyframes:
                R = quat_to_matrix(pose.rotation)
                posed.append((obj.mesh.transformed(R, pose.translation), obj.conductive))
            else:
                posed.append((obj.mesh, obj.conductive))
        return posed


# ---------------------------------------------------------------------------
# File formats: chain JSON and trajectory CSV (header: t,q1..qn)
# ---------------------------------------------------------------------------

def _pose_from_dict(d):
    return Pose(tuple(d.get("rotation", (1.0, 0.0, 0.0, 0.0))),
                tuple(d.get("translation", (0.0, 0.0, 0.0))))


def _pose_to_dict(p: Pose):
    return {"rotation": list(p.rotation), "translation": list(p.translation)}


def load_chain(path) -> KinematicChain:
    data = json.loads(Path(path).read_text())
    joints = [Joint(axis=tuple(j["axis"]),
                    joint_type=j.get("type", REVOLUTE).upper(),
                    origin=_pose_from_dict(j.get("origin", {})))
              for j in data["joints"]]
    mounts = [SensorMount(link_index=int(m["link"]),
                          local=_pose_from_dict(m.get("local", {})),
                          site_id=int(m["site_id"]))
              for m in data.get("mounts", [])]
    return KinematicChain(joints=joints, sensor_mounts=mounts,
                          links=data.get("links"))


def save_chain(chain: KinematicChain, path):
    data = {
        "links": list(chain.links),
        "joints": [
            {"axis": list(j.axis), "type": j.joint_type,
             "origin": _pose_to_dict(j.origin)}
            for j in chain.joints
        ],
        "mounts": [
            {"link": m.link_index, "local": _pose_to_dict(m.local),
             "site_id": m.site_id}
            for m in chain.sensor_mounts
        ],
    }
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def load_trajectory(path) -> JointTrajectory:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if not header or header[0].strip() != "t":
            raise ValueError(f"trajectory CSV must start with header 't,q1..qn', got {header}")
        rows = [[float(x) for x in row] for row in reader if row]
    if not rows:
        raise ValueError("trajectory CSV has no samples")
    arr = np.asarray(rows, dtype=np.float64)
    return JointTrajectory(times=arr[:, 0], values=arr[:, 1:])


def save_trajectory(traj: JointTrajectory, path):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["t"] + [f"q{i + 1}" for i in range(traj.values.shape[1])])
        for t, q in zip(traj.times, traj.values):
            writer.writerow([repr(float(t))] + [repr(float(x)) for x in q])
