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
from .geometry import _rowdot

QUAT_TOL = 1e-9

REVOLUTE = "REVOLUTE"
PRISMATIC = "PRISMATIC"


def quat_multiply(a, b):
    """Hamilton product a * b over the last axis; stacks broadcast."""
    aw, ax, ay, az = np.moveaxis(np.asarray(a, dtype=np.float64), -1, 0)
    bw, bx, by, bz = np.moveaxis(np.asarray(b, dtype=np.float64), -1, 0)
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def quat_rotate(q, v):
    """v rotated by q: v + w t + qv x t with t = 2 qv x v, over the last axis.

    The cross products are written out in np.cross's operation order, so a
    row gets the bits the np.cross form gives it.
    """
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=np.float64), -1, 0)
    v0, v1, v2 = np.moveaxis(np.asarray(v, dtype=np.float64), -1, 0)
    t0 = 2.0 * (y * v2 - z * v1)
    t1 = 2.0 * (z * v0 - x * v2)
    t2 = 2.0 * (x * v1 - y * v0)
    return np.stack([v0 + w * t0 + (y * t2 - z * t1),
                     v1 + w * t1 + (z * t0 - x * t2),
                     v2 + w * t2 + (x * t1 - y * t0)], axis=-1)


def quat_from_axis_angle(axis, angle):
    """Quaternion of a rotation by angle (any shape) about one axis."""
    axis = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        raise ValueError("rotation axis must be nonzero")
    axis = axis / norm
    half = 0.5 * np.asarray(angle, dtype=np.float64)
    return np.concatenate([np.cos(half)[..., None], np.sin(half)[..., None] * axis],
                          axis=-1)


def quat_to_matrix(q):
    """Rotation matrices (..., 3, 3) of quaternions (..., 4)."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=np.float64), -1, 0)
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1),
    ], axis=-2)


def _quat_norm(q):
    """|q| over the last axis, with np.linalg.norm's bits for each quaternion."""
    return np.sqrt(_rowdot(q, q))


def _quat_normalize(q):
    return q / _quat_norm(q)[..., None]


def quat_slerp(qa, qb, u):
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


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid transform: rotation quaternion (w,x,y,z) then translation.

    A Pose holds a stack of transforms: rotation has shape (..., 4) and
    translation (..., 3), and the two broadcast to one batch shape. A single
    transform is the batch shape (). Indexing and len act on the batch axes.
    """

    rotation: np.ndarray = (1.0, 0.0, 0.0, 0.0)
    translation: np.ndarray = (0.0, 0.0, 0.0)

    def __post_init__(self):
        q = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if q.shape[-1:] != (4,):
            raise ValueError("rotation must be a quaternion (w,x,y,z)")
        if t.shape[-1:] != (3,):
            raise ValueError("translation must be a 3-vector")
        norm = _quat_norm(q)
        bad = ~(np.abs(norm - 1.0) <= QUAT_TOL)  # NaN fails the test too
        if bad.any():
            raise ValueError(f"rotation must be a finite unit quaternion, got |q|={norm[bad][0]}")
        if not np.isfinite(t).all():
            raise ValueError(f"translation must be finite, got {t[~np.isfinite(t)][0]}")
        shape = np.broadcast_shapes(q.shape[:-1], t.shape[:-1])
        object.__setattr__(self, "rotation", np.broadcast_to(q, shape + (4,)))
        object.__setattr__(self, "translation", np.broadcast_to(t, shape + (3,)))

    @classmethod
    def _unchecked(cls, rotation, translation):
        """A pose of already validated arrays of one batch shape."""
        pose = object.__new__(cls)
        object.__setattr__(pose, "rotation", rotation)
        object.__setattr__(pose, "translation", translation)
        return pose

    @classmethod
    def identity(cls):
        return cls()

    @classmethod
    def from_axis_angle(cls, axis, angle, translation=(0.0, 0.0, 0.0)):
        return cls(_quat_normalize(quat_from_axis_angle(axis, angle)), translation)

    def __len__(self):
        if self.rotation.ndim == 1:
            raise TypeError("a single pose has no length")
        return self.rotation.shape[0]

    def __getitem__(self, index):
        """The poses at index over the batch axes, as numpy would index them."""
        key = (index if isinstance(index, tuple) else (index,)) + (slice(None),)
        return Pose._unchecked(self.rotation[key], self.translation[key])

    def compose(self, other: "Pose") -> "Pose":
        """self applied after other's frame: world = self o other.

        The result is normalized here, so it skips the unit-norm re-check.
        """
        q = _quat_normalize(quat_multiply(self.rotation, other.rotation))
        t = quat_rotate(self.rotation, other.translation) + self.translation
        return Pose._unchecked(q, t)

    def rotate(self, vectors):
        """Vectors rotated by a single pose."""
        v = np.asarray(vectors, dtype=np.float64)
        single = v.ndim == 1
        v = np.atleast_2d(v)
        out = v @ quat_to_matrix(self.rotation).T
        return out[0] if single else out


def interpolate_pose(pa: Pose, pb: Pose, u: float) -> Pose:
    """Linear translation + slerp rotation between two single poses."""
    q = _quat_normalize(quat_slerp(pa.rotation, pb.rotation, u))
    t = (1.0 - u) * pa.translation + u * pb.translation
    return Pose(q, t)


@dataclass(frozen=True)
class Joint:
    axis: tuple
    joint_type: str = REVOLUTE
    origin: Pose = field(default_factory=Pose.identity)

    def __post_init__(self):
        a = np.asarray(self.axis, dtype=np.float64)
        if not abs(np.linalg.norm(a) - 1.0) <= QUAT_TOL:  # NaN fails the test too
            raise ValueError(f"joint axis must be finite and unit length, got {self.axis}")
        object.__setattr__(self, "axis", tuple(float(c) for c in a))
        if self.joint_type not in (REVOLUTE, PRISMATIC):
            raise ValueError(f"unknown joint type {self.joint_type!r}")

    def motion(self, q) -> Pose:
        """The joint's motion for joint values q of any shape."""
        if self.joint_type == REVOLUTE:
            return Pose.from_axis_angle(self.axis, q)
        return Pose(translation=np.asarray(q)[..., None] * np.asarray(self.axis))


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
    """World pose of every link (base first) for joint values q.

    q has shape (..., n_joints); every link's Pose has q's batch shape, so
    one call poses the chain at a whole batch of joint vectors.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.shape[-1:] != (chain.n_joints,):
        raise DimensionError(
            f"got {q.shape[-1] if q.ndim else 1} joint values for {chain.n_joints} joints")
    poses = [Pose(translation=np.zeros(q.shape[:-1] + (3,)))]
    for i, joint in enumerate(chain.joints):
        poses.append(poses[-1].compose(joint.origin).compose(joint.motion(q[..., i])))
    return poses


def mount_poses(chain: KinematicChain, q, mounts) -> Pose:
    """World pose of each mount for joint values q, from one forward pass.

    The mounts form the last batch axis, broadcast against q's batch axes:
    q of shape (n_joints,) gives one pose per mount, and q of shape
    (n, n_joints) with n mounts poses mounts[k] at row k.
    """
    links = forward_kinematics(chain, q)
    shape = np.broadcast_shapes(links[0].rotation.shape[:-1], (len(mounts),))
    index = np.broadcast_to(np.array([m.link_index for m in mounts], dtype=np.intp),
                            shape)[None, ..., None]

    def gather(arrays):  # row [..., k] of the link that mounts[k] hangs off
        stacked = np.stack([np.broadcast_to(a, shape + a.shape[-1:]) for a in arrays])
        return np.take_along_axis(stacked, index, axis=0)[0]

    link = Pose._unchecked(gather([p.rotation for p in links]),
                           gather([p.translation for p in links]))
    local = Pose(np.array([m.local.rotation for m in mounts]).reshape(-1, 4),
                 np.array([m.local.translation for m in mounts]).reshape(-1, 3))
    return link.compose(local)


def _bracket(times, t, what):
    """(i, u) shaped like t: t lies a fraction u of the way from times[i] to times[i + 1].

    times is sorted; one sample gives i = 0 and u = 0. Raises DomainError
    naming the first t outside [times[0], times[-1]]; NaN is outside.
    """
    times = np.asarray(times, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    outside = ~((t >= times[0]) & (t <= times[-1]))
    if outside.any():
        raise DomainError(f"t={t[outside][0]} outside {what} [{times[0]}, {times[-1]}]")
    if len(times) == 1:
        return np.zeros(t.shape, dtype=np.intp), np.zeros(t.shape)
    i = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 2)
    t0, t1 = times[i], times[i + 1]
    # t can only sit between equal knots at t == t0, where u is 0
    return i, (t - t0) / np.where(t1 > t0, t1 - t0, 1.0)


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
        finite = np.isfinite(self.times) & np.isfinite(self.values).all(axis=1)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValueError(f"trajectory sample {k} is not finite: t={self.times[k]}, "
                             f"q={self.values[k].tolist()}")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("trajectory times must be strictly increasing")

    def value_at(self, t) -> np.ndarray:
        """Joint values at time(s) t, shape t.shape + (n_joints,)."""
        i, u = _bracket(self.times, t, "trajectory domain")
        if len(self.times) == 1:
            return np.broadcast_to(self.values[0], u.shape + self.values.shape[1:]).copy()
        return (1.0 - u)[..., None] * self.values[i] + u[..., None] * self.values[i + 1]


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
        i = int(i)
        return interpolate_pose(self.keyframes[i][1], self.keyframes[i + 1][1], float(u))


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
    return {"rotation": p.rotation.tolist(), "translation": p.translation.tolist()}


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
