"""FR3-like arm, its 40-nodule skin and the room it works in.

Shared by the arm_sweep and log_replay workloads. Everything here is plain
numpy and independent of hybridskin, so it doubles as the reference the
benchmark checks the program's outputs against: forward kinematics with
4x4 matrices, zone directions (tan theta_x, tan theta_y, 1) and analytic
distances to the room's planes, boxes and sphere.
"""

import math

import numpy as np

# Franka FR3 modified-DH rows (a_{i-1}, d_i, alpha_{i-1}) for joints 1..7.
FR3_MDH = [
    (0.0, 0.333, 0.0),
    (0.0, 0.0, -math.pi / 2),
    (0.0, 0.316, math.pi / 2),
    (0.0825, 0.0, math.pi / 2),
    (-0.0825, 0.384, -math.pi / 2),
    (0.0, 0.0, math.pi / 2),
    (0.088, 0.0, math.pi / 2),
]
HOME = np.array([0.0, -math.pi / 4, 0.0, -3 * math.pi / 4, 0.0, math.pi / 2, math.pi / 4])
Q12 = (0.0, -0.6)    # joints 1-2 hold still here, so link 2 does not move

# Six skin units, one per link 2..7: (link, nodules, radius m, axial rows m).
UNITS = [
    (2, 8, 0.070, (-0.03, 0.03)),
    (3, 7, 0.065, (-0.06, 0.0)),
    (4, 7, 0.065, (-0.03, 0.03)),
    (5, 6, 0.060, (-0.12, -0.06)),
    (6, 6, 0.060, (-0.03, 0.03)),
    (7, 6, 0.055, (0.0, 0.04)),
]
N_NODULES = sum(u[1] for u in UNITS)      # 40
PRESSED_SITE = 5     # link-2 nodule the hand presses (boresight up and back)
CONTROL_SITE = 39    # link-7 nodule the hand never nears

TOF = {"nx": 8, "ny": 8, "fov_x": 45.0, "fov_y": 45.0, "max_range": 4.0,
       "rate": 12.0, "range_noise_sigma": 0.01}
T_COV = 0.006        # covering thickness (electrode.t_cov default)
SQUEEZE_GAP = 0.003  # hand-to-nodule distance while squeezing
SC_RATE, SC_JITTER = 42.0, 2.0

# Room, world frame (m): robot base at the origin on the floor.
FLOOR = {"kind": "box", "size": [4.0, 4.0, 0.02], "center": [0.0, 0.0, -0.01]}
WALL = {"kind": "box", "size": [0.05, 4.0, 2.5], "center": [1.3, 0.0, 1.25]}
TABLE = {"kind": "box", "size": [0.6, 0.8, 0.7], "center": [0.55, -0.75, 0.35]}
OBSTACLE_CENTER = np.array([0.75, 0.55, 0.55])
OBSTACLE_RADIUS = 0.22
HAND_SIZE = np.array([0.08, 0.08, 0.02])


# ---------------------------------------------------------------------------
# Rotations and transforms
# ---------------------------------------------------------------------------

def rot_x(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_z(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def transform(rotation, translation):
    m = np.eye(4)
    m[:3, :3] = rotation
    m[:3, 3] = translation
    return m


def quat_from_matrix(r):
    """Unit quaternion (w, x, y, z) of a rotation matrix (Shepperd)."""
    tr = np.trace(r)
    if tr > 0.0:
        s = 2.0 * math.sqrt(tr + 1.0)
        q = [0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s,
             (r[1, 0] - r[0, 1]) / s]
    elif r[0, 0] > r[1, 1] and r[0, 0] > r[2, 2]:
        s = 2.0 * math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2])
        q = [(r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s,
             (r[0, 2] + r[2, 0]) / s]
    elif r[1, 1] > r[2, 2]:
        s = 2.0 * math.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2])
        q = [(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s,
             (r[1, 2] + r[2, 1]) / s]
    else:
        s = 2.0 * math.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1])
        q = [(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s,
             (r[1, 2] + r[2, 1]) / s, 0.25 * s]
    q = np.asarray(q)
    return q / np.linalg.norm(q)


def joint_origin(a, d, alpha):
    """Fixed part of a modified-DH step: RotX(alpha) TransX(a) TransZ(d)."""
    r = rot_x(alpha)
    return transform(r, r @ np.array([a, 0.0, d]))


def mount_locals():
    """Link index and 4x4 local pose of every nodule, in site-id order."""
    out = []
    for link, count, radius, rows in UNITS:
        for k in range(count):
            phi = 2.0 * math.pi * (k + 0.5 * (k % 2)) / count
            z = np.array([math.cos(phi), math.sin(phi), 0.0])
            x = np.array([0.0, 0.0, 1.0])
            y = np.cross(z, x)
            pos = radius * z + np.array([0.0, 0.0, rows[k % 2]])
            out.append((link, transform(np.column_stack([x, y, z]), pos)))
    return out


def chain_dict():
    """Chain file contents in hybridskin's JSON format."""
    joints = []
    for a, d, alpha in FR3_MDH:
        m = joint_origin(a, d, alpha)
        joints.append({"axis": [0.0, 0.0, 1.0], "type": "REVOLUTE",
                       "origin": {"rotation": quat_from_matrix(m[:3, :3]).tolist(),
                                  "translation": m[:3, 3].tolist()}})
    mounts = [{"link": link, "site_id": sid,
               "local": {"rotation": quat_from_matrix(m[:3, :3]).tolist(),
                         "translation": m[:3, 3].tolist()}}
              for sid, (link, m) in enumerate(mount_locals())]
    return {"joints": joints, "mounts": mounts}


def link_transforms(q):
    """World 4x4 pose of links 0..7 for joint values q."""
    out = [np.eye(4)]
    for (a, d, alpha), qi in zip(FR3_MDH, q):
        out.append(out[-1] @ joint_origin(a, d, alpha) @ transform(rot_z(qi), np.zeros(3)))
    return out


def sensor_transforms(q, mounts=None):
    """World 4x4 pose of every nodule for joint values q."""
    mounts = mount_locals() if mounts is None else mounts
    links = link_transforms(q)
    return [links[link] @ m for link, m in mounts]


# ---------------------------------------------------------------------------
# Trajectories and ToF zones
# ---------------------------------------------------------------------------

def sweep_params(rng):
    """Per-seed amplitudes (rad), frequencies (Hz) and phases for joints 3-7."""
    # Small per-seed variations, so that the work a sweep costs (which zones
    # see which surfaces) stays nearly the same from seed to seed.
    amp = np.array([0.5, 0.4, 0.6, 0.5, 0.8]) * rng.uniform(0.98, 1.02, 5)
    freq = np.array([0.30, 0.25, 0.40, 0.35, 0.50]) * rng.uniform(0.98, 1.02, 5)
    phase = rng.uniform(-0.05, 0.05, 5)
    return amp, freq, phase


def sweep_joints(t, params):
    """Joint values (len(t), 7): joints 1-2 hold still, 3-7 sweep."""
    amp, freq, phase = params
    t = np.asarray(t, dtype=np.float64)[:, None]
    q = np.tile(HOME, (t.shape[0], 1))
    q[:, :2] = Q12
    q[:, 2:] += amp * np.sin(2.0 * math.pi * freq * t + phase)
    return q


def interpolate_joints(times, values, t):
    """Linear joint interpolation, the trajectory model the log documents."""
    idx = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 2)
    t0, t1 = times[idx], times[idx + 1]
    u = ((t - t0) / (t1 - t0))[:, None]
    return (1.0 - u) * values[idx] + u * values[idx + 1]


def zone_directions():
    """Unit zone directions (64, 3) in the sensor frame, row-major."""
    nx, ny = TOF["nx"], TOF["ny"]
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    tx = ((i.ravel() + 0.5) / nx - 0.5) * math.radians(TOF["fov_x"])
    ty = ((j.ravel() + 0.5) / ny - 0.5) * math.radians(TOF["fov_y"])
    d = np.column_stack([np.tan(tx), np.tan(ty), np.ones(nx * ny)])
    return d / np.linalg.norm(d, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Analytic room: ray hits and surface distances
# ---------------------------------------------------------------------------

def room_boxes():
    """Static boxes as (center, half-size) pairs: floor, wall, table."""
    return [(np.array(b["center"]), 0.5 * np.array(b["size"])) for b in (FLOOR, WALL, TABLE)]


def ray_box(origins, dirs, center, half):
    """Entry distance of rays into an axis-aligned box; inf on a miss."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        t1 = (center - half - origins) * inv
        t2 = (center + half - origins) * inv
    tmin = np.nanmax(np.minimum(t1, t2), axis=1)
    tmax = np.nanmin(np.maximum(t1, t2), axis=1)
    hit = (tmax >= np.maximum(tmin, 0.0)) & (tmin > 0.0)
    return np.where(hit, tmin, np.inf)


def ray_sphere(origins, dirs, center, radius):
    """Nearest positive sphere hit distance; inf on a miss."""
    oc = origins - center
    b = np.einsum("ij,ij->i", oc, dirs)
    c = np.einsum("ij,ij->i", oc, oc) - radius * radius
    disc = b * b - c
    root = np.sqrt(np.maximum(disc, 0.0))
    near, far = -b - root, -b + root
    t = np.where(near > 0.0, near, far)
    return np.where((disc >= 0.0) & (t > 0.0), t, np.inf)


def room_hits(origins, dirs):
    """Nearest analytic hit over floor, wall, table and obstacle sphere."""
    t = ray_sphere(origins, dirs, OBSTACLE_CENTER, OBSTACLE_RADIUS)
    for center, half in room_boxes():
        t = np.minimum(t, ray_box(origins, dirs, center, half))
    return t


def box_distance(points, center, half, rotation=None):
    """Unsigned distance from points to the surface of an (oriented) box."""
    local = points - center
    if rotation is not None:
        local = local @ rotation
    q = np.abs(local) - half
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
    inside = np.minimum(np.max(q, axis=1), 0.0)
    return np.abs(outside + inside)


def room_distance(points):
    """Distance from points to the nearest static room surface."""
    d = np.abs(np.linalg.norm(points - OBSTACLE_CENTER, axis=1) - OBSTACLE_RADIUS)
    for center, half in room_boxes():
        d = np.minimum(d, box_distance(points, center, half))
    return d
