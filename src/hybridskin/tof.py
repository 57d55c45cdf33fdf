"""Multizone time-of-flight imager model (VL53L5CX-class).

Each frame casts one center ray per zone of an nx x ny grid spanning the
configured field of view, returning the nearest surface distance up to
max_range with additive Gaussian range noise. Zones that hit nothing in
range report NO_TARGET (NaN distance, valid=False).

zone_rays is the one definition of where each zone looks: capture_frames
casts along it and analysis.reconstruct back-projects along it.
capture_frames casts the zone rays of every sensor that fires at one
instant as one packet through a Bvh of the posed scene; capture_frame is
its one-sensor case.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .kinematics import Pose, quat_to_matrix
from .raycast import Bvh

NO_TARGET = float("nan")
_MIN_DISTANCE = 1e-6  # reported distances stay strictly positive


@dataclass(frozen=True)
class ToFSpec:
    nx: int = 8
    ny: int = 8
    fov_x: float = 45.0       # degrees
    fov_y: float = 45.0
    max_range: float = 4.0    # m
    rate: float = 12.0        # Hz
    range_noise_sigma: float = 0.01  # m

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("zone grid must be at least 1x1")
        if not 0.0 < self.fov_x < 180.0 or not 0.0 < self.fov_y < 180.0:
            raise ValueError("field of view must be in (0, 180) degrees")
        if self.max_range <= 0.0 or self.rate <= 0.0:
            raise ValueError("max_range and rate must be > 0")
        if self.range_noise_sigma < 0.0:
            raise ValueError("range_noise_sigma must be >= 0")


@dataclass
class ToFFrame:
    sensor_id: int
    timestamp: float
    distances: np.ndarray  # (nx, ny), NaN where no target
    valid: np.ndarray      # (nx, ny) bool

    def __post_init__(self):
        self.distances = np.asarray(self.distances, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.distances.shape != self.valid.shape:
            raise ValueError("distances and valid grids must have the same shape")


def zone_angles(i: int, j: int, spec: ToFSpec):
    """Boresight-relative zone angles (radians) for zone (i, j)."""
    if not (0 <= i < spec.nx and 0 <= j < spec.ny):
        raise IndexError(f"zone ({i}, {j}) outside {spec.nx}x{spec.ny} grid")
    theta_x = ((i + 0.5) / spec.nx - 0.5) * math.radians(spec.fov_x)
    theta_y = ((j + 0.5) / spec.ny - 0.5) * math.radians(spec.fov_y)
    return theta_x, theta_y


def zone_direction_local(i: int, j: int, spec: ToFSpec):
    """Unit ray direction in the sensor frame (boresight = +z)."""
    theta_x, theta_y = zone_angles(i, j, spec)
    d = np.array([math.tan(theta_x), math.tan(theta_y), 1.0])
    return d / np.linalg.norm(d)


@functools.lru_cache(maxsize=8)
def _local_zone_directions(spec: ToFSpec):
    """zone_direction_local of every zone, row i*ny + j; read-only."""
    local = np.array([zone_direction_local(i, j, spec)
                      for i in range(spec.nx) for j in range(spec.ny)])
    local.flags.writeable = False
    return local


def zone_rays(poses: Pose, spec: ToFSpec):
    """World-frame zone rays of a stack of S poses: (S*nx*ny, 3) origins, directions.

    Row s*nx*ny + i*ny + j holds zone (i, j) of pose s with the bits of the
    one-ray form: Pose.rotate of zone_direction_local, divided by its
    np.linalg.norm. Pose.rotate multiplies a 1x3 row by a transposed 3x3
    view and np.linalg.norm takes a dot product; the stacked matmuls below
    pass each row through the same kernels with the same memory layout,
    which a (n, 3) @ (3, 3) product or an einsum norm would not.
    """
    local = _local_zone_directions(spec)
    rot = quat_to_matrix(poses.rotation).reshape(-1, 3, 3)
    d = np.matmul(local[None, :, None, :], rot.transpose(0, 2, 1)[:, None])
    norm = np.sqrt(np.matmul(d, d.transpose(0, 1, 3, 2)))
    origins = poses.translation.reshape(-1, 3)
    return np.repeat(origins, len(local), axis=0), (d / norm).reshape(-1, 3)


def capture_frames(sensor_ids, poses: Pose, bvh: Bvh, t: float, spec: ToFSpec, rngs):
    """One frame per sensor at time t, all zone rays cast in one packet.

    poses stacks one pose per sensor.

    1 ray per zone, Gaussian range noise, clamp to (0, max_range]. Each
    sensor's noise grid is drawn from its own rng once per frame regardless
    of hits, so the rng streams do not depend on scene content.
    """
    if not len(sensor_ids) == len(poses) == len(rngs):
        raise ValueError("capture_frames needs one pose and one rng per sensor")
    shape = (spec.nx, spec.ny)
    noise = [rng.normal(0.0, spec.range_noise_sigma, size=shape)
             if spec.range_noise_sigma > 0.0 else np.zeros(shape) for rng in rngs]
    origins, directions = zone_rays(poses, spec)
    dist, idx = bvh.raycast_many(origins, directions, spec.max_range)
    dist = dist.reshape((-1,) + shape)
    valid = idx.reshape((-1,) + shape) >= 0
    frames = []
    for k, sensor_id in enumerate(sensor_ids):
        d = np.minimum(np.maximum(dist[k] + noise[k], _MIN_DISTANCE), spec.max_range)
        frames.append(ToFFrame(sensor_id=sensor_id, timestamp=float(t),
                               distances=np.where(valid[k], d, NO_TARGET), valid=valid[k]))
    return frames


def capture_frame(sensor_id: int, sensor_pose: Pose, bvh: Bvh, t: float,
                  spec: ToFSpec, rng: np.random.Generator) -> ToFFrame:
    """One sensor's frame; see capture_frames."""
    return capture_frames([sensor_id], sensor_pose[None], bvh, t, spec, [rng])[0]


def frame_times(duration: float, spec: ToFSpec):
    """Strictly periodic frame timestamps k/rate in [0, duration)."""
    if duration <= 0.0:
        return np.zeros(0)
    n = int(math.ceil(duration * spec.rate - 1e-12))
    return np.arange(n, dtype=np.float64) / spec.rate
