"""Multizone time-of-flight imager model (VL53L5CX-class).

Each frame casts one center ray per zone of an nx x ny grid spanning the
configured field of view, returning the nearest surface distance up to
max_range with additive Gaussian range noise. A zone is valid exactly
where its cast distance is finite; zones that hit nothing in range report
NO_TARGET (NaN distance, valid=False).

zone_rays is the one definition of where each zone looks: the caster casts
along it and analysis.reconstruct back-projects along it. capture_frames
turns the cast distances of a block of frame times, every sensor at each,
into one ToFTable of frames with noise; capture_frame casts one sensor's
zone rays through a Bvh and is its one-frame case.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .kinematics import Pose, quat_to_matrix
from .logs import ToFTable
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


@functools.lru_cache(maxsize=8)
def _local_zone_directions(spec: ToFSpec):
    """Unit ray direction of every zone in the sensor frame (boresight = +z),
    row i*ny + j; read-only. Zone (i, j) is ((i + 0.5)/nx - 0.5) * fov_x
    off boresight along x and ((j + 0.5)/ny - 0.5) * fov_y along y."""
    tan_x = [math.tan(((i + 0.5) / spec.nx - 0.5) * math.radians(spec.fov_x))
             for i in range(spec.nx)]
    tan_y = [math.tan(((j + 0.5) / spec.ny - 0.5) * math.radians(spec.fov_y))
             for j in range(spec.ny)]
    local = np.array([d / np.linalg.norm(d)
                      for d in (np.array([tx, ty, 1.0]) for tx in tan_x for ty in tan_y)])
    local.flags.writeable = False
    return local


def zone_rays(poses: Pose, spec: ToFSpec):
    """World-frame zone rays of a stack of S poses: (S*nx*ny, 3) origins, directions.

    Row s*nx*ny + i*ny + j holds zone (i, j) of pose s with the bits of the
    one-ray form: Pose.rotate of the zone's local direction, divided by its
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


def capture_frames(sensor_ids, times, dist, spec: ToFSpec, rngs) -> ToFTable:
    """One frame per sensor per time, from cast zone distances: a ToFTable
    whose row j * len(sensor_ids) + k is sensor k at times[j].

    dist holds the cast distances (inf where nothing lies in range) of the
    zone_rays of the (times, sensors) pose stack, len(times) *
    len(sensor_ids) * nx * ny rows; a zone is valid where its distance is
    finite. Gaussian range noise, then a clamp to (0, max_range]. Each
    sensor draws its noise for the whole block from its own rng in one
    call, the same stream as one (nx, ny) draw per frame, whatever it hits,
    so the rng streams do not depend on scene content.
    """
    if len(sensor_ids) != len(rngs):
        raise ValueError("capture_frames needs one rng per sensor")
    n_zones = spec.nx * spec.ny
    shape = (len(times), len(sensor_ids), n_zones)
    dist = np.asarray(dist, dtype=np.float64).reshape(shape)
    valid = np.isfinite(dist)
    if spec.range_noise_sigma > 0.0 and len(rngs):
        noise = np.stack([rng.normal(0.0, spec.range_noise_sigma, size=(len(times), n_zones))
                          for rng in rngs], axis=1)
        dist = dist + noise
    d = np.minimum(np.maximum(dist, _MIN_DISTANCE), spec.max_range)
    return ToFTable(np.tile(np.asarray(sensor_ids, dtype=np.int64), len(times)),
                    np.repeat(np.asarray(times, dtype=np.float64), len(sensor_ids)),
                    np.where(valid, d, NO_TARGET).reshape(-1, n_zones),
                    valid.reshape(-1, n_zones))


def capture_frame(sensor_id: int, sensor_pose: Pose, bvh: Bvh, t: float,
                  spec: ToFSpec, rng: np.random.Generator) -> ToFTable:
    """One sensor's frame, its zone rays cast through bvh, as a one-row
    ToFTable; see capture_frames."""
    origins, directions = zone_rays(sensor_pose[None], spec)
    dist = bvh.raycast_many(origins, directions, spec.max_range)
    return capture_frames([sensor_id], [t], dist, spec, [rng])


def frame_times(duration: float, spec: ToFSpec):
    """Strictly periodic frame timestamps k/rate in [0, duration)."""
    if duration <= 0.0:
        return np.zeros(0)
    n = int(math.ceil(duration * spec.rate - 1e-12))
    return np.arange(n, dtype=np.float64) / spec.rate
