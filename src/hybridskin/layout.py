"""Sensor site distribution and ring/mount instancing on the dermis.

Sites are placed by area-uniform dart throwing with a minimum pairwise
distance, so the layout is random but printable. Each site receives one
conductive ring and one structural mount (a hybrid nodule); the ring is
hollow so the mount electronics sit inside it with a configurable radial
coupling gap.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CouplingGapError, SaturationError
from .geometry import (Footprint, _greedy_place, cylinder_faces, generate_supports,
                       tangent_frame, unit_circle)
from .mesh import Material, TriMesh, sample_surface

BARY_TOL = 1e-9
DEFAULT_COUPLING_GAP = 0.001  # m, radial clearance between mount and ring
MOUNT_SEGMENTS = 32  # sides of a mount's cylinder


@dataclass(frozen=True)
class SurfaceSite:
    site_id: int
    face_index: int
    barycentric: tuple
    position: tuple
    normal: tuple

    def __post_init__(self):
        b = np.asarray(self.barycentric, dtype=np.float64)
        if np.any(b < -BARY_TOL) or abs(b.sum() - 1.0) > BARY_TOL:
            raise ValueError(f"barycentric coordinates invalid: {self.barycentric}")
        object.__setattr__(self, "barycentric", tuple(float(x) for x in b))
        object.__setattr__(self, "position", tuple(float(x) for x in self.position))
        n = np.asarray(self.normal, dtype=np.float64)
        if abs(np.linalg.norm(n) - 1.0) > BARY_TOL:
            raise ValueError("site normal must be unit length")
        object.__setattr__(self, "normal", tuple(float(x) for x in n))


@dataclass(frozen=True)
class RingSpec:
    inner_radius: float = 0.008
    outer_radius: float = 0.014
    height: float = 0.002
    segments: int = 64

    def __post_init__(self):
        if not 0.0 < self.inner_radius < self.outer_radius:
            raise ValueError(
                f"need 0 < inner ({self.inner_radius}) < outer ({self.outer_radius})")
        if self.height <= 0.0:
            raise ValueError("ring height must be > 0")
        if self.segments < 8:
            raise ValueError("ring needs at least 8 segments")


@dataclass(frozen=True)
class MountSpec:
    footprint_radius: float = 0.007
    height: float = 0.004

    def __post_init__(self):
        if self.footprint_radius <= 0.0 or self.height <= 0.0:
            raise ValueError("mount footprint_radius and height must be > 0")


@dataclass
class SkinAssembly:
    dermis: TriMesh
    covering: TriMesh
    rings: list       # (site_id, TriMesh)
    mounts: list      # (site_id, TriMesh)
    supports: list    # TriMesh
    sites: list       # SurfaceSite

    def __post_init__(self):
        known = {s.site_id for s in self.sites}
        for sid, _ in self.rings:
            if sid not in known:
                raise ValueError(f"ring references unknown site {sid}")
        for sid, _ in self.mounts:
            if sid not in known:
                raise ValueError(f"mount references unknown site {sid}")


def sample_sites(dermis: TriMesh, count: int, min_dist: float, seed: int,
                 max_attempts: int = None):
    """Place `count` sites with pairwise distance >= min_dist by dart throwing.

    Proposals are area-uniform over the dermis; a proposal closer than
    min_dist to an accepted site is rejected, by the same greedy pass that
    spaces the supports (geometry._greedy_place). Raises SaturationError
    when the attempt budget (default 10,000 x count) runs out first.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if min_dist < 0.0:
        raise ValueError("min_dist must be >= 0")
    if max_attempts is None:
        max_attempts = 10_000 * count
    rng = np.random.default_rng(seed)
    face_normals = dermis.face_normals()

    pos, faces, barys = np.empty((0, 3)), [], []
    attempts = 0
    batch = max(64, count)
    while len(pos) < count:
        if attempts >= max_attempts:
            raise SaturationError(
                f"placed {len(pos)}/{count} sites after {attempts} attempts "
                f"(min_dist={min_dist})")
        n = min(batch, max_attempts - attempts)
        p, f, b = sample_surface(dermis, n, rng)
        # The sites placed so far go first: they are clear of each other, so
        # the greedy pass keeps them all and takes a proposal only when it
        # clears them and the proposals taken before it in this batch.
        placed = len(pos)
        taken = _greedy_place(np.vstack([pos, p]), np.zeros(placed + n, dtype=bool),
                              min_dist)[placed:count] - placed
        pos = np.vstack([pos, p[taken]])
        faces += f[taken].tolist()
        barys += list(b[taken])
        attempts += int(taken[-1]) + 1 if len(pos) == count else n

    sites = []
    for sid, (p, f, b) in enumerate(zip(pos, faces, barys)):
        sites.append(SurfaceSite(site_id=sid, face_index=f,
                                 barycentric=tuple(b), position=tuple(p),
                                 normal=tuple(face_normals[f])))
    return sites


def instance_ring(site: SurfaceSite, spec: RingSpec, circle) -> TriMesh:
    """Open-center annular prism on the site's tangent plane, CONDUCTIVE.

    circle holds spec.segments unit vectors on the site's tangent plane
    (geometry.unit_circle). The annulus sits on the surface (base at the
    site, extruded along the site normal). 4 x segments vertices,
    8 x segments faces, closed.
    """
    n = np.asarray(site.normal)
    base = np.asarray(site.position)
    rings = [base + spec.inner_radius * circle,
             base + spec.outer_radius * circle,
             base + spec.inner_radius * circle + spec.height * n,
             base + spec.outer_radius * circle + spec.height * n]
    s = spec.segments
    j = np.arange(s)
    k = (j + 1) % s
    IB, OB, IT, OT = 0, s, 2 * s, 3 * s
    faces = np.array([
        [IB + j, OB + k, OB + j], [IB + j, IB + k, OB + k],   # bottom annulus (-n)
        [IT + j, OT + j, OT + k], [IT + j, OT + k, IT + k],   # top annulus (+n)
        [OB + j, OB + k, OT + k], [OB + j, OT + k, OT + j],   # outer wall (radial out)
        [IB + j, IT + k, IB + k], [IB + j, IT + j, IT + k],   # inner wall (radial in)
    ]).transpose(2, 0, 1).reshape(-1, 3)
    return TriMesh.from_arrays(np.vstack(rings), faces, Material.CONDUCTIVE)


def instance_mount(site: SurfaceSite, spec: MountSpec, circle) -> TriMesh:
    """Solid cylindrical mount body on the site, STRUCTURAL.

    circle holds MOUNT_SEGMENTS unit vectors on the site's tangent plane.
    """
    n = np.asarray(site.normal)
    base = np.asarray(site.position)
    verts = np.vstack([
        base + spec.footprint_radius * circle,
        base + spec.footprint_radius * circle + spec.height * n,
        [base, base + spec.height * n],
    ])
    return TriMesh.from_arrays(verts, cylinder_faces(len(circle)), Material.STRUCTURAL)


def compose_skin(dermis: TriMesh, covering: TriMesh, sites, ring_spec: RingSpec,
                 mount_spec: MountSpec, support_spacing: float = 0.02,
                 support_radius: float = 0.002, seed: int = 0,
                 coupling_gap: float = DEFAULT_COUPLING_GAP,
                 support_segments: int = 12) -> SkinAssembly:
    """Assemble the full skin: a ring + mount at every site, plus supports.

    Both ends of every support avoid a keepout per site sized to clear both
    the mount footprint and the ring's outer radius. Raises CouplingGapError
    when the ring's inner radius leaves less than `coupling_gap` around the
    mount.
    """
    gap = ring_spec.inner_radius - mount_spec.footprint_radius
    if gap < coupling_gap:
        raise CouplingGapError(
            f"ring inner radius {ring_spec.inner_radius} minus mount radius "
            f"{mount_spec.footprint_radius} leaves {gap:.4g} m, "
            f"below the coupling gap {coupling_gap}")

    # One tangent frame per site, batched, serves its ring and its mount.
    frame = tangent_frame(np.array([site.normal for site in sites]).reshape(-1, 3))
    rings = [(site.site_id, instance_ring(site, ring_spec, circle))
             for site, circle in zip(sites, unit_circle(ring_spec.segments, *frame))]
    mounts = [(site.site_id, instance_mount(site, mount_spec, circle))
              for site, circle in zip(sites, unit_circle(MOUNT_SEGMENTS, *frame))]
    keepout_radius = max(mount_spec.footprint_radius, ring_spec.outer_radius)
    keepouts = [Footprint(center=site.position, normal=site.normal, radius=keepout_radius)
                for site in sites]

    supports = generate_supports(dermis, covering, keepouts,
                                 spacing=support_spacing, seed=seed,
                                 radius=support_radius, segments=support_segments)
    return SkinAssembly(dermis=dermis, covering=covering, rings=rings,
                        mounts=mounts, supports=supports, sites=sites)


# ---------------------------------------------------------------------------
# Assembly manifest (consumed by the kinematics/simulation side)
# ---------------------------------------------------------------------------

def manifest_dict(assembly: SkinAssembly, ring_spec: RingSpec,
                  mount_spec: MountSpec, material_files=None):
    return {
        "sites": [
            {
                "site_id": s.site_id,
                "face_index": s.face_index,
                "barycentric": list(s.barycentric),
                "position": list(s.position),
                "normal": list(s.normal),
            }
            for s in assembly.sites
        ],
        "ring": {
            "inner_radius": ring_spec.inner_radius,
            "outer_radius": ring_spec.outer_radius,
            "height": ring_spec.height,
            "segments": ring_spec.segments,
        },
        "mount": {
            "footprint_radius": mount_spec.footprint_radius,
            "height": mount_spec.height,
        },
        "support_count": len(assembly.supports),
        "materials": {k: str(v) for k, v in (material_files or {}).items()},
    }


def write_manifest(path, assembly, ring_spec, mount_spec, material_files=None):
    data = manifest_dict(assembly, ring_spec, mount_spec, material_files)
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def read_manifest(path):
    return json.loads(Path(path).read_text())
