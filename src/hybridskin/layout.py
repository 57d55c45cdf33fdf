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
from .geometry import Footprint, generate_supports, tangent_frame
from .mesh import Material, TriMesh, sample_surface

BARY_TOL = 1e-9
DEFAULT_COUPLING_GAP = 0.001  # m, radial clearance between mount and ring
_CLEAR_ROWS = 1 << 16  # (point, site) rows per distance test in sample_sites


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
    mounts: list      # (site_id, TriMesh, Footprint)
    supports: list    # TriMesh
    sites: list       # SurfaceSite

    def __post_init__(self):
        known = {s.site_id for s in self.sites}
        for sid, _ in self.rings:
            if sid not in known:
                raise ValueError(f"ring references unknown site {sid}")
        for sid, _, _ in self.mounts:
            if sid not in known:
                raise ValueError(f"mount references unknown site {sid}")


def _clear_of(points, sites, min_sq):
    """Mask of the points whose squared distance to every site is >= min_sq.

    Each (point, site) row goes through the same einsum as a one-point
    test, so the distances carry the same bits whatever the batch size.
    At most _CLEAR_ROWS rows are held at once.
    """
    clear = np.ones(len(points), dtype=bool)
    if len(sites) == 0:
        return clear
    step = max(1, _CLEAR_ROWS // len(sites))
    for s in range(0, len(points), step):
        diff = (sites[None, :, :] - points[s:s + step, None, :]).reshape(-1, 3)
        d2 = np.einsum("ij,ij->i", diff, diff).reshape(-1, len(sites))
        clear[s:s + step] = ~np.any(d2 < min_sq, axis=1)
    return clear


def sample_sites(dermis: TriMesh, count: int, min_dist: float, seed: int,
                 max_attempts: int = None):
    """Place `count` sites with pairwise distance >= min_dist by dart throwing.

    Proposals are area-uniform over the dermis; a proposal closer than
    min_dist to an accepted site is rejected. Raises SaturationError when
    the attempt budget (default 10,000 x count) runs out first.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if min_dist < 0.0:
        raise ValueError("min_dist must be >= 0")
    if max_attempts is None:
        max_attempts = 10_000 * count
    rng = np.random.default_rng(seed)
    face_normals = dermis.face_normals()

    accepted = []
    min_sq = min_dist * min_dist
    attempts = 0
    batch = max(64, count)
    while len(accepted) < count:
        if attempts >= max_attempts:
            raise SaturationError(
                f"placed {len(accepted)}/{count} sites after {attempts} attempts "
                f"(min_dist={min_dist})")
        n = min(batch, max_attempts - attempts)
        pos, face_idx, bary = sample_surface(dermis, n, rng)
        # The whole batch against the sites accepted before it in one pass;
        # a survivor then only needs the sites this batch has accepted.
        clear = _clear_of(pos, np.asarray([a[0] for a in accepted]), min_sq)
        fresh = []
        for c in range(n):
            attempts += 1
            if not clear[c] or not _clear_of(pos[c:c + 1], pos[fresh], min_sq)[0]:
                continue
            fresh.append(c)
            accepted.append((pos[c], int(face_idx[c]), bary[c]))
            if len(accepted) == count:
                break

    sites = []
    for sid, (p, f, b) in enumerate(accepted):
        sites.append(SurfaceSite(site_id=sid, face_index=f,
                                 barycentric=tuple(b), position=tuple(p),
                                 normal=tuple(face_normals[f])))
    return sites


def instance_ring(site: SurfaceSite, spec: RingSpec) -> TriMesh:
    """Open-center annular prism on the site's tangent plane, CONDUCTIVE.

    The annulus sits on the surface (base at the site, extruded along the
    site normal). 4 x segments vertices, 8 x segments faces, closed.
    """
    n = np.asarray(site.normal)
    t1, t2 = tangent_frame(n)
    base = np.asarray(site.position)
    s = spec.segments
    phis = 2.0 * np.pi * np.arange(s) / s
    circle = np.outer(np.cos(phis), t1) + np.outer(np.sin(phis), t2)
    rings = [base + spec.inner_radius * circle,
             base + spec.outer_radius * circle,
             base + spec.inner_radius * circle + spec.height * n,
             base + spec.outer_radius * circle + spec.height * n]
    verts = np.vstack(rings)
    IB, OB, IT, OT = 0, s, 2 * s, 3 * s
    faces = []
    for j in range(s):
        k = (j + 1) % s
        faces.append([IB + j, OB + k, OB + j])   # bottom annulus (-n)
        faces.append([IB + j, IB + k, OB + k])
        faces.append([IT + j, OT + j, OT + k])   # top annulus (+n)
        faces.append([IT + j, OT + k, IT + k])
        faces.append([OB + j, OB + k, OT + k])   # outer wall (radial out)
        faces.append([OB + j, OT + k, OT + j])
        faces.append([IB + j, IT + k, IB + k])   # inner wall (radial in)
        faces.append([IB + j, IT + j, IT + k])
    return TriMesh.from_arrays(verts, faces, Material.CONDUCTIVE)


def instance_mount(site: SurfaceSite, spec: MountSpec):
    """Solid cylindrical mount body (STRUCTURAL) plus its keepout footprint."""
    n = np.asarray(site.normal)
    t1, t2 = tangent_frame(n)
    base = np.asarray(site.position)
    s = 32
    phis = 2.0 * np.pi * np.arange(s) / s
    circle = np.outer(np.cos(phis), t1) + np.outer(np.sin(phis), t2)
    verts = np.vstack([
        base + spec.footprint_radius * circle,
        base + spec.footprint_radius * circle + spec.height * n,
        [base, base + spec.height * n],
    ])
    bot_c, top_c = 2 * s, 2 * s + 1
    faces = []
    for j in range(s):
        k = (j + 1) % s
        faces.append([j, k, s + k])
        faces.append([j, s + k, s + j])
        faces.append([bot_c, k, j])
        faces.append([top_c, s + j, s + k])
    body = TriMesh.from_arrays(verts, faces, Material.STRUCTURAL)
    return body, Footprint(center=site.position, normal=site.normal,
                           radius=spec.footprint_radius)


def compose_skin(dermis: TriMesh, covering: TriMesh, sites, ring_spec: RingSpec,
                 mount_spec: MountSpec, support_spacing: float = 0.02,
                 support_radius: float = 0.002, seed: int = 0,
                 coupling_gap: float = DEFAULT_COUPLING_GAP,
                 support_segments: int = 12) -> SkinAssembly:
    """Assemble the full skin: a ring + mount at every site, plus supports.

    Supports avoid a keepout disk per site sized to clear both the mount
    footprint and the ring's outer radius. Raises CouplingGapError when the
    ring's inner radius leaves less than `coupling_gap` around the mount.
    """
    gap = ring_spec.inner_radius - mount_spec.footprint_radius
    if gap < coupling_gap:
        raise CouplingGapError(
            f"ring inner radius {ring_spec.inner_radius} minus mount radius "
            f"{mount_spec.footprint_radius} leaves {gap:.4g} m, "
            f"below the coupling gap {coupling_gap}")

    rings = []
    mounts = []
    keepouts = []
    keepout_radius = max(mount_spec.footprint_radius, ring_spec.outer_radius)
    for site in sites:
        rings.append((site.site_id, instance_ring(site, ring_spec)))
        body, footprint = instance_mount(site, mount_spec)
        mounts.append((site.site_id, body, footprint))
        keepouts.append(Footprint(center=site.position, normal=site.normal,
                                  radius=keepout_radius))

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
