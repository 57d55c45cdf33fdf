"""Surface offsetting, covering extrusion, and support generation.

The dermis is produced by displacing every vertex of the input mesh along
its angle-weighted vertex normal; the compliant covering is the same
displacement applied to the dermis. Both preserve connectivity, which keeps
dermis/covering point correspondence trivial for support placement.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import PlacementError, SelfIntersectionError
from .mesh import Material, TriMesh, sample_surface

logger = logging.getLogger(__name__)

UNIT_TOL = 1e-9


@dataclass(frozen=True)
class OffsetSpec:
    """Outward offset distance in meters.

    Zero is tolerated as a degenerate identity case (some callers use it as
    a no-op); negative distances are rejected.
    """

    distance: float
    direction: str = "OUTWARD"

    def __post_init__(self):
        if self.distance < 0.0:
            raise ValueError(f"offset distance must be >= 0, got {self.distance}")
        if self.direction != "OUTWARD":
            raise ValueError(f"unsupported offset direction {self.direction!r}")


@dataclass(frozen=True)
class Footprint:
    """Keep-out disk on the surface: supports stay clear of it."""

    center: tuple
    normal: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        n = np.asarray(self.normal, dtype=np.float64)
        if abs(np.linalg.norm(n) - 1.0) > UNIT_TOL:
            raise ValueError(f"footprint normal must be unit length, |n|={np.linalg.norm(n)}")
        object.__setattr__(self, "normal", tuple(float(c) for c in n))
        if self.radius <= 0.0:
            raise ValueError(f"footprint radius must be > 0, got {self.radius}")


def _displace_along_vertex_normals(mesh: TriMesh, distance: float) -> np.ndarray:
    normals = mesh.vertex_normals()
    return mesh.vertices + distance * normals


def offset_surface(mesh: TriMesh, spec: OffsetSpec, strict: bool = False) -> TriMesh:
    """Offset copy of the mesh, displaced outward, tagged STRUCTURAL.

    Raises SelfIntersectionError in strict mode when the offset surface
    crosses itself; otherwise the crossing is logged as a warning.
    """
    out = TriMesh.from_arrays(
        _displace_along_vertex_normals(mesh, spec.distance),
        mesh.faces.copy(), Material.STRUCTURAL)
    _handle_self_intersections(out, strict, "offset surface")
    return out


def extrude_covering(dermis: TriMesh, spec: OffsetSpec, strict: bool = False) -> TriMesh:
    """Displaced copy of the dermis tagged FLEXIBLE; never welded to it."""
    if spec.distance == 0.0:
        logger.warning("covering extruded with zero offset: coincident with dermis")
    out = TriMesh.from_arrays(
        _displace_along_vertex_normals(dermis, spec.distance),
        dermis.faces.copy(), Material.FLEXIBLE)
    _handle_self_intersections(out, strict, "covering")
    return out


def _handle_self_intersections(mesh: TriMesh, strict: bool, what: str):
    pairs = self_intersections(mesh, max_pairs=1 if strict else 16)
    if pairs:
        msg = f"{what} self-intersects ({len(pairs)} crossing face pair(s), e.g. {pairs[0]})"
        if strict:
            raise SelfIntersectionError(msg)
        logger.warning(msg)


def self_intersections(mesh: TriMesh, max_pairs: int = 16):
    """Crossing (non-adjacent) face pairs, found by edge-vs-triangle tests.

    Pairs sharing a vertex are skipped, as are coplanar overlaps - the check
    targets surface fold-over from offsetting, which always produces proper
    crossings.
    """
    tri = mesh.triangles()
    lo = tri.min(axis=1)
    hi = tri.max(axis=1)
    n = mesh.n_faces
    found = []
    # Broad phase: AABB overlap, chunked to bound memory.
    chunk = max(1, min(n, 20_000_000 // max(n, 1)))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        overlap = np.all(lo[start:stop, None, :] <= hi[None, :, :], axis=2)
        overlap &= np.all(hi[start:stop, None, :] >= lo[None, :, :], axis=2)
        ii, jj = np.nonzero(overlap)
        ii = ii + start
        keep = ii < jj
        ii, jj = ii[keep], jj[keep]
        for a, b in zip(ii, jj):
            fa, fb = mesh.faces[a], mesh.faces[b]
            if set(fa.tolist()) & set(fb.tolist()):
                continue
            if _triangles_cross(tri[a], tri[b]):
                found.append((int(a), int(b)))
                if len(found) >= max_pairs:
                    return found
    return found


def _triangles_cross(ta, tb):
    return _any_edge_pierces(ta, tb) or _any_edge_pierces(tb, ta)


def _any_edge_pierces(tri_edges, tri_target):
    v0, v1, v2 = tri_target
    e1 = v1 - v0
    e2 = v2 - v0
    eps = 1e-12
    for k in range(3):
        o = tri_edges[k]
        d = tri_edges[(k + 1) % 3] - o
        p = np.cross(d, e2)
        det = np.dot(e1, p)
        if abs(det) < eps:
            continue
        inv = 1.0 / det
        s = o - v0
        u = np.dot(s, p) * inv
        if u <= eps or u >= 1.0 - eps:
            continue
        q = np.cross(s, e1)
        v = np.dot(d, q) * inv
        if v <= eps or u + v >= 1.0 - eps:
            continue
        t = np.dot(e2, q) * inv
        if eps < t < 1.0 - eps:
            return True
    return False


def generate_supports(dermis: TriMesh, covering: TriMesh, keepouts,
                      spacing: float, seed: int, radius: float = 0.002,
                      segments: int = 12, candidate_budget: int = 20_000):
    """Distribute support cylinders between dermis and covering.

    Placement is saturated dart throwing: area-uniform candidate points on
    the dermis, accepted greedily when at least `spacing` from every
    accepted support and clear of every keepout (in-plane distance from the
    keepout center >= keepout radius + support radius). Deterministic for a
    fixed seed. Raises PlacementError when nothing can be placed.
    """
    if covering.n_vertices != dermis.n_vertices or covering.n_faces != dermis.n_faces:
        raise ValueError("covering must be an offset copy of the dermis (same connectivity)")
    if spacing <= 0.0 or radius <= 0.0:
        raise ValueError("support spacing and radius must be > 0")
    rng = np.random.default_rng(seed)
    pos, face_idx, bary = sample_surface(dermis, candidate_budget, rng)

    # One keepout at a time: a (candidates, keepouts, 3) array would take
    # tens of MB, and glibc keeps the heap of later calls that large.
    keepouts = list(keepouts)
    blocked = np.zeros(len(pos), dtype=bool)
    for k in keepouts:
        rel = pos - np.asarray(k.center, dtype=np.float64)
        axial = np.einsum("ij,j->i", rel, np.asarray(k.normal, dtype=np.float64))
        inplane_sq = np.einsum("ij,ij->i", rel, rel) - axial * axial
        r = float(k.radius) + radius
        blocked |= inplane_sq < r * r

    # Greedy dart throwing with a grid hash: a conflict closer than
    # `spacing` can only sit in the same or an adjacent cell.
    spacing_sq = spacing * spacing
    inv_cell = 1.0 / spacing
    grid = {}
    accepted = []
    pos_list = pos.tolist()
    for c in range(candidate_budget):
        if blocked[c]:
            continue
        x, y, z = pos_list[c]
        ix = math.floor(x * inv_cell)
        iy = math.floor(y * inv_cell)
        iz = math.floor(z * inv_cell)
        ok = True
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    for px, py, pz in grid.get((ix + dx, iy + dy, iz + dz), ()):
                        if (x - px) ** 2 + (y - py) ** 2 + (z - pz) ** 2 < spacing_sq:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        grid.setdefault((ix, iy, iz), []).append((x, y, z))
        accepted.append(c)

    if not accepted:
        raise PlacementError(
            f"no support placement possible with {len(keepouts)} keepout(s) "
            f"and spacing {spacing}")
    accepted_pos = [pos[c] for c in accepted]
    accepted_face = [face_idx[c] for c in accepted]
    accepted_bary = [bary[c] for c in accepted]

    supports = []
    cover_tris = covering.vertices[covering.faces]
    for p, f, b in zip(accepted_pos, accepted_face, accepted_bary):
        top = np.einsum("j,jk->k", b, cover_tris[f])
        supports.append(_support_cylinder(p, top, radius, segments))
    return supports


def _support_cylinder(base, top, radius, segments):
    """Closed cylinder from base to top, tagged FLEXIBLE."""
    axis = np.asarray(top, dtype=np.float64) - np.asarray(base, dtype=np.float64)
    length = np.linalg.norm(axis)
    if length <= 0.0:
        raise ValueError("support has zero length (coincident dermis/covering points)")
    n = axis / length
    t1, t2 = tangent_frame(n)
    phis = 2.0 * np.pi * np.arange(segments) / segments
    circle = np.outer(np.cos(phis), t1) + np.outer(np.sin(phis), t2)
    verts = np.vstack([
        base + radius * circle,
        top + radius * circle,
        [base, top],
    ])
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


def tangent_frame(normal):
    """Deterministic orthonormal (t1, t2) completing the given unit normal."""
    n = np.asarray(normal, dtype=np.float64)
    ref = np.array([1.0, 0.0, 0.0]) if abs(n[0]) <= 0.9 else np.array([0.0, 1.0, 0.0])
    t1 = np.cross(n, ref)
    t1 = t1 / np.linalg.norm(t1)
    t2 = np.cross(n, t1)
    return t1, t2
