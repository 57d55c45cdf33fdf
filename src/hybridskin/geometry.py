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

    def __post_init__(self):
        if self.distance < 0.0:
            raise ValueError(f"offset distance must be >= 0, got {self.distance}")


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
    cap = 1 if strict else 16
    pairs = self_intersections(mesh, max_pairs=cap)
    if pairs:
        count = f"at least {len(pairs)}" if len(pairs) == cap else str(len(pairs))
        msg = f"{what} self-intersects ({count} crossing face pair(s), e.g. {pairs[0]})"
        if strict:
            raise SelfIntersectionError(msg)
        logger.warning(msg)


# Candidate (face, face) rows the broad phase holds at once.
SWEEP_BLOCK_ROWS = 1 << 17
# Candidate points drawn on the dermis per generate_supports call.
SUPPORT_CANDIDATES = 20_000


def self_intersections(mesh: TriMesh, max_pairs: int = 16):
    """Crossing (non-adjacent) face pairs, found by edge-vs-triangle tests.

    Returns the first max_pairs crossing pairs (a, b), a < b, in
    lexicographic order (a max_pairs below 1 counts as 1). Pairs sharing a
    vertex are skipped, as are coplanar overlaps - the check targets surface
    fold-over from offsetting, which always produces proper crossings.

    Broad phase: sweep and prune. The faces are sorted by the low end of
    their bounding box on the axis of largest extent; each face's candidates
    are the later faces whose box starts no further along that axis than its
    own box ends (touching boxes count). The sorted faces are expanded to
    candidate rows in blocks of at most SWEEP_BLOCK_ROWS rows (one face's
    candidates are never split), and the rows whose boxes also overlap on
    the other two axes go to one row-wise edge-vs-triangle test.
    """
    faces = mesh.faces
    n = len(faces)
    if n < 2:
        return []
    tri = mesh.triangles()
    lo = tri.min(axis=1)
    hi = tri.max(axis=1)
    axis = int(np.argmax(hi.max(axis=0) - lo.min(axis=0)))
    others = [k for k in range(3) if k != axis]
    order = np.argsort(lo[:, axis], kind="stable")
    end = np.searchsorted(lo[order, axis], hi[order, axis], side="right")
    count = end - np.arange(1, n + 1)  # >= 0, as every box has lo <= hi
    first_row = np.concatenate(([0], np.cumsum(count)))

    found_a, found_b = [], []
    start = 0
    while start < n:
        stop = int(np.searchsorted(first_row, first_row[start] + SWEEP_BLOCK_ROWS,
                                   side="right")) - 1
        stop = min(n, max(start + 1, stop))
        c = count[start:stop]
        # Row r of face a pairs it with the r-th sorted face after it.
        a = np.repeat(np.arange(start, stop), c)
        b = a + 1 + np.arange(len(a)) - np.repeat(first_row[start:stop] - first_row[start], c)
        start = stop
        a, b = order[a], order[b]
        # On the sweep axis the boxes overlap by construction.
        keep = np.ones(len(a), dtype=bool)
        for k in others:
            keep &= (lo[a, k] <= hi[b, k]) & (hi[a, k] >= lo[b, k])
        a, b = a[keep], b[keep]
        shared = (faces[a][:, :, None] == faces[b][:, None, :]).any(axis=(1, 2))
        a, b = a[~shared], b[~shared]
        ta, tb = tri[a], tri[b]
        cross = _edges_pierce(ta, tb) | _edges_pierce(tb, ta)
        found_a.append(np.minimum(a[cross], b[cross]))
        found_b.append(np.maximum(a[cross], b[cross]))

    fa = np.concatenate(found_a)
    fb = np.concatenate(found_b)
    first = np.lexsort((fb, fa))[:max(max_pairs, 1)]
    return [(int(x), int(y)) for x, y in zip(fa[first], fb[first])]


def _rowdot(x, y):
    """Dot product over the last axis; each row equals np.dot of that pair bit for bit."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _edges_pierce(src, dst):
    """Row k: does an edge of triangle src[k] cross the interior of dst[k]?

    Moller-Trumbore on edge segments with strict interior bounds, so that
    touching and coplanar contact is not a crossing.
    """
    eps = 1e-12
    v0 = dst[:, 0]
    e1 = dst[:, 1] - v0
    e2 = dst[:, 2] - v0
    hit = np.zeros(len(src), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(3):
            o = src[:, k]
            d = src[:, (k + 1) % 3] - o
            p = np.cross(d, e2)
            det = _rowdot(e1, p)
            inv = 1.0 / det
            s = o - v0
            u = _rowdot(s, p) * inv
            q = np.cross(s, e1)
            v = _rowdot(d, q) * inv
            t = _rowdot(e2, q) * inv
            hit |= ((np.abs(det) >= eps) & (u > eps) & (u < 1.0 - eps) & (v > eps)
                    & (u + v < 1.0 - eps) & (t > eps) & (t < 1.0 - eps))
    return hit


def generate_supports(dermis: TriMesh, covering: TriMesh, keepouts,
                      spacing: float, seed: int, radius: float = 0.002,
                      segments: int = 12):
    """Distribute support cylinders between dermis and covering.

    Placement is saturated dart throwing: area-uniform candidate points on
    the dermis, accepted greedily when at least `spacing` from every
    accepted support and clear of every keepout. A support's top sits at
    the same barycentric position on the covering; the covering is offset
    along vertex normals, so on a curved surface the top can lean into a
    keepout that the base clears. Both ends must therefore keep an in-plane
    distance from the keepout center >= keepout radius + support radius.
    Deterministic for a fixed seed. Raises PlacementError when nothing can
    be placed.
    """
    if covering.n_vertices != dermis.n_vertices or covering.n_faces != dermis.n_faces:
        raise ValueError("covering must be an offset copy of the dermis (same connectivity)")
    if spacing <= 0.0 or radius <= 0.0:
        raise ValueError("support spacing and radius must be > 0")
    rng = np.random.default_rng(seed)
    pos, face_idx, bary = sample_surface(dermis, SUPPORT_CANDIDATES, rng)
    top = np.einsum("ij,ijk->ik", bary, covering.vertices[covering.faces[face_idx]])

    # One keepout at a time: a (candidates, keepouts, 3) array would take
    # tens of MB, and glibc keeps the heap of later calls that large.
    keepouts = list(keepouts)
    blocked = np.zeros(len(pos), dtype=bool)
    for k in keepouts:
        center = np.asarray(k.center, dtype=np.float64)
        normal = np.asarray(k.normal, dtype=np.float64)
        r = float(k.radius) + radius
        for end in (pos, top):
            rel = end - center
            axial = np.einsum("ij,j->i", rel, normal)
            blocked |= np.einsum("ij,ij->i", rel, rel) - axial * axial < r * r

    # Greedy dart throwing with a grid hash: a conflict closer than
    # `spacing` can only sit in the same or an adjacent cell.
    spacing_sq = spacing * spacing
    inv_cell = 1.0 / spacing
    grid = {}
    accepted = []
    pos_list = pos.tolist()
    for c in range(SUPPORT_CANDIDATES):
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
    return [_support_cylinder(pos[c], top[c], radius, segments) for c in accepted]


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
