"""Surface offsetting, covering extrusion, and support generation.

The dermis is produced by displacing every vertex of the input mesh along
its angle-weighted vertex normal; the compliant covering is the same
displacement applied to the dermis. Both preserve connectivity, which keeps
dermis/covering point correspondence trivial for support placement.
"""

import logging
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
BROAD_BLOCK_ROWS = 1 << 17
# A face whose box covers more grid cells than this is paired with every face.
GRID_MAX_CELLS = 64
# Grid cells per axis at most, which keeps a cell's linear index in int64.
_GRID_AXIS_CELLS = 1 << 20
# Candidate points drawn on the dermis per generate_supports call.
SUPPORT_CANDIDATES = 20_000
# Candidates per (candidates, keepouts) product in _keepout_blocked; small
# blocks keep the product's temporaries, and the peak RSS, small.
_KEEPOUT_ROWS = 512


def self_intersections(mesh: TriMesh, max_pairs: int = 16):
    """Crossing (non-adjacent) face pairs, found by edge-vs-triangle tests.

    Returns the first max_pairs crossing pairs (a, b), a < b, in
    lexicographic order (a max_pairs below 1 counts as 1). Pairs sharing a
    vertex are skipped, as are coplanar overlaps - the check targets surface
    fold-over from offsetting, which always produces proper crossings.

    Broad phase: a uniform grid (Ericson, Real-Time Collision Detection,
    2005, 7.1) whose cell edge on each axis is the median face-box extent.
    Each face goes into every cell its box covers, and two faces are paired
    only in the cell that holds the larger of their boxes' low corners, so
    two overlapping boxes come up once. A face covering more than
    GRID_MAX_CELLS cells, or with a non-finite corner, is paired with every
    other face instead (every face, if the corners lie too far apart to
    subtract). Candidate rows go in blocks of at most
    BROAD_BLOCK_ROWS rows, and those whose boxes overlap on all three axes
    (touching boxes count) go to one row-wise edge-vs-triangle test.
    """
    faces = mesh.faces
    n = len(faces)
    if n < 2:
        return []
    tri = mesh.triangles()
    lo = tri.min(axis=1)
    hi = tri.max(axis=1)
    found_a, found_b = [], []
    # One contiguous column per axis and per corner: 1-D gathers are cheaper.
    lo_k, hi_k, corner = lo.T.copy(), hi.T.copy(), faces.T.copy()
    for a, b in _grid_candidates(lo, hi):
        keep = np.ones(len(a), dtype=bool)
        for k in range(3):
            keep &= (lo_k[k][a] <= hi_k[k][b]) & (hi_k[k][a] >= lo_k[k][b])
        a, b = a[keep], b[keep]
        corners_b = [c[b] for c in corner]
        shared = np.zeros(len(a), dtype=bool)
        for c in corner:
            corner_a = c[a]
            for corner_b in corners_b:
                shared |= corner_a == corner_b
        a, b = a[~shared], b[~shared]
        ta, tb = tri[a], tri[b]
        cross = _edges_pierce(ta, tb) | _edges_pierce(tb, ta)
        found_a.append(np.minimum(a[cross], b[cross]))
        found_b.append(np.maximum(a[cross], b[cross]))

    fa = np.concatenate(found_a)
    fb = np.concatenate(found_b)
    first = np.lexsort((fb, fa))[:max(max_pairs, 1)]
    return [(int(x), int(y)) for x, y in zip(fa[first], fb[first])]


def _grid_candidates(lo, hi):
    """Blocks (a, b) of face pairs that hold every pair of overlapping boxes once."""
    n = len(lo)
    finite = np.isfinite(lo).all(axis=1) & np.isfinite(hi).all(axis=1)
    lo_f, hi_f = lo[finite], hi[finite]
    cell_lo = np.zeros((n, 3), dtype=np.int64)
    cell_hi = np.zeros((n, 3), dtype=np.int64)
    with np.errstate(over="ignore"):
        origin = lo_f.min(axis=0, initial=np.inf)
        span = hi_f.max(axis=0, initial=-np.inf) - origin
    if not np.isfinite(span).all():
        finite[:] = False  # nothing finite, or too far apart to subtract: pair all
    else:
        edge = np.median(hi_f - lo_f, axis=0)
        edge = np.maximum(np.where(edge > 0.0, edge, span), span / _GRID_AXIS_CELLS)
        edge[edge == 0.0] = 1.0
        cell_lo[finite] = ((lo_f - origin) / edge).astype(np.int64)
        cell_hi[finite] = ((hi_f - origin) / edge).astype(np.int64)
    width = cell_hi - cell_lo + 1
    covered = width.prod(axis=1)
    big = ~finite | (covered > GRID_MAX_CELLS)

    # Large faces first, each paired with every later face of [large, small].
    large = np.flatnonzero(big)
    order = np.concatenate([large, np.flatnonzero(~big)])
    count = np.zeros(n, dtype=np.int64)
    count[:len(large)] = n - 1 - np.arange(len(large))
    if len(large):
        for p, q in _row_blocks(count):
            yield order[p], order[q]

    # The small faces' (face, cell) entries, by cell and then face. Bit k of
    # an entry's `low` says its cell is its face's lowest on axis k; the
    # cell of the larger low corner is the one where the pair's bits cover
    # all three axes.
    small = np.flatnonzero(~big)
    face = np.repeat(small, covered[small])
    k = np.arange(len(face)) - np.repeat(np.cumsum(covered[small]) - covered[small],
                                         covered[small])
    key = np.zeros(len(face), dtype=np.int64)
    low = np.zeros(len(face), dtype=np.int8)
    dims = cell_hi.max(axis=0) + 1
    for axis in (2, 1, 0):
        w = width[face, axis]
        step = k % w
        key = key * dims[axis] + cell_lo[face, axis] + step
        low |= (step == 0).astype(np.int8) << axis
        k = k // w
    by_cell = np.argsort(key, kind="stable")
    face, low, key = face[by_cell], low[by_cell], key[by_cell]
    run_start = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    run_end = np.append(run_start[1:], len(key))
    count = np.repeat(run_end, run_end - run_start) - np.arange(1, len(key) + 1)
    for p, q in _row_blocks(count):
        home = (low[p] | low[q]) == 7
        yield face[p[home]], face[q[home]]


def _row_blocks(count):
    """Position p paired with the count[p] positions after it, as (p, q) rows.

    Blocks hold at most BROAD_BLOCK_ROWS rows; one position's rows are never
    split, so a block may hold more when one position alone does.
    """
    n = len(count)
    first_row = np.concatenate(([0], np.cumsum(count)))
    start = 0
    while start < n:
        stop = int(np.searchsorted(first_row, first_row[start] + BROAD_BLOCK_ROWS,
                                   side="right")) - 1
        stop = min(n, max(start + 1, stop))
        c = count[start:stop]
        p = np.repeat(np.arange(start, stop), c)
        q = p + 1 + np.arange(len(p)) - np.repeat(first_row[start:stop] - first_row[start], c)
        start = stop
        yield p, q


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
    keepouts = list(keepouts)
    pos, top, blocked = _support_candidates(dermis, covering, keepouts, radius, seed)
    accepted = _greedy_place(pos, blocked, spacing)
    if not accepted.size:
        raise PlacementError(
            f"no support placement possible with {len(keepouts)} keepout(s) "
            f"and spacing {spacing}")

    # Every support in one (supports, segments) pass, sharing one face table.
    base, top = pos[accepted], top[accepted]
    axis = top - base
    length = np.sqrt(_rowdot(axis, axis))
    if np.any(length <= 0.0):
        raise ValueError("support has zero length (coincident dermis/covering points)")
    t1, t2 = tangent_frame(axis / length[:, None])
    circle = radius * unit_circle(segments, t1, t2)
    verts = np.concatenate([base[:, None] + circle, top[:, None] + circle,
                            base[:, None], top[:, None]], axis=1)
    faces = cylinder_faces(segments)
    tags = np.full(len(faces), int(Material.FLEXIBLE), dtype=np.int8)
    return [TriMesh(v, faces, tags) for v in verts]


def _support_candidates(dermis, covering, keepouts, radius, seed):
    """SUPPORT_CANDIDATES dermis points, their covering tops, and which are blocked."""
    rng = np.random.default_rng(seed)
    pos, face_idx, bary = sample_surface(dermis, SUPPORT_CANDIDATES, rng)
    top = np.einsum("ij,ijk->ik", bary, covering.vertices[covering.faces[face_idx]])
    return pos, top, _keepout_blocked(pos, top, keepouts, radius)


def _keepout_blocked(pos, top, keepouts, radius):
    """Which candidates are blocked: either end, pos or top, lies within
    keepout radius + `radius` of a keepout's axis,
    |p - c|**2 - ((p - c) . n)**2 < r**2.
    That left side is a quadratic form in p, so one (rows, 10) @ (10,
    keepouts) product of monomials and weights evaluates it for every pair,
    _KEEPOUT_ROWS candidates at a time. The product decides each pair whose
    value lies farther from r**2 than 1e-9 * (max |p|**2 + max |c|**2 + max
    r**2), a band far wider than the rounding of either form; the pairs
    inside the band are decided by the direct form above.
    """
    blocked = np.zeros(len(pos), dtype=bool)
    if not keepouts:
        return blocked

    center = np.array([k.center for k in keepouts], dtype=np.float64)
    normal = np.array([k.normal for k in keepouts], dtype=np.float64)
    r = np.array([float(k.radius) + radius for k in keepouts])
    r_sq = r * r
    # |p - c|**2 - ((p - c) . n)**2 = p.A p + b.p + c.A c with A = I - n n^T.
    a = np.eye(3) - normal[:, :, None] * normal[:, None, :]
    weights = np.stack([a[:, 0, 0], a[:, 1, 1], a[:, 2, 2],
                        2.0 * a[:, 0, 1], 2.0 * a[:, 0, 2], 2.0 * a[:, 1, 2],
                        *(-2.0 * np.einsum("kij,kj->ik", a, center)),
                        np.einsum("ki,kij,kj->k", center, a, center) - r_sq])
    scale = np.einsum("ij,ij->i", center, center).max() + r_sq.max()
    for end in (pos, top):
        band = 1e-9 * (np.einsum("ij,ij->i", end, end).max(initial=0.0) + scale)
        near_rows, near_keepouts = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for start in range(0, len(end), _KEEPOUT_ROWS):
            x, y, z = end[start:start + _KEEPOUT_ROWS].T
            value = np.stack([x * x, y * y, z * z, x * y, x * z, y * z,
                              x, y, z, np.ones(len(x))], axis=1) @ weights
            blocked[start:start + len(value)] |= value.min(axis=1) < -band
            near = np.abs(value) <= band
            if near.any():
                rows, ks = np.nonzero(near)
                near_rows.append(start + rows)
                near_keepouts.append(ks)
        rows, ks = np.concatenate(near_rows), np.concatenate(near_keepouts)
        for k in np.unique(ks).tolist():
            sel = rows[ks == k]
            rel = end[sel] - center[k]
            axial = np.einsum("ij,j->i", rel, normal[k])
            blocked[sel[np.einsum("ij,ij->i", rel, rel) - axial * axial < r_sq[k]]] = True
    return blocked


def _greedy_place(pos, blocked, spacing):
    """Indices of the points a greedy pass in index order accepts.

    A point is accepted when it is not blocked and, for every point p
    accepted before it, (x-px)**2 + (y-py)**2 + (z-pz)**2 >= spacing**2.
    Sequential elimination: each accepted point removes the live points
    closer than `spacing`. They are looked up in a window of the points
    sorted once along the axis of largest extent; the window is padded by
    a relative 1e-9, more than rounding can take off a coordinate
    difference, so it never misses a point that conflicts.
    """
    live = np.flatnonzero(~blocked)
    if not live.size:
        return live
    p = pos[live]
    sweep = int(np.argmax(p.max(axis=0) - p.min(axis=0)))
    order = np.argsort(p[:, sweep], kind="stable")
    xs, ys, zs = (np.ascontiguousarray(p[order, k]) for k in range(3))
    key = (xs, ys, zs)[sweep]
    reach = spacing * (1.0 + 1e-9)
    lo = np.searchsorted(key, key - reach, side="left").tolist()
    hi = np.searchsorted(key, key + reach, side="right").tolist()
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))

    spacing_sq = spacing * spacing
    alive = np.ones(len(order), dtype=bool)
    accepted = []
    for r in rank.tolist():
        if not alive[r]:
            continue
        accepted.append(r)
        a, b = lo[r], hi[r]
        if b - a > 1:
            d2 = (xs[a:b] - xs[r]) ** 2 + (ys[a:b] - ys[r]) ** 2 + (zs[a:b] - zs[r]) ** 2
            alive[a:b] &= ~(d2 < spacing_sq)
    return live[order[accepted]]


def cylinder_faces(segments):
    """Face table of a closed cylinder, outward for a right-handed (t1, t2, axis).

    Vertices: the base circle, the top circle, then the base and top
    centres. Per segment j: two side faces, one base and one top cap face.
    """
    s = segments
    j = np.arange(s)
    k = (j + 1) % s
    bot, top = np.full(s, 2 * s), np.full(s, 2 * s + 1)
    return np.array([[j, k, s + k], [j, s + k, s + j],
                     [bot, k, j], [top, s + j, s + k]]).transpose(2, 0, 1).reshape(-1, 3)


def unit_circle(segments, t1, t2):
    """Unit circle points cos(phi) t1 + sin(phi) t2, shape t1.shape[:-1] + (segments, 3)."""
    phis = 2.0 * np.pi * np.arange(segments) / segments
    t1, t2 = np.asarray(t1)[..., None, :], np.asarray(t2)[..., None, :]
    return np.cos(phis)[:, None] * t1 + np.sin(phis)[:, None] * t2


def tangent_frame(normal):
    """Deterministic orthonormal (t1, t2) completing unit normal(s) of shape (..., 3)."""
    n = np.asarray(normal, dtype=np.float64)
    ref = np.where(np.abs(n[..., :1]) <= 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    t1 = np.cross(n, ref)
    t1 = t1 / np.sqrt(_rowdot(t1, t1))[..., None]
    t2 = np.cross(n, t1)
    return t1, t2
