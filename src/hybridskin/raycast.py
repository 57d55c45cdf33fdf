"""Triangle ray casting by BVH packet traversal, and point-mesh distance.

The traversal evaluates one row-wise Moller-Trumbore kernel on float64
inputs: row k tests ray k against triangle k, so a (ray, triangle) pair
computes the same bits whichever batch it comes from, and the accelerated
distance is bit-identical to the smallest over every triangle. Triangles
are double-sided (no backface culling): a depth sensor sees whatever
surface crosses its ray. A scene split over several Bvhs therefore gives,
as the smaller of the per-Bvh distances, the bits one Bvh over the whole
scene gives: simulate keeps one Bvh per static object for the run and
builds one over the posed movers at each frame time.

Bvh.raycast_many casts a packet of rays breadth-first and returns one
distance per ray: each level runs a vectorized slab test over all live
(ray, node) pairs, expands the pairs that reach a leaf into (ray, triangle)
rows for the kernel, and folds their distances into each ray's nearest so
far, which culls later pairs. Bvh.raycast casts one ray and also names the
triangle hit, the lowest index among those at the nearest distance.
"""

import numpy as np

from .mesh import concat_meshes

_DET_EPS = 1e-12
UNIT_TOL = 1e-9
# Node boxes grow by this fraction of the scene's largest coordinate, so a
# rounding error in the slab test cannot cull a triangle touching its box.
_BOX_PAD = 1e-9
# (ray, node) pairs per slab-test batch; bounds the traversal's temporaries.
_PAIR_CHUNK = 4096


def _cross(a, b):
    """Row-wise a x b of (n, 3) rows, either broadcasting from (1, 3).

    The products and differences of np.cross, in its order, so the bits
    are its bits, without the dtype copies it makes of both inputs.
    """
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    a0, a1, a2 = a[:, 0], a[:, 1], a[:, 2]
    b0, b1, b2 = b[:, 0], b[:, 1], b[:, 2]
    np.subtract(a1 * b2, a2 * b1, out=out[:, 0])
    np.subtract(a2 * b0, a0 * b2, out=out[:, 1])
    np.subtract(a0 * b1, a1 * b0, out=out[:, 2])
    return out


def moller_trumbore(origin, direction, v0, e1, e2):
    """Moller-Trumbore terms (det, u, v, t) of the line origin + t * direction
    in row k against triangle row k, broadcast as in _intersect_rows; u, v
    and t are inf or nan where det is 0."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = _cross(direction, e2)
        det = np.einsum("ij,ij->i", e1, p)
        inv = 1.0 / det
        s = origin - v0
        u = np.einsum("ij,ij->i", s, p) * inv
        q = _cross(s, e1)
        v = np.einsum("ij,ij->i", q, np.broadcast_to(direction, q.shape)) * inv
        t = np.einsum("ij,ij->i", e2, q) * inv
    return det, u, v, t


def _intersect_rows(origin, direction, v0, e1, e2):
    """Distance along ray row k to triangle row k; +inf where missed.

    origin and direction broadcast against the (n, 3) triangle arrays.
    """
    det, u, v, t = moller_trumbore(origin, direction, v0, e1, e2)
    with np.errstate(invalid="ignore", over="ignore"):  # u + v where det is near 0
        hit = (np.abs(det) > _DET_EPS) & (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0) & (t > 0.0)
    return np.where(hit, t, np.inf)


class TriangleSet:
    """Triangle soup prepared for intersection queries.

    vertices of shape (..., n, 3) with leading batch axes stack posed copies
    of one mesh; v0, e1 and e2 then have shape (..., n_triangles, 3).
    """

    def __init__(self, vertices, faces):
        vertices = np.asarray(vertices, dtype=np.float64)
        faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
        tri = vertices[..., faces, :]
        self.v0 = np.ascontiguousarray(tri[..., 0, :])
        self.e1 = np.ascontiguousarray(tri[..., 1, :] - tri[..., 0, :])
        self.e2 = np.ascontiguousarray(tri[..., 2, :] - tri[..., 0, :])
        self.n_triangles = faces.shape[0]

    @classmethod
    def from_meshes(cls, meshes):
        merged = concat_meshes(meshes)
        return cls(merged.vertices, merged.faces)


def _ray_arrays(origins, directions):
    """Validated (n, 3) float64 origin and unit direction arrays."""
    o = np.asarray(origins, dtype=np.float64)
    d = np.asarray(directions, dtype=np.float64)
    if o.ndim != 2 or o.shape[1] != 3 or d.shape != o.shape:
        raise ValueError(f"origins and directions must both be (n, 3), got "
                         f"{o.shape} and {d.shape}")
    norm = np.linalg.norm(d, axis=1)
    bad = ~(np.abs(norm - 1.0) <= UNIT_TOL)
    if np.any(bad):
        raise ValueError(f"ray direction must be unit length, "
                         f"|d|={norm[np.argmax(bad)]}")
    return o, d


class Bvh:
    """Median-split bounding volume hierarchy over a TriangleSet.

    Nodes live in arrays: node_lo/node_hi (N, 3) boxes, node_child (N, 2)
    child indices ((-1, -1) for leaves) and node_range (N, 2) as
    (start, count) into order. Node 0 is the root.
    """

    def __init__(self, tris: TriangleSet, leaf_size=4):
        self.tris = tris
        self.leaf_size = max(1, leaf_size)
        n = tris.n_triangles
        v1 = tris.v0 + tris.e1
        v2 = tris.v0 + tris.e2
        lo = np.minimum(np.minimum(tris.v0, v1), v2)
        hi = np.maximum(np.maximum(tris.v0, v1), v2)
        self.order = np.arange(n, dtype=np.int64)
        cap = max(2 * n - 1, 0)
        self.node_lo = np.empty((cap, 3))
        self.node_hi = np.empty((cap, 3))
        self.node_child = np.full((cap, 2), -1, dtype=np.int64)
        self.node_range = np.zeros((cap, 2), dtype=np.int64)
        n_nodes = self._build(lo, hi) if n else 0
        pad = _BOX_PAD * max(1.0, np.abs(lo).max(initial=0.0), np.abs(hi).max(initial=0.0))
        self.node_lo = self.node_lo[:n_nodes] - pad
        self.node_hi = self.node_hi[:n_nodes] + pad
        self.node_child = self.node_child[:n_nodes]
        self.node_range = self.node_range[:n_nodes]

    def _build(self, lo, hi):
        """Split level by level; returns the node count.

        Every segment of a level is split at once: a segment's box is a
        segmented min/max, and its triangles are ordered by centroid along
        the box's longest axis with a stable sort keyed on (segment,
        centroid), which is the order a per-node stable argsort gives.
        """
        centroid = 0.5 * (lo + hi)
        order = self.order
        starts = np.zeros(1, dtype=np.int64)
        counts = np.array([order.size], dtype=np.int64)
        ids = np.zeros(1, dtype=np.int64)
        n_nodes = 1
        while ids.size:
            offsets = np.cumsum(counts) - counts
            seg = np.repeat(np.arange(ids.size), counts)
            pos = np.repeat(starts - offsets, counts) + np.arange(seg.size)
            tri = order[pos]
            box_lo = np.minimum.reduceat(lo[tri], offsets)
            box_hi = np.maximum.reduceat(hi[tri], offsets)
            self.node_lo[ids] = box_lo
            self.node_hi[ids] = box_hi
            self.node_range[ids, 0] = starts
            self.node_range[ids, 1] = counts
            axis = np.argmax(box_hi - box_lo, axis=1)
            split = counts > self.leaf_size
            perm = np.argsort(centroid[tri, axis[seg]], kind="stable")
            perm = perm[np.argsort(seg[perm], kind="stable")]
            order[pos] = tri[perm]

            ids, starts, counts = ids[split], starts[split], counts[split]
            half = counts // 2
            children = n_nodes + np.arange(2 * ids.size, dtype=np.int64).reshape(-1, 2)
            self.node_child[ids] = children
            n_nodes += 2 * ids.size
            ids = children.reshape(-1)
            starts = np.stack([starts, starts + half], axis=1).reshape(-1)
            counts = np.stack([half, counts - half], axis=1).reshape(-1)
        return n_nodes

    def raycast(self, origin, direction, max_range=np.inf):
        """Nearest hit of one ray: (distance, triangle_index) or None. On a
        tie the index is the lowest of the triangles at that distance."""
        o, d = _ray_arrays([origin], [direction])
        t = self.raycast_many(o, d, max_range)[0]
        if t == np.inf:
            return None
        every = _intersect_rows(o, d, self.tris.v0, self.tris.e1, self.tris.e2)
        return float(t), int(np.argmax(every == t))

    def raycast_many(self, origins, directions, max_range=np.inf):
        """Distance along every ray to its nearest hit; inf where nothing
        lies within max_range. Row k is exactly the smallest _intersect_rows
        distance over all triangles.
        """
        o, d = _ray_arrays(origins, directions)
        best_t = np.full(len(o), np.inf)
        if len(o) == 0 or self.tris.n_triangles == 0:
            return best_t
        with np.errstate(divide="ignore"):
            inv_d = np.where(d == 0.0, np.inf, 1.0 / d)
        rays = np.arange(len(o))
        nodes = np.zeros(len(o), dtype=np.int64)
        while rays.size:
            next_rays, next_nodes = [], []
            for c in range(0, rays.size, _PAIR_CHUNK):
                r, k = rays[c:c + _PAIR_CHUNK], nodes[c:c + _PAIR_CHUNK]
                # 0 * inf produces NaN for rays starting exactly on a slab
                # plane; fmax/fmin treat that axis as non-constraining, which
                # only ever widens the slab interval (conservative).
                o_r, inv_r = o[r], inv_d[r]
                with np.errstate(invalid="ignore"):
                    t1 = (self.node_lo[k] - o_r) * inv_r
                    t2 = (self.node_hi[k] - o_r) * inv_r
                # Column by column: a reduce over a length-3 axis costs
                # an order of magnitude more.
                near, far = np.minimum(t1, t2), np.maximum(t1, t2)
                tmin = np.fmax(np.fmax(near[:, 0], near[:, 1]), near[:, 2])
                tmax = np.fmin(np.fmin(far[:, 0], far[:, 1]), far[:, 2])
                culled = (tmax < np.maximum(tmin, 0.0)) | \
                    (tmin > np.minimum(best_t[r], max_range))
                r, k = r[~culled], k[~culled]
                leaf = self.node_child[k, 0] < 0
                if np.any(leaf):
                    self._leaf_hits(o, d, r[leaf], k[leaf], best_t)
                r, k = r[~leaf], k[~leaf]
                next_rays += [r, r]
                next_nodes += [self.node_child[k, 0], self.node_child[k, 1]]
            rays = np.concatenate(next_rays)
            nodes = np.concatenate(next_nodes)
        best_t[best_t > max_range] = np.inf
        return best_t

    def _leaf_hits(self, o, d, rays, leaves, best_t):
        """Test (ray, leaf) pairs triangle by triangle; fold into best_t."""
        start, count = self.node_range[leaves, 0], self.node_range[leaves, 1]
        rows = np.repeat(rays, count)
        offsets = np.cumsum(count) - count
        tri = self.order[np.repeat(start - offsets, count) + np.arange(rows.size)]
        t = _intersect_rows(o[rows], d[rows], self.tris.v0[tri], self.tris.e1[tri],
                            self.tris.e2[tri])
        np.minimum.at(best_t, rows, t)


def point_mesh_distance(points, tris: TriangleSet):
    """Smallest Euclidean distance from each point to any triangle in the set.

    points has shape (n, 3). A set with a leading batch axis of n posed
    copies pairs copy k with point k; an unbatched set serves every point.
    inf where the set has no triangles.
    """
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = tris.n_triangles
    if n == 0:
        return np.full(len(p), np.inf)
    # (point, triangle) rows, point-major
    v0, e1, e2 = (np.broadcast_to(a, (len(p), n, 3)).reshape(-1, 3)
                  for a in (tris.v0, tris.e1, tris.e2))
    sq = _point_tri_sqdist(np.repeat(p, n, axis=0), v0, e1, e2)
    return np.sqrt(sq.reshape(len(p), n).min(axis=1))


def _point_tri_sqdist(p, v0, e1, e2):
    """Exact squared distance from point row k to triangle row k.

    The constrained minimizer lies either strictly inside the triangle
    (where the unconstrained barycentric solution is feasible) or on one of
    the three edges; evaluating all four candidates and taking the minimum
    is therefore exact.
    """
    ap = p - v0
    d1 = np.einsum("ij,ij->i", e1, ap)
    d2 = np.einsum("ij,ij->i", e2, ap)
    a = np.einsum("ij,ij->i", e1, e1)
    b = np.einsum("ij,ij->i", e1, e2)
    c = np.einsum("ij,ij->i", e2, e2)

    def sq(s, t):
        diff = v0 + s[:, None] * e1 + t[:, None] * e2 - p
        return np.einsum("ij,ij->i", diff, diff)

    safe = lambda x: np.where(np.abs(x) < 1e-300, 1e-300, x)

    det = a * c - b * b
    s_in = (c * d1 - b * d2) / safe(det)
    t_in = (a * d2 - b * d1) / safe(det)
    feasible = (det > 0.0) & (s_in >= 0.0) & (t_in >= 0.0) & (s_in + t_in <= 1.0)
    sq_in = np.where(feasible, sq(np.clip(s_in, 0, 1), np.clip(t_in, 0, 1)), np.inf)

    zeros = np.zeros_like(a)
    s_t0 = np.clip(d1 / safe(a), 0.0, 1.0)
    t_s0 = np.clip(d2 / safe(c), 0.0, 1.0)
    s_diag = np.clip((c + d1 - b - d2) / safe(a - 2.0 * b + c), 0.0, 1.0)

    return np.minimum.reduce([
        sq_in,
        sq(s_t0, zeros),
        sq(zeros, t_s0),
        sq(s_diag, 1.0 - s_diag),
    ])
