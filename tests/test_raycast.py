import numpy as np
import pytest

from hybridskin.mesh import make_box, make_plane_patch, make_uv_sphere
from hybridskin.raycast import Bvh, TriangleSet, point_mesh_distance
from references import raycast_brute_force


def random_scene(rng, n_triangles=100, extent=2.0):
    centers = rng.uniform(-extent, extent, size=(n_triangles, 3))
    offsets = rng.normal(scale=0.4, size=(n_triangles, 3, 3))
    verts = (centers[:, None, :] + offsets).reshape(-1, 3)
    faces = np.arange(3 * n_triangles).reshape(-1, 3)
    return TriangleSet(verts, faces)


def random_ray(rng, extent=3.0):
    """(origin, unit direction)."""
    origin = rng.uniform(-extent, extent, size=3)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return tuple(origin), tuple(direction)


def test_raycast_requires_unit_direction():
    bvh = Bvh(random_scene(np.random.default_rng(1), 10))
    with pytest.raises(ValueError):
        bvh.raycast((0, 0, 0), (0, 0, 2))


def test_perpendicular_plane_hit_at_exact_distance():
    plane = make_plane_patch(4.0, 4.0, 2, 2, center=(0, 0, 1.0))
    tris = TriangleSet(plane.vertices, plane.faces)
    hit = raycast_brute_force(tris, (0, 0, 0), (0, 0, 1))
    assert hit is not None
    assert hit[0] == pytest.approx(1.0, abs=1e-12)


def test_max_range_clamps_to_no_target():
    plane = make_plane_patch(4.0, 4.0, 2, 2, center=(0, 0, 5.0))
    tris = TriangleSet(plane.vertices, plane.faces)
    assert raycast_brute_force(tris, (0, 0, 0), (0, 0, 1), max_range=4.0) is None
    bvh = Bvh(tris)
    assert bvh.raycast((0, 0, 0), (0, 0, 1), max_range=4.0) is None


def test_nearest_of_stacked_planes_wins():
    near = make_plane_patch(2, 2, 1, 1, center=(0, 0, 1.0))
    far = make_plane_patch(2, 2, 1, 1, center=(0, 0, 2.0))
    tris = TriangleSet.from_meshes([far, near])
    hit = raycast_brute_force(tris, (0.1, 0.1, 0), (0, 0, 1))
    assert hit[0] == pytest.approx(1.0, abs=1e-12)


def test_backface_hits_count():
    # Ray from inside a box must hit the far wall (double-sided triangles).
    box = make_box((1, 1, 1))
    tris = TriangleSet(box.vertices, box.faces)
    hit = raycast_brute_force(tris, (0, 0, 0), (1, 0, 0))
    assert hit is not None
    assert hit[0] == pytest.approx(0.5, abs=1e-12)


def test_bvh_equals_brute_force_on_random_scenes():
    rng = np.random.default_rng(2024)
    for scene_idx in range(4):
        tris = random_scene(rng, n_triangles=100)
        bvh = Bvh(tris)
        hits = misses = 0
        for _ in range(2500):
            ray = random_ray(rng)
            expect = raycast_brute_force(tris, *ray)
            got = bvh.raycast(*ray)
            if expect is None:
                assert got is None
                misses += 1
            else:
                assert got is not None
                assert got[1] == expect[1]  # identical triangle
                assert abs(got[0] - expect[0]) <= 1e-9
                hits += 1
        assert hits > 100  # the comparison actually exercised intersections


def test_bvh_handles_axis_aligned_rays():
    rng = np.random.default_rng(7)
    tris = random_scene(rng, n_triangles=60)
    bvh = Bvh(tris)
    for axis in range(3):
        for sign in (1.0, -1.0):
            d = np.zeros(3)
            d[axis] = sign
            for _ in range(200):
                o = tuple(rng.uniform(-2, 2, size=3))
                assert bvh.raycast(o, d) == raycast_brute_force(tris, o, d)


def test_empty_scene_is_a_miss():
    tris = TriangleSet.from_meshes([])
    assert raycast_brute_force(tris, (0, 0, 0), (0, 0, 1)) is None
    assert Bvh(tris).raycast((0, 0, 0), (0, 0, 1)) is None


# ---------------------------------------------------------------------------
# packet traversal: raycast_many must equal brute force exactly
# ---------------------------------------------------------------------------

def brute_force_many(tris, origins, directions, max_range=np.inf):
    """Per-ray reference in raycast_many's (t, idx) layout."""
    t = np.full(len(origins), np.inf)
    idx = np.full(len(origins), -1, dtype=np.int64)
    for k, (o, d) in enumerate(zip(origins, directions)):
        hit = raycast_brute_force(tris, o, d, max_range)
        if hit is not None:
            t[k], idx[k] = hit
    return t, idx


def assert_matches_brute_force(bvh, origins, directions, max_range=np.inf):
    got_t, got_idx = bvh.raycast_many(origins, directions, max_range)
    exp_t, exp_idx = brute_force_many(bvh.tris, origins, directions, max_range)
    assert np.array_equal(got_idx, exp_idx)
    assert np.array_equal(got_t, exp_t)  # == on the floats, no tolerance
    return got_idx


def unit_rows(rng, n):
    d = rng.normal(size=(n, 3))
    return d / np.linalg.norm(d, axis=1)[:, None]


def test_raycast_many_equals_brute_force_on_random_scenes():
    rng = np.random.default_rng(2025)
    for n_triangles, leaf_size in [(1, 4), (7, 4), (100, 4), (300, 1), (300, 9)]:
        tris = random_scene(rng, n_triangles=n_triangles)
        bvh = Bvh(tris, leaf_size=leaf_size)
        origins = rng.uniform(-3, 3, size=(600, 3))
        # Half the rays aim at a point inside a random triangle.
        k = rng.integers(n_triangles, size=300)
        targets = tris.v0[k] + 0.3 * tris.e1[k] + 0.3 * tris.e2[k]
        aimed = targets - origins[:300]
        dirs = np.concatenate([aimed / np.linalg.norm(aimed, axis=1)[:, None],
                               unit_rows(rng, 300)])
        idx = assert_matches_brute_force(bvh, origins, dirs)
        assert (idx >= 0).sum() > 250


def test_raycast_many_axis_aligned_directions_with_zero_components():
    rng = np.random.default_rng(8)
    bvh = Bvh(random_scene(rng, n_triangles=80))
    dirs = []
    for axis in range(3):
        for sign in (1.0, -1.0):
            d = np.zeros(3)
            d[axis] = sign
            dirs.append(d)
    for a, b in [(0, 1), (1, 2), (0, 2)]:  # one zero component
        d = np.zeros(3)
        d[a], d[b] = 0.6, -0.8
        dirs.append(d)
    dirs = np.repeat(np.array(dirs), 60, axis=0)
    origins = rng.uniform(-2, 2, size=(len(dirs), 3))
    idx = assert_matches_brute_force(bvh, origins, dirs)
    assert (idx >= 0).sum() > 20


def test_raycast_many_origins_on_slab_planes():
    # Origins sit exactly on node box planes and move parallel to them, so
    # the slab test meets 0 * inf.
    rng = np.random.default_rng(12)
    bvh = Bvh(random_scene(rng, n_triangles=120))
    planes = np.concatenate([bvh.node_lo, bvh.node_hi])
    origins, dirs = [], []
    for _ in range(400):
        axis = rng.integers(3)
        o = rng.uniform(-2, 2, size=3)
        o[axis] = planes[rng.integers(len(planes)), axis]
        d = rng.normal(size=3)
        d[axis] = 0.0
        origins.append(o)
        dirs.append(d / np.linalg.norm(d))
    idx = assert_matches_brute_force(bvh, np.array(origins), np.array(dirs))
    assert (idx >= 0).sum() > 20


def test_raycast_many_rays_through_vertices_of_flat_boxes():
    # A plane patch and axis-aligned box faces have zero-thickness bounding
    # boxes, and a ray aimed at a vertex grazes a box corner: rounding in
    # the slab test must not cull a hit that the kernel reports.
    patch = make_plane_patch(2, 2, 4, 4, center=(0, 0, 1.0))
    box = make_box((1.0, 1.0, 1.0), center=(0.3, 0.2, 3.0))
    tris = TriangleSet.from_meshes([patch, box])
    vertices = np.concatenate([patch.vertices, box.vertices])
    rng = np.random.default_rng(9)
    origins = rng.uniform(-3, 3, size=(1500, 3))
    origins[:, 2] = rng.uniform(-2, 0.5, size=1500)
    aimed = vertices[rng.integers(len(vertices), size=1500)] - origins
    dirs = aimed / np.linalg.norm(aimed, axis=1)[:, None]
    for leaf_size in (1, 4):
        idx = assert_matches_brute_force(Bvh(tris, leaf_size=leaf_size), origins, dirs)
        assert (idx >= 0).sum() > 1000


def test_raycast_many_equal_distance_hits_take_the_lowest_index():
    # The patch appears twice, its copies far apart in index order; with
    # one triangle per leaf every copy sits in its own leaf.
    patch = make_plane_patch(2, 2, 3, 3, center=(0, 0, 1.0))
    clutter = make_uv_sphere(0.3, 8, 16, center=(0, 0, -3.0))
    tris = TriangleSet.from_meshes([patch, clutter, patch])
    rng = np.random.default_rng(4)
    origins = np.column_stack([rng.uniform(-0.9, 0.9, size=(300, 2)), np.zeros(300)])
    dirs = np.tile([0.0, 0.0, 1.0], (300, 1))
    for leaf_size in (1, 4):
        idx = assert_matches_brute_force(Bvh(tris, leaf_size=leaf_size), origins, dirs)
        assert np.all((idx >= 0) & (idx < patch.n_faces))  # the first copy


def test_raycast_many_max_range_cut():
    rng = np.random.default_rng(21)
    bvh = Bvh(random_scene(rng, n_triangles=150))
    origins = rng.uniform(-3, 3, size=(500, 3))
    dirs = unit_rows(rng, 500)
    far_t, _ = bvh.raycast_many(origins, dirs)
    for max_range in (0.5, 1.5, float(np.median(far_t[np.isfinite(far_t)]))):
        assert_matches_brute_force(bvh, origins, dirs, max_range)
    # A hit exactly at max_range is kept; one just beyond it is cut.
    plane = Bvh(TriangleSet.from_meshes([make_plane_patch(4, 4, 2, 2, center=(0, 0, 2.0))]))
    o, d = np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]])
    assert plane.raycast_many(o, d, 2.0)[1][0] >= 0
    assert plane.raycast_many(o, d, np.nextafter(2.0, 0.0))[1][0] == -1


def test_raycast_many_empty_scene_and_zero_rays():
    empty = Bvh(TriangleSet.from_meshes([]))
    t, idx = empty.raycast_many(np.zeros((3, 3)), np.tile([0.0, 0.0, 1.0], (3, 1)))
    assert np.all(np.isinf(t)) and np.all(idx == -1)
    rng = np.random.default_rng(0)
    t, idx = Bvh(random_scene(rng, 20)).raycast_many(np.zeros((0, 3)), np.zeros((0, 3)))
    assert t.shape == (0,) and idx.shape == (0,)


def test_raycast_many_rejects_non_unit_and_misshaped_rays():
    bvh = Bvh(random_scene(np.random.default_rng(1), 10))
    with pytest.raises(ValueError):
        bvh.raycast_many(np.zeros((2, 3)), [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])
    with pytest.raises(ValueError):
        bvh.raycast_many(np.zeros((1, 3)), [[0.0, 0.0, 1.0 + 1e-6]])
    with pytest.raises(ValueError):
        bvh.raycast_many(np.zeros((2, 3)), [[0.0, 0.0, 1.0]])


# ---------------------------------------------------------------------------
# point-mesh distance (used by the SC proximity model)
# ---------------------------------------------------------------------------

def test_point_plane_distance():
    plane = make_plane_patch(2, 2, 4, 4)
    tris = TriangleSet(plane.vertices, plane.faces)
    assert point_mesh_distance([(0.1, -0.2, 0.7)], tris) == pytest.approx([0.7], abs=1e-12)
    assert point_mesh_distance([(0.0, 0.0, -0.3)], tris) == pytest.approx([0.3], abs=1e-12)


def test_point_distance_to_edge_and_vertex_regions():
    tri = TriangleSet([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    # Beyond the (1,0,0) vertex: closest feature is the vertex.
    assert point_mesh_distance([(2.0, 0.0, 0.0)], tri) == pytest.approx([1.0], abs=1e-12)
    # Past the hypotenuse: closest feature is that edge.
    [d] = point_mesh_distance([(1.0, 1.0, 0.0)], tri)
    assert d == pytest.approx(np.sqrt(2) / 2, abs=1e-12)
    # Directly above the interior.
    assert point_mesh_distance([(0.2, 0.2, 0.5)], tri) == pytest.approx([0.5], abs=1e-12)


def test_point_sphere_distance_matches_analytic():
    sphere = make_uv_sphere(0.05, 32, 64)
    tris = TriangleSet(sphere.vertices, sphere.faces)
    [d] = point_mesh_distance([(0.2, 0.0, 0.0)], tris)
    assert d == pytest.approx(0.15, abs=2e-4)  # tessellation tolerance


def test_point_distance_brute_force_sampling_oracle():
    # Dense surface sampling gives an upper bound that the exact distance
    # must stay at or below, and the two agree as sampling densifies.
    rng = np.random.default_rng(5)
    tris = random_scene(rng, n_triangles=30, extent=1.0)
    verts = np.concatenate([tris.v0, tris.v0 + tris.e1, tris.v0 + tris.e2])
    for _ in range(20):
        p = rng.uniform(-2, 2, size=3)
        [exact] = point_mesh_distance([p], tris)
        # sample points on every triangle
        u = rng.random((400, 1))
        v = rng.random((400, 1))
        over = (u + v) > 1
        u[over], v[over] = 1 - u[over], 1 - v[over]
        best = np.inf
        for k in range(tris.n_triangles):
            pts = tris.v0[k] + u * tris.e1[k] + v * tris.e2[k]
            best = min(best, np.linalg.norm(pts - p, axis=1).min())
        best = min(best, np.linalg.norm(verts - p, axis=1).min())
        assert exact <= best + 1e-12
        assert exact == pytest.approx(best, abs=0.05)
