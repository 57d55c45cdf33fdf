import numpy as np
import pytest

from hybridskin import geometry
from hybridskin.errors import PlacementError, SelfIntersectionError
from hybridskin.geometry import (Footprint, OffsetSpec, extrude_covering,
                                 generate_supports, offset_surface,
                                 self_intersections)
from hybridskin.layout import sample_sites
from hybridskin.mesh import (Material, TriMesh, make_cylinder, make_plane_patch,
                             make_uv_sphere, validate_mesh)
from references import (capsule_mesh, greedy_grid_hash, keepout_blocked_by_keepout,
                        sphere_tessellation_for_chord_error, support_cylinder,
                        sweep_and_prune_rows, tangent_frame_scalar)


def v_crease_patch(alpha_deg=15.0, wing=0.05, width=0.05):
    """Two wings meeting at a sharp concave crease; folds over when offset.

    The wings are tessellated at different densities so fold-over crossings
    do not land exactly on triangle edges.
    """
    a = np.radians(alpha_deg)
    verts, faces = [], []

    def add_wing(direction, n, flip):
        base = len(verts)
        for s in np.linspace(0.0, wing, n + 1):
            for y in np.linspace(0.0, width, n + 1):
                verts.append(direction * s + np.array([0.0, y, 0.0]))
        for i in range(n):
            for j in range(n):
                a0 = base + i * (n + 1) + j
                b0 = base + (i + 1) * (n + 1) + j
                if flip:
                    faces.extend([[a0, a0 + 1, b0 + 1], [a0, b0 + 1, b0]])
                else:
                    faces.extend([[a0, b0, b0 + 1], [a0, b0 + 1, a0 + 1]])

    add_wing(np.array([np.sin(a), 0.0, np.cos(a)]), 5, False)
    add_wing(np.array([-np.sin(a), 0.0, np.cos(a)]), 4, True)
    return TriMesh.from_arrays(np.array(verts), faces, Material.STRUCTURAL)


# ---------------------------------------------------------------------------
# offset_surface
# ---------------------------------------------------------------------------

def test_offset_spec_rejects_negative_distance():
    with pytest.raises(ValueError):
        OffsetSpec(-0.001)


def test_planar_patch_offsets_exactly_along_normal():
    patch = make_plane_patch(0.1, 0.1, 5, 5)
    out = offset_surface(patch, OffsetSpec(0.004))
    assert np.allclose(out.vertices[:, 2], 0.004, atol=1e-9)
    assert np.allclose(out.vertices[:, :2], patch.vertices[:, :2], atol=1e-9)
    assert np.array_equal(out.faces, patch.faces)
    assert set(out.face_material.tolist()) == {int(Material.STRUCTURAL)}


def test_sphere_offset_matches_analytic_radius():
    r, d, tol = 0.05, 0.005, 1e-3
    n_lat, n_lon = sphere_tessellation_for_chord_error(r, tol)
    sphere = make_uv_sphere(r, n_lat, n_lon)
    out = offset_surface(sphere, OffsetSpec(d))
    radii = np.linalg.norm(out.vertices, axis=1)
    assert np.all(np.abs(radii - (r + d)) <= tol)


def test_zero_offset_is_identity():
    sphere = make_uv_sphere(0.05, 12, 24)
    out = offset_surface(sphere, OffsetSpec(0.0))
    assert np.array_equal(out.vertices, sphere.vertices)


def test_offset_composition_matches_single_offset():
    # offset(offset(m, d1), d2) == offset(m, d1 + d2) on smooth regions;
    # the sphere must be fine enough that vertex normals stay stable
    # between the two offsets (error scales ~ 1/n^2).
    sphere = make_uv_sphere(0.05, 32, 64)
    d1, d2 = 0.003, 0.004
    double = offset_surface(offset_surface(sphere, OffsetSpec(d1)), OffsetSpec(d2))
    single = offset_surface(sphere, OffsetSpec(d1 + d2))
    assert np.max(np.linalg.norm(double.vertices - single.vertices, axis=1)) < 1e-6

    patch = make_plane_patch(0.1, 0.1, 4, 4)
    double = offset_surface(offset_surface(patch, OffsetSpec(d1)), OffsetSpec(d2))
    single = offset_surface(patch, OffsetSpec(d1 + d2))
    assert np.max(np.linalg.norm(double.vertices - single.vertices, axis=1)) < 1e-9


def test_offset_is_deterministic():
    sphere = make_uv_sphere(0.05, 12, 24)
    a = offset_surface(sphere, OffsetSpec(0.004))
    b = offset_surface(sphere, OffsetSpec(0.004))
    assert np.array_equal(a.vertices, b.vertices)


def test_concave_crease_offset_raises_in_strict_mode():
    patch = v_crease_patch()
    assert not self_intersections(patch)  # clean before offsetting
    with pytest.raises(SelfIntersectionError):
        offset_surface(patch, OffsetSpec(0.005), strict=True)
    # non-strict mode returns the folded surface and only warns
    out = offset_surface(patch, OffsetSpec(0.005), strict=False)
    assert len(self_intersections(out)) > 0


# ---------------------------------------------------------------------------
# self_intersections
# ---------------------------------------------------------------------------

def reference_self_intersections(mesh, max_pairs=16):
    """All-pairs AABB test and a scalar per-pair narrow phase, in row-major order."""
    tri = mesh.triangles()
    lo = tri.min(axis=1)
    hi = tri.max(axis=1)
    found = []
    overlap = np.all(lo[:, None, :] <= hi[None, :, :], axis=2)
    overlap &= np.all(hi[:, None, :] >= lo[None, :, :], axis=2)
    for a, b in zip(*np.nonzero(np.triu(overlap, k=1))):
        if set(mesh.faces[a].tolist()) & set(mesh.faces[b].tolist()):
            continue
        if reference_edges_pierce(tri[a], tri[b]) or reference_edges_pierce(tri[b], tri[a]):
            found.append((int(a), int(b)))
            if len(found) >= max_pairs:
                return found
    return found


def reference_edges_pierce(tri_edges, tri_target):
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


def jittered_sphere(seed, scale=0.006):
    """A 16x32 sphere of radius 0.05 whose vertices are jittered into fold-overs."""
    sphere = make_uv_sphere(0.05, 16, 32)
    rng = np.random.default_rng(seed)
    return TriMesh.from_arrays(
        sphere.vertices + rng.normal(scale=scale, size=sphere.vertices.shape), sphere.faces)


def crossing_pair(shared_vertex=False):
    """Triangle b's long edge pierces triangle a; optionally they share vertex 0."""
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0],
             [0, 0, 0], [0.5, 0.2, 1.0], [0.2, 0.5, -1.0]]
    faces = [[0, 1, 2], [0 if shared_vertex else 3, 4, 5]]
    return TriMesh.from_arrays(np.array(verts, dtype=np.float64), faces)


def assert_matches_reference(mesh, max_pairs):
    got = self_intersections(mesh, max_pairs=max_pairs)
    assert got == reference_self_intersections(mesh, max_pairs=max_pairs)
    return got


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_self_intersections_match_reference_on_folded_meshes(seed):
    mesh = jittered_sphere(seed)
    every = assert_matches_reference(mesh, 10**9)
    assert len(every) > 16
    assert every == sorted(every) and all(a < b for a, b in every)
    for max_pairs in (1, 16):
        assert assert_matches_reference(mesh, max_pairs) == every[:max_pairs]


def count_broad_phase_rows(monkeypatch):
    """Record (rows, widest position) of every block of candidate rows the broad
    phase expands, and the positions (faces, or face-cell entries) per call."""
    sizes, positions = [], []
    row_blocks = geometry._row_blocks

    def counted(count):
        positions.append(len(count))
        for p, q in row_blocks(count):
            sizes.append((len(p), int(count.max(initial=0))))
            yield p, q
    monkeypatch.setattr(geometry, "_row_blocks", counted)
    return sizes, positions


def test_self_intersections_are_the_same_in_small_broad_phase_blocks(monkeypatch):
    mesh = with_giant_face(jittered_sphere(3), 1.0)
    every = self_intersections(mesh, max_pairs=10**9)
    assert len(every) > 16
    sizes, _ = count_broad_phase_rows(monkeypatch)
    monkeypatch.setattr(geometry, "BROAD_BLOCK_ROWS", 50)
    assert self_intersections(mesh, max_pairs=10**9) == every
    assert self_intersections(mesh, max_pairs=16) == every[:16]
    # A block holds at most 50 rows, or one position's rows when they are more.
    assert len(sizes) > 100
    assert all(rows <= max(50, widest) for rows, widest in sizes)
    assert any(rows > 50 for rows, _ in sizes)  # the giant face's own rows


def with_giant_face(mesh, half_width):
    """The mesh plus one triangle about 3 * half_width across, in the tilted plane
    z = 0.01 x + 0.02 y through the mean of its vertices."""
    s = half_width
    giant = mesh.vertices.mean(axis=0) + s * np.array([[-1.0, -1.0, -0.03], [2.0, -1.0, 0.0],
                                                       [-1.0, 2.0, 0.03]])
    n = mesh.n_vertices
    return TriMesh.from_arrays(np.vstack([mesh.vertices, giant]),
                               np.vstack([mesh.faces, [[n, n + 1, n + 2]]]))


def overlapping_box_pairs(mesh):
    """Every pair a < b of faces whose boxes overlap on all three axes."""
    tri = mesh.triangles()
    lo, hi = tri.min(axis=1), tri.max(axis=1)
    overlap = np.all(lo[:, None, :] <= hi[None, :, :], axis=2)
    overlap &= np.all(hi[:, None, :] >= lo[None, :, :], axis=2)
    return sorted(zip(*(x.tolist() for x in np.nonzero(np.triu(overlap, k=1)))))


def broad_phase_pairs(mesh):
    """The broad phase's candidate pairs whose boxes overlap, as (a, b), a < b."""
    tri = mesh.triangles()
    lo, hi = tri.min(axis=1), tri.max(axis=1)
    pairs = []
    for a, b in geometry._grid_candidates(lo, hi):
        keep = np.all((lo[a] <= hi[b]) & (hi[a] >= lo[b]), axis=1)
        pairs += zip(np.minimum(a, b)[keep].tolist(), np.maximum(a, b)[keep].tolist())
    return sorted(pairs)


def zero_extent_faces():
    """Points, segments and flat faces: every face has no extent on some axis."""
    rng = np.random.default_rng(11)
    corners = rng.uniform(-1.0, 1.0, size=(300, 3, 3))
    corners[:100, 1:] = corners[:100, :1]                 # single points
    corners[100:200, 2] = corners[100:200, 1]             # segments
    corners[200:, :, 2] = 0.25                            # faces in the plane z = 0.25
    corners[150:160] = corners[140:150]                   # coincident copies
    return TriMesh.from_arrays(corners.reshape(-1, 3), np.arange(900).reshape(-1, 3))


@pytest.mark.parametrize("make", [
    lambda: jittered_sphere(4),
    lambda: jittered_sphere(5, scale=0.0005),
    lambda: with_giant_face(jittered_sphere(6), 1.0),
    lambda: with_giant_face(jittered_sphere(7), 1000.0),
    zero_extent_faces,
    lambda: make_plane_patch(0.1, 0.1, 12, 12),
    lambda: crossing_pair(),
    lambda: TriMesh.from_arrays(
        np.vstack([crossing_pair().vertices, [[-1e308, 0, 0], [1e308, 0, 0], [0, 1e308, 0]]]),
        [[0, 1, 2], [3, 4, 5], [6, 7, 8]]),
], ids=["folded", "jittered", "giant", "giant-1km", "zero-extent", "flat", "pair", "huge"])
def test_broad_phase_yields_every_overlapping_box_pair_once(make):
    mesh = make()
    assert broad_phase_pairs(mesh) == overlapping_box_pairs(mesh)


def test_broad_phase_pairs_a_face_with_a_non_finite_corner_with_every_face():
    mesh = jittered_sphere(8)
    vertices = mesh.vertices.copy()
    vertices[mesh.faces[5, 0]] = [np.inf, 0.0, 0.0]
    vertices[mesh.faces[9, 1]] = [0.0, np.nan, 0.0]
    tri = TriMesh.from_arrays(vertices, mesh.faces).triangles()
    lo, hi = tri.min(axis=1), tri.max(axis=1)
    pairs = set()
    for a, b in geometry._grid_candidates(lo, hi):
        pairs |= set(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))
    bad = np.flatnonzero(~np.isfinite(tri).all(axis=(1, 2))).tolist()
    assert len(bad) >= 2
    for f in bad:
        assert all((min(f, g), max(f, g)) in pairs for g in range(len(tri)) if g != f)


@pytest.mark.parametrize("half_width", [1.0, 1000.0])
def test_one_giant_face_does_not_make_the_broad_phase_pair_everything(monkeypatch,
                                                                      half_width):
    link = capsule_mesh(0.045, 0.22, 48, 8, 16)
    shell = offset_surface(link, OffsetSpec(0.004))
    sizes, positions = count_broad_phase_rows(monkeypatch)
    assert self_intersections(shell, 10**9) == []
    shell_rows, shell_positions = sum(rows for rows, _ in sizes), sum(positions)
    sizes.clear()
    positions.clear()
    giant = with_giant_face(shell, half_width)
    assert assert_matches_reference(giant, 10**9) != []
    giant_rows = sum(rows for rows, _ in sizes)
    n = giant.n_faces
    # The giant face costs one row per face and one position, not a grid too
    # coarse for the rest nor an entry in every cell it covers.
    assert giant_rows <= 1.25 * shell_rows + n
    assert sum(positions) <= 1.25 * shell_positions + n
    assert 5 * giant_rows < sweep_and_prune_rows(giant) < n * (n - 1) // 2


def test_self_intersections_of_boxes_that_only_touch():
    # Tilted triangles in unit cells of a 3x3x3 grid: neighbouring boxes
    # share a coordinate on one axis. A crossing pair in the next cell
    # along x touches the grid's boxes at x = 3.
    verts, faces = [], []
    for x in range(3):
        for y in range(3):
            for z in range(3):
                base = len(verts)
                verts += [[x, y, z], [x + 1, y + 0.5, z + 1], [x + 0.5, y + 1, z + 0.25]]
                faces.append([base, base + 1, base + 2])
    pair = crossing_pair()
    faces += (pair.faces + len(verts)).tolist()
    verts += (pair.vertices + [3.0, 0.0, 0.0]).tolist()
    mesh = TriMesh.from_arrays(np.array(verts), faces)
    assert assert_matches_reference(mesh, 10**9) == [(27, 28)]


def test_self_intersections_of_empty_and_single_face_meshes():
    empty = TriMesh.from_arrays(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    single = TriMesh.from_arrays(np.eye(3), [[0, 1, 2]])
    for mesh in (empty, single):
        assert assert_matches_reference(mesh, 16) == []


def test_self_intersections_with_zero_area_faces():
    pair = crossing_pair()
    verts = pair.vertices.tolist() + [[0.1, 0.6, -1.0], [0.1, 0.6, 0.0], [0.1, 0.6, 1.0],
                                      [5.0, 5.0, 5.0]]
    faces = pair.faces.tolist() + [[6, 7, 8],   # collinear corners, pierces face 0
                                   [9, 9, 9]]   # a single point
    mesh = TriMesh.from_arrays(np.array(verts), faces)
    assert assert_matches_reference(mesh, 10**9) == [(0, 1), (0, 2)]


def test_self_intersections_keep_strict_eps_bounds():
    # A pierce point within 1e-13 of the target's edge is not a crossing,
    # nor is a crossing whose edge/triangle determinant is below 1e-12.
    pair = crossing_pair()
    graze = [[0.5, 0.5 - 1e-13, -1.0], [0.5, 0.5 - 1e-13, 1.0], [0.5, 0.5 - 1e-13, 2.0]]
    inside = [[0.5, 0.5 - 1e-9, -1.0], [0.5, 0.5 - 1e-9, 1.0], [0.5, 0.5 - 1e-9, 2.0]]
    mesh = TriMesh.from_arrays(np.array(pair.vertices.tolist() + graze + inside),
                               pair.faces.tolist() + [[6, 7, 8], [9, 10, 11]])
    assert assert_matches_reference(mesh, 10**9) == [(0, 1), (0, 3)]
    tiny = TriMesh.from_arrays(pair.vertices * 1e-5, pair.faces)
    assert assert_matches_reference(tiny, 16) == []


def test_self_intersections_of_flat_patch_are_none():
    patch = make_plane_patch(0.1, 0.1, 12, 12)
    assert np.ptp(patch.vertices[:, 2]) == 0.0
    assert assert_matches_reference(patch, 10**9) == []


def test_faces_sharing_a_vertex_are_skipped_even_when_they_cross():
    assert assert_matches_reference(crossing_pair(shared_vertex=False), 16) == [(0, 1)]
    assert assert_matches_reference(crossing_pair(shared_vertex=True), 16) == []


def test_coplanar_overlapping_faces_are_skipped():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0],
                      [0.2, 0.2, 0], [1.2, 0.3, 0], [0.1, 0.9, 0]], dtype=np.float64)
    mesh = TriMesh.from_arrays(verts, [[0, 1, 2], [3, 4, 5]])
    assert assert_matches_reference(mesh, 16) == []


def test_self_intersection_warning_says_at_least_when_capped(caplog):
    with caplog.at_level("WARNING", logger="hybridskin.geometry"):
        geometry._handle_self_intersections(jittered_sphere(0), False, "folded")
        geometry._handle_self_intersections(crossing_pair(), False, "crossed")
    capped, uncapped = [r.message for r in caplog.records]
    assert "(at least 16 crossing face pair(s), e.g. (" in capped
    assert "(1 crossing face pair(s), e.g. (0, 1))" in uncapped
    with pytest.raises(SelfIntersectionError, match=r"at least 1 crossing"):
        geometry._handle_self_intersections(crossing_pair(), True, "crossed")


# ---------------------------------------------------------------------------
# extrude_covering
# ---------------------------------------------------------------------------

def test_covering_is_displaced_flexible_copy():
    patch = make_plane_patch(0.08, 0.08, 4, 4)
    covering = extrude_covering(patch, OffsetSpec(0.003))
    assert np.allclose(covering.vertices[:, 2], 0.003, atol=1e-9)
    assert set(covering.face_material.tolist()) == {int(Material.FLEXIBLE)}
    assert np.array_equal(covering.faces, patch.faces)


def test_cylinder_shell_covering_matches_analytic_radius():
    shell = make_cylinder(0.04, 0.2, 64, capped=False)
    covering = extrude_covering(shell, OffsetSpec(0.006))
    radii = np.linalg.norm(covering.vertices[:, :2], axis=1)
    chord_tol = 0.04 * (1 - np.cos(np.pi / 64)) + 1e-6
    assert np.all(np.abs(radii - 0.046) <= chord_tol)


def test_zero_offset_covering_warns_but_succeeds(caplog):
    patch = make_plane_patch(0.05, 0.05, 2, 2)
    with caplog.at_level("WARNING", logger="hybridskin.geometry"):
        covering = extrude_covering(patch, OffsetSpec(0.0))
    assert np.array_equal(covering.vertices, patch.vertices)
    assert any("zero offset" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# generate_supports
# ---------------------------------------------------------------------------

def patch_with_covering(size=0.1, n=10, gap=0.006):
    dermis = make_plane_patch(size, size, n, n)
    covering = extrude_covering(dermis, OffsetSpec(gap))
    return dermis, covering


def test_supports_fill_patch_with_min_spacing():
    dermis, covering = patch_with_covering()
    supports = generate_supports(dermis, covering, [], spacing=0.02, seed=0)
    assert len(supports) >= 16
    bases = np.array([s.vertices[-2] for s in supports])  # base cap center
    diff = bases[:, None, :] - bases[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(dist, np.inf)
    assert dist.min() >= 0.02 - 1e-12


def test_supports_span_dermis_to_covering():
    dermis, covering = patch_with_covering(gap=0.006)
    supports = generate_supports(dermis, covering, [], spacing=0.03, seed=1)
    for s in supports:
        z = s.vertices[:, 2]
        assert z.min() == pytest.approx(0.0, abs=1e-9)
        assert z.max() == pytest.approx(0.006, abs=1e-9)
        assert validate_mesh(s).is_valid
        assert set(s.face_material.tolist()) == {int(Material.FLEXIBLE)}


def test_supports_respect_keepouts_by_brute_force():
    dermis, covering = patch_with_covering()
    keepouts = [
        Footprint(center=(0.0, 0.0, 0.0), normal=(0, 0, 1), radius=0.015),
        Footprint(center=(0.03, 0.03, 0.0), normal=(0, 0, 1), radius=0.01),
    ]
    radius = 0.002
    supports = generate_supports(dermis, covering, keepouts, spacing=0.02,
                                 seed=3, radius=radius)
    assert supports
    bases = np.array([s.vertices[-2] for s in supports])
    for k in keepouts:
        rel = bases - np.asarray(k.center)
        axial = rel @ np.asarray(k.normal)
        inplane = np.sqrt(np.einsum("ij,ij->i", rel, rel) - axial ** 2)
        assert np.all(inplane >= k.radius + radius - 1e-12)


def test_keepout_covering_whole_patch_raises():
    dermis, covering = patch_with_covering(size=0.05)
    blanket = [Footprint(center=(0.0, 0.0, 0.0), normal=(0, 0, 1), radius=0.2)]
    with pytest.raises(PlacementError):
        generate_supports(dermis, covering, blanket, spacing=0.02, seed=0)


def test_same_seed_gives_identical_supports():
    dermis, covering = patch_with_covering()
    a = generate_supports(dermis, covering, [], spacing=0.025, seed=42)
    b = generate_supports(dermis, covering, [], spacing=0.025, seed=42)
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.vertices, sb.vertices)
        assert np.array_equal(sa.faces, sb.faces)
    c = generate_supports(dermis, covering, [], spacing=0.025, seed=43)
    assert not all(np.array_equal(sa.vertices, sc.vertices)
                   for sa, sc in zip(a, c))


def test_mismatched_covering_rejected():
    dermis, _ = patch_with_covering(n=10)
    other = make_plane_patch(0.1, 0.1, 5, 5)
    with pytest.raises(ValueError):
        generate_supports(dermis, other, [], spacing=0.02, seed=0)


# ---------------------------------------------------------------------------
# Windowed placement and batched cylinders against their per-support forms
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def capsule_skin():
    """Dermis, covering and 40 ring keep-outs on a dense capsule link (seed 7)."""
    link = capsule_mesh(0.045, 0.22, 48, 8, 16)
    dermis = offset_surface(link, OffsetSpec(0.004))
    covering = extrude_covering(dermis, OffsetSpec(0.006))
    keepouts = [Footprint(center=s.position, normal=s.normal, radius=0.014)
                for s in sample_sites(dermis, 40, 0.03, seed=7)]
    return dermis, covering, keepouts


def assert_same_bits(a: TriMesh, b: TriMesh):
    for name in ("vertices", "faces", "face_material"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize("spacing,with_keepouts,placed", [
    (0.02, True, None),
    (0.005, True, None),
    (0.02, False, None),
    (1e-7, False, geometry.SUPPORT_CANDIDATES),  # every candidate accepted
    (1.0, False, 1),                              # wider than the link: one
])
def test_support_placement_equals_the_grid_hash_reference(capsule_skin, spacing,
                                                          with_keepouts, placed):
    dermis, covering, keepouts = capsule_skin
    pos, top, blocked = geometry._support_candidates(
        dermis, covering, keepouts if with_keepouts else [], 0.002, seed=7)
    expected = greedy_grid_hash(pos, blocked, spacing)
    assert geometry._greedy_place(pos, blocked, spacing).tolist() == expected
    if placed is not None:
        assert len(expected) == placed


def test_greedy_pass_keeps_the_points_it_accepted_when_they_are_prepended(capsule_skin):
    # sample_sites prepends the sites it has placed to each batch of proposals.
    dermis, covering, keepouts = capsule_skin
    pos, _, blocked = geometry._support_candidates(dermis, covering, keepouts, 0.002, seed=7)
    kept = np.empty((0, 3))
    for chunk in np.array_split(np.arange(len(pos)), 4):
        batch = np.vstack([kept, pos[chunk]])
        held = np.concatenate([np.zeros(len(kept), dtype=bool), blocked[chunk]])
        got = geometry._greedy_place(batch, held, 0.02)
        assert got.tolist() == greedy_grid_hash(batch, held, 0.02)
        assert got[:len(kept)].tolist() == list(range(len(kept)))
        kept = batch[got]
    assert kept.tobytes() == pos[greedy_grid_hash(pos, blocked, 0.02)].tobytes()


@pytest.mark.parametrize("segments", [3, 12, 17])
def test_supports_equal_the_per_support_reference_bit_for_bit(capsule_skin, segments):
    dermis, covering, keepouts = capsule_skin
    supports = generate_supports(dermis, covering, keepouts, spacing=0.02, seed=7,
                                 radius=0.002, segments=segments)
    pos, top, blocked = geometry._support_candidates(dermis, covering, keepouts, 0.002, 7)
    expected = [support_cylinder(pos[c], top[c], 0.002, segments)
                for c in greedy_grid_hash(pos, blocked, 0.02)]
    assert len(supports) == len(expected) > 50
    for got, want in zip(supports, expected):
        assert_same_bits(got, want)


def test_keepouts_that_block_every_candidate_raise_placement_error(capsule_skin):
    dermis, covering, _ = capsule_skin
    blanket = [Footprint(center=(0.0, 0.0, 0.0), normal=(0, 0, 1), radius=1.0)]
    pos, _, blocked = geometry._support_candidates(dermis, covering, blanket, 0.002, 7)
    assert blocked.all() and greedy_grid_hash(pos, blocked, 0.02) == []
    with pytest.raises(PlacementError, match=r"^no support placement possible with "
                                             r"1 keepout\(s\) and spacing 0\.02$"):
        generate_supports(dermis, covering, blanket, spacing=0.02, seed=7)


def keepouts_and_ends_on_their_boundary(seed, offset, scale, radius):
    """Random keep-outs and candidate ends; every third end lies on a keep-out's
    cylinder of radius keepout radius + radius, as near as rounding allows."""
    rng = np.random.default_rng(seed)
    normals = rng.normal(size=(12, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    keepouts = [Footprint(center=tuple(scale * rng.uniform(-1.0, 1.0, 3) + offset),
                          normal=tuple(n), radius=scale * rng.uniform(0.05, 0.2))
                for n in normals]
    pos = scale * rng.uniform(-1.5, 1.5, (3000, 3)) + offset
    top = pos + scale * rng.normal(scale=0.05, size=pos.shape)
    on = np.arange(0, len(pos), 3)
    k = rng.integers(len(keepouts), size=len(on))
    center = np.array([keepouts[i].center for i in k])
    normal = np.array([keepouts[i].normal for i in k])
    r = np.array([keepouts[i].radius for i in k]) + radius
    t1, t2 = geometry.tangent_frame(normal)
    phi = rng.uniform(0.0, 2.0 * np.pi, len(on))
    along = scale * rng.uniform(-1.0, 1.0, len(on))
    pos[on] = center + r[:, None] * (np.cos(phi)[:, None] * t1 + np.sin(phi)[:, None] * t2) \
        + along[:, None] * normal
    top[on[1::2]] = pos[on[1::2]]
    return pos, top, keepouts, on


@pytest.mark.parametrize("seed,offset,scale", [
    (0, 0.0, 0.1), (1, 0.0, 1e-3), (2, 0.0, 50.0), (3, 1000.0, 0.1), (4, -1e5, 1.0)])
def test_keepout_test_equals_the_per_keepout_form_bit_for_bit(monkeypatch, seed, offset,
                                                              scale):
    radius = 0.02 * scale
    pos, top, keepouts, on = keepouts_and_ends_on_their_boundary(seed, offset, scale, radius)
    expected = keepout_blocked_by_keepout(pos, top, keepouts, radius)
    assert geometry._keepout_blocked(pos, top, keepouts, radius).tolist() == expected.tolist()
    assert 0.0 < expected[on].mean() < 1.0 and 0.0 < expected.mean() < 1.0
    for rows in (1, 7, 5000):
        monkeypatch.setattr(geometry, "_KEEPOUT_ROWS", rows)
        assert geometry._keepout_blocked(pos, top, keepouts, radius).tolist() == \
            expected.tolist()


def test_keepout_test_of_no_keepouts_or_no_candidates():
    pos = np.random.default_rng(0).normal(size=(10, 3))
    assert not geometry._keepout_blocked(pos, pos, [], 0.002).any()
    ring = [Footprint(center=(0.0, 0.0, 0.0), normal=(0, 0, 1), radius=0.5)]
    empty = np.zeros((0, 3))
    assert geometry._keepout_blocked(empty, empty, ring, 0.002).shape == (0,)


def test_support_candidates_of_a_link_1_km_away_equal_the_per_keepout_form(capsule_skin):
    dermis, covering, keepouts = capsule_skin
    offset = np.array([1000.0, -700.0, 300.0])
    far = [TriMesh(m.vertices + offset, m.faces, m.face_material) for m in (dermis, covering)]
    moved = [Footprint(center=np.add(k.center, offset), normal=k.normal, radius=k.radius)
             for k in keepouts]
    pos, top, blocked = geometry._support_candidates(*far, moved, 0.002, seed=7)
    expected = keepout_blocked_by_keepout(pos, top, moved, 0.002)
    assert blocked.tolist() == expected.tolist()
    assert 0.3 < expected.mean() < 0.8


def test_batched_tangent_frame_equals_the_one_normal_form():
    rng = np.random.default_rng(5)
    n = rng.normal(size=(2000, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    n[:6] = [[1, 0, 0], [0, 1, 0], [0, 0, -1], [0.9, np.sqrt(0.19), 0],
             [-0.9, 0, np.sqrt(0.19)], [np.nextafter(0.9, 1), np.sqrt(0.19), 0]]
    t1, t2 = geometry.tangent_frame(n)
    for k in range(len(n)):
        e1, e2 = tangent_frame_scalar(n[k])
        assert t1[k].tobytes() == e1.tobytes() and t2[k].tobytes() == e2.tobytes(), k
        one1, one2 = geometry.tangent_frame(n[k])
        assert one1.tobytes() == e1.tobytes() and one2.tobytes() == e2.tobytes(), k
