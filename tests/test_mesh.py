import numpy as np
import pytest

from hybridskin.mesh import (Material, TriMesh, concat_meshes, make_box,
                             make_cylinder, make_plane_patch, make_uv_sphere,
                             sample_surface, validate_mesh)
from references import capsule_mesh, sphere_tessellation_for_chord_error, validate_mesh_dict


def signed_volume(mesh):
    t = mesh.triangles()
    return np.sum(np.einsum("ij,ij->i", t[:, 0], np.cross(t[:, 1], t[:, 2]))) / 6.0


def test_unit_cube_is_valid_and_closed():
    report = validate_mesh(make_box((1.0, 1.0, 1.0)))
    assert report.is_valid
    assert report.is_closed
    assert report.boundary_edges == 0
    assert report.winding_consistent


def test_single_triangle_is_open_with_three_boundary_edges():
    tri = TriMesh.from_arrays([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    report = validate_mesh(tri)
    assert report.is_valid
    assert report.boundary_edges == 3
    assert not report.is_closed


def test_out_of_range_face_index_is_reported():
    bad = TriMesh.from_arrays([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 3]])
    report = validate_mesh(bad)
    assert not report.is_valid
    assert "invalid-index" in {f.code for f in report.findings}


def test_degenerate_face_is_reported():
    mesh = TriMesh.from_arrays([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])
    report = validate_mesh(mesh)
    assert not report.is_valid
    assert "degenerate-face" in {f.code for f in report.findings}


def test_flipped_face_breaks_winding_consistency():
    box = make_box()
    faces = box.faces.copy()
    faces[0] = faces[0][::-1]
    report = validate_mesh(TriMesh(box.vertices, faces, box.face_material))
    assert not report.winding_consistent
    assert "inconsistent-winding" in {f.code for f in report.findings}


def test_primitives_are_outward_oriented():
    assert signed_volume(make_box((1, 1, 1))) == pytest.approx(1.0)
    r = 0.05
    sphere = make_uv_sphere(r, 16, 32)
    assert signed_volume(sphere) == pytest.approx(4 / 3 * np.pi * r ** 3, rel=0.02)
    cyl = make_cylinder(0.04, 0.2, 64)
    assert signed_volume(cyl) == pytest.approx(np.pi * 0.04 ** 2 * 0.2, rel=0.01)


def test_open_cylinder_has_boundary_rims():
    shell = make_cylinder(0.04, 0.2, 32, capped=False)
    report = validate_mesh(shell)
    assert report.is_valid
    assert report.boundary_edges == 64  # two rims of 32 edges


def test_plane_patch_vertex_normals_are_plus_z():
    patch = make_plane_patch(0.1, 0.1, 6, 6)
    normals = patch.vertex_normals()
    assert np.allclose(normals, [0.0, 0.0, 1.0], atol=1e-12)


def test_angle_weighted_sphere_normals_are_radial():
    sphere = make_uv_sphere(0.05, 16, 32)
    normals = sphere.vertex_normals()
    radial = sphere.vertices / np.linalg.norm(sphere.vertices, axis=1, keepdims=True)
    assert np.einsum("ij,ij->i", normals, radial).min() > 0.9999


def test_sphere_tessellation_helper_bounds_chord_error():
    r, tol = 0.05, 1e-3
    n_lat, n_lon = sphere_tessellation_for_chord_error(r, tol)
    worst_step = max(np.pi / n_lat, 2 * np.pi / n_lon)
    assert r * (1 - np.cos(worst_step / 2)) <= tol + 1e-12


def test_concat_preserves_materials_and_offsets_indices():
    a = make_box(material=Material.STRUCTURAL)
    b = make_box(center=(3, 0, 0), material=Material.FLEXIBLE)
    merged = concat_meshes([a, b])
    assert merged.n_vertices == 16
    assert merged.n_faces == 24
    assert set(merged.face_material.tolist()) == {0, 2}
    assert validate_mesh(merged).is_valid


def test_sample_surface_face_frequency_matches_area():
    # Two triangles with 3:1 area ratio; chi-square on face counts.
    mesh = TriMesh.from_arrays(
        [[0, 0, 0], [3, 0, 0], [0, 2, 0], [10, 0, 0], [11, 0, 0], [10, 1, 0]],
        [[0, 1, 2], [3, 4, 5]])
    areas = mesh.face_areas()
    assert areas[0] / areas[1] == pytest.approx(6.0)
    n = 100_000
    rng = np.random.default_rng(7)
    _, face_idx, _ = sample_surface(mesh, n, rng)
    counts = np.bincount(face_idx, minlength=2)
    expected = n * areas / areas.sum()
    from scipy.stats import chisquare
    _, p = chisquare(counts, expected)
    assert p > 0.01


def test_sample_surface_points_lie_on_faces():
    mesh = make_plane_patch(0.2, 0.2, 4, 4)
    rng = np.random.default_rng(0)
    pos, face_idx, bary = sample_surface(mesh, 500, rng)
    assert np.allclose(pos[:, 2], 0.0, atol=1e-15)
    tri = mesh.vertices[mesh.faces[face_idx]]
    recon = np.einsum("ij,ijk->ik", bary, tri)
    assert np.allclose(recon, pos, atol=1e-12)


# ---------------------------------------------------------------------------
# The vectorized winding check against the per-edge dict form
# ---------------------------------------------------------------------------

def with_faces(mesh, faces):
    return TriMesh(mesh.vertices, faces, np.zeros(len(faces), dtype=np.int8))


def flipped(mesh, rows):
    faces = mesh.faces.copy()
    faces[rows] = faces[rows][:, ::-1]
    return with_faces(mesh, faces)


def random_soup(seed, n_vertices=12, n_faces=60):
    rng = np.random.default_rng(seed)
    return TriMesh.from_arrays(rng.normal(size=(n_vertices, 3)),
                               rng.integers(0, n_vertices, size=(n_faces, 3)))


def case_meshes():
    box = make_box()
    fan = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])  # edge (0, 1) in 3 faces
    fin = TriMesh.from_arrays([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]], fan)
    sphere = make_uv_sphere(1.0, 8, 16)
    capsule = capsule_mesh(0.045, 0.22, 48, 8, 16)
    return {
        "flipped-face": flipped(box, [0]),
        "non-manifold-edge": fin,
        "open-patch": make_plane_patch(1.0, 1.0, 4, 3),
        "over-16-conflicts": flipped(sphere, np.arange(0, sphere.n_faces, 3)),
        "capsule": capsule,
        "capsule-flipped": flipped(capsule, np.arange(5, capsule.n_faces, 7)),
        "box-plus-patch": concat_meshes([box, make_plane_patch(1.0, 1.0, 2, 2)]),
        "soup-0": random_soup(0),
        "soup-1": random_soup(1, n_vertices=5, n_faces=40),
        "empty": TriMesh(np.zeros((3, 3)), np.zeros((0, 3)), np.zeros(0)),
    }


@pytest.mark.parametrize("name", list(case_meshes()))
def test_validate_mesh_findings_equal_the_dict_reference(name):
    mesh = case_meshes()[name]
    assert validate_mesh(mesh) == validate_mesh_dict(mesh)


def test_winding_findings_keep_their_codes_order_and_cap():
    cases = case_meshes()
    report = validate_mesh(cases["non-manifold-edge"])
    assert [f.code for f in report.findings] == ["non-manifold-edge"]
    assert report.findings[0].message == "edge (0, 1) shared by 3 faces"
    assert report.findings[0].indices == [[0, 1]]
    assert report.boundary_edges == 6

    report = validate_mesh(cases["over-16-conflicts"])
    winding = [f for f in report.findings if f.code == "inconsistent-winding"]
    count = int(winding[0].message.split()[0])
    assert count > 16 and len(winding[0].indices) == 16
    assert not report.winding_consistent

    report = validate_mesh(cases["open-patch"])
    assert report.is_valid and report.boundary_edges == 2 * (4 + 3)
