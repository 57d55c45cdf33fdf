import numpy as np
import pytest

from hybridskin.mesh import (Material, TriMesh, concat_meshes, make_box,
                             make_cylinder, make_plane_patch, make_uv_sphere,
                             sample_surface, validate_mesh)
from references import sphere_tessellation_for_chord_error


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
