import re

import numpy as np
import pytest

from hybridskin.geometry import OffsetSpec, extrude_covering, offset_surface

from hybridskin.mesh import Material, TriMesh, concat_meshes, make_box, validate_mesh
from hybridskin.meshio import (_weld, load_mesh, load_obj, load_stl, save_obj,
                               save_stl, save_stl_per_material)
from references import (capsule_mesh, save_obj_by_line, save_stl_ascii, save_stl_by_face,
                        save_stl_per_material_by_face, weld_by_unique)


def sorted_verts(mesh):
    return np.array(sorted(map(tuple, np.round(mesh.vertices, 12))))


def test_binary_stl_round_trip(tmp_path):
    box = make_box((0.1, 0.2, 0.3), center=(0.05, 0.0, -0.1))
    path = tmp_path / "box.stl"
    save_stl(box, path)
    loaded = load_stl(path)
    assert loaded.n_faces == box.n_faces
    assert np.allclose(sorted_verts(loaded), sorted_verts(box), atol=1e-6)
    assert validate_mesh(loaded).is_valid


def test_ascii_stl_round_trip(tmp_path):
    box = make_box((0.02, 0.02, 0.02))
    path = tmp_path / "box_ascii.stl"
    save_stl_ascii(box, path)
    assert path.read_text().startswith("solid")
    loaded = load_stl(path)
    assert loaded.n_faces == 12
    assert np.allclose(sorted_verts(loaded), sorted_verts(box), atol=1e-9)


def test_millimeter_units_convert_on_load(tmp_path):
    box = make_box((1.0, 1.0, 1.0))  # exported numbers stay as-is
    path = tmp_path / "box.stl"
    save_stl(box, path)
    loaded = load_stl(path, units="mm")
    assert loaded.vertices.max() == pytest.approx(0.5e-3)


def test_per_material_export_splits_files(tmp_path):
    merged = concat_meshes([
        make_box(material=Material.STRUCTURAL),
        make_box(center=(2, 0, 0), material=Material.CONDUCTIVE),
        make_box(center=(4, 0, 0), material=Material.FLEXIBLE),
    ])
    written = save_stl_per_material(merged, tmp_path / "skin.stl")
    assert set(written) == {Material.STRUCTURAL, Material.CONDUCTIVE, Material.FLEXIBLE}
    assert written[Material.STRUCTURAL].name == "skin_structural.stl"
    assert written[Material.CONDUCTIVE].name == "skin_conductive.stl"
    assert written[Material.FLEXIBLE].name == "skin_flexible.stl"
    for path in written.values():
        assert load_stl(path).n_faces == 12


def test_obj_round_trip_with_material_groups(tmp_path):
    merged = concat_meshes([
        make_box(material=Material.STRUCTURAL),
        make_box(center=(2, 0, 0), material=Material.CONDUCTIVE),
    ])
    path = tmp_path / "skin.obj"
    save_obj(merged, path)
    text = path.read_text()
    assert "usemtl structural" in text
    assert "usemtl conductive" in text
    loaded = load_obj(path)
    assert loaded.n_faces == 24
    assert np.allclose(sorted_verts(loaded), sorted_verts(merged), atol=1e-9)


def test_obj_polygon_faces_are_fan_triangulated(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    mesh = load_obj(path)
    assert mesh.n_faces == 2


def test_obj_negative_indices_resolve_relatively(tmp_path):
    path = tmp_path / "neg.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n")
    mesh = load_obj(path)
    assert mesh.n_faces == 1
    assert np.array_equal(mesh.faces[0], [0, 1, 2])


def test_load_mesh_dispatches_on_extension(tmp_path):
    box = make_box()
    save_stl(box, tmp_path / "a.stl")
    save_obj(box, tmp_path / "a.obj")
    assert load_mesh(tmp_path / "a.stl").n_faces == 12
    assert load_mesh(tmp_path / "a.obj").n_faces == 12
    with pytest.raises(ValueError):
        load_mesh(tmp_path / "a.ply")


def test_binary_stl_export_is_deterministic(tmp_path):
    box = make_box((0.1, 0.1, 0.1))
    p1, p2 = tmp_path / "a.stl", tmp_path / "b.stl"
    save_stl(box, p1)
    save_stl(box, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_binary_stl_raises(tmp_path):
    box = make_box()
    path = tmp_path / "trunc.stl"
    save_stl(box, path)
    path.write_bytes(path.read_bytes()[:100])
    with pytest.raises(ValueError, match="truncated"):
        load_stl(path)


def random_tagged_mesh(seed, n_vertices=300, n_faces=900, scale=1.0):
    rng = np.random.default_rng(seed)
    return TriMesh(rng.normal(size=(n_vertices, 3)) * scale,
                   rng.integers(0, n_vertices, size=(n_faces, 3)),
                   rng.integers(0, 3, size=n_faces))


def skin_like_mesh():
    """A dense capsule link with its dermis and covering, three materials."""
    link = capsule_mesh(0.045, 0.22, 48, 8, 16)
    dermis = offset_surface(link, OffsetSpec(0.004))
    covering = extrude_covering(dermis, OffsetSpec(0.006))
    tagged = TriMesh(link.vertices, link.faces,
                     np.full(link.n_faces, int(Material.CONDUCTIVE)))
    return concat_meshes([tagged, dermis, covering])


@pytest.mark.parametrize("mesh", [
    skin_like_mesh(), random_tagged_mesh(0), random_tagged_mesh(1, scale=1e-3),
    random_tagged_mesh(2, n_faces=1), make_box()], ids=["skin", "r0", "r1", "one", "box"])
def test_stl_writers_equal_the_per_face_reference_byte_for_byte(tmp_path, mesh):
    save_stl(mesh, tmp_path / "all.stl")
    save_stl_by_face(mesh, tmp_path / "all_ref.stl")
    assert (tmp_path / "all.stl").read_bytes() == (tmp_path / "all_ref.stl").read_bytes()
    (tmp_path / "new").mkdir()
    (tmp_path / "ref").mkdir()
    written = save_stl_per_material(mesh, tmp_path / "new" / "skin.stl")
    expected = save_stl_per_material_by_face(mesh, tmp_path / "ref" / "skin.stl")
    assert {m: p.name for m, p in written.items()} == {m: p.name for m, p in expected.items()}
    for mat, path in written.items():
        assert path.read_bytes() == expected[mat].read_bytes(), mat


def test_obj_writer_equals_the_per_line_reference_byte_for_byte(tmp_path):
    mesh = random_tagged_mesh(3)
    rng = np.random.default_rng(4)
    mesh.vertices *= 10.0 ** rng.uniform(-300, 300, size=mesh.vertices.shape)
    special = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300,      # signed zero, extremes
               5e-324, -5e-324, 1e-310, 2.2250738585072009e-308,  # subnormals
               1.0 + 2.0 ** -52, 123456789.0]
    mesh.vertices[:4] = np.reshape(special, (4, 3))
    empty = TriMesh(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))
    for m in (mesh, skin_like_mesh(), make_box(), empty):
        save_obj(m, tmp_path / "new.obj")
        save_obj_by_line(m, tmp_path / "ref.obj")
        assert (tmp_path / "new.obj").read_bytes() == (tmp_path / "ref.obj").read_bytes()


def stl_with_one_bad_coordinate(path, value, facet=3, ascii=False):
    """A box STL whose facet (0-based) has `value` as its first corner's y."""
    box = make_box((0.1, 0.1, 0.1))
    if ascii:
        save_stl_ascii(box, path)
        lines = path.read_text().splitlines()
        at = [i for i, line in enumerate(lines) if line.split()[:1] == ["vertex"]][3 * facet]
        x, _, z = lines[at].split()[1:]
        lines[at] = f"vertex {x} {value} {z}"
        path.write_text("\n".join(lines) + "\n")
    else:
        save_stl(box, path)
        data = bytearray(path.read_bytes())
        data[84 + 50 * facet + 16:84 + 50 * facet + 20] = np.float32(value).tobytes()
        path.write_bytes(bytes(data))
    return path


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("ascii", [False, True], ids=["binary", "ascii"])
def test_stl_with_a_non_finite_coordinate_is_rejected_naming_the_file(tmp_path, value,
                                                                      ascii):
    path = stl_with_one_bad_coordinate(tmp_path / "link.stl", float(value), ascii=ascii)
    with pytest.raises(ValueError, match=rf"^mesh {re.escape(str(path))}: facet 4 has a "
                                         rf"non-finite coordinate$"):
        load_stl(path, units="mm")


@pytest.mark.parametrize("value", ["nan", "inf", "-1e999"])
def test_obj_with_a_non_finite_coordinate_is_rejected_naming_the_file(tmp_path, value):
    path = tmp_path / "bad.obj"
    path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 {value} 0\nf 1 2 3\n")
    with pytest.raises(ValueError, match=rf"^mesh {re.escape(str(path))}: vertex 3 has a "
                                         rf"non-finite coordinate$"):
        load_mesh(path)


def assert_welds_like_np_unique(tris):
    verts, faces = _weld(tris)
    want_verts, want_faces = weld_by_unique(tris)
    assert verts.dtype == want_verts.dtype and faces.dtype == want_faces.dtype
    assert verts.shape == want_verts.shape and np.array_equal(verts, want_verts)
    assert faces.tobytes() == want_faces.tobytes()
    assert np.array_equal(verts[faces], tris)
    return verts, faces


@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_weld_equals_np_unique_on_soups_with_duplicates(n):
    rng = np.random.default_rng(n)
    pool = rng.normal(size=(max(1, n // 3), 3))
    tris = pool[rng.integers(0, len(pool), size=(n, 3))]
    verts, faces = assert_welds_like_np_unique(tris)
    assert len(verts) == len(np.unique(tris.reshape(-1, 3), axis=0))
    assert verts.tobytes() == weld_by_unique(tris)[0].tobytes()


def test_weld_of_single_triangles():
    one = np.array([[[0.0, 1.0, 2.0], [0.0, 1.0, 1.0], [-3.0, 5.0, 0.0]]])
    verts, faces = assert_welds_like_np_unique(one)
    assert verts.tolist() == [[-3.0, 5.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 2.0]]
    assert faces.tolist() == [[2, 1, 0]]
    point = np.full((1, 3, 3), 0.25)
    verts, faces = assert_welds_like_np_unique(point)
    assert verts.tolist() == [[0.25, 0.25, 0.25]] and faces.tolist() == [[0, 0, 0]]


def test_weld_keeps_signed_zeros_as_one_positive_zero():
    rng = np.random.default_rng(9)
    for _ in range(20):
        tris = rng.choice([-0.0, 0.0, 1.0, -1.0], size=(30, 3, 3))
        verts, _ = assert_welds_like_np_unique(tris)
        assert not np.signbit(verts[verts == 0.0]).any()


def test_weld_of_the_binary_stl_writer_round_trip_is_np_uniques(tmp_path):
    mesh = skin_like_mesh()
    save_stl(mesh, tmp_path / "skin.stl")
    data = (tmp_path / "skin.stl").read_bytes()
    loaded = load_stl(tmp_path / "skin.stl", units="mm")
    records = np.frombuffer(data, dtype=np.uint8, offset=84).reshape(-1, 50)
    tris = records[:, 12:48].copy().view("<f4").astype(np.float64).reshape(-1, 3, 3) * 1e-3
    want_verts, want_faces = weld_by_unique(tris)
    assert loaded.vertices.tobytes() == want_verts.tobytes()
    assert loaded.faces.tobytes() == want_faces.tobytes()
