import numpy as np
import pytest

from hybridskin.mesh import Material, concat_meshes, make_box, validate_mesh
from hybridskin.meshio import (load_mesh, load_obj, load_stl, save_obj,
                               save_stl, save_stl_per_material)
from references import save_stl_ascii


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
