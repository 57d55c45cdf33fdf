"""STL and OBJ import/export.

STL files are unitless; callers may declare an input file's units ("m" or
"mm") and positions are converted to meters at the boundary. Export writes
meters and splits a tagged mesh into one binary STL per material (suffixes
_structural, _conductive, _flexible) or a single OBJ with material groups.
"""

import struct
from pathlib import Path

import numpy as np

from .mesh import Material, TriMesh, triangle_normals

_UNIT_SCALE = {"m": 1.0, "meters": 1.0, "mm": 1e-3, "millimeters": 1e-3}


def _scale_for(units):
    try:
        return _UNIT_SCALE[units.lower()]
    except KeyError:
        raise ValueError(f"unknown units {units!r}; expected one of {sorted(_UNIT_SCALE)}")


def _weld(triangles):
    """Weld exactly-equal vertices of a triangle soup into an indexed mesh.

    Vertices come out in lexicographic (x, y, z) order. -0.0 is welded as
    +0.0: both compare equal, so the two signs would otherwise leave one
    vertex whose zero sign depends on the sort.
    """
    flat = triangles.reshape(-1, 3) + 0.0
    order = np.lexsort((flat[:, 2], flat[:, 1], flat[:, 0]))
    ordered = flat[order]
    new = np.ones(len(flat), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(flat), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse.reshape(-1, 3)


def _require_finite(values, path, what):
    """Raise ValueError naming the file and the first row with a NaN or inf."""
    bad = ~np.isfinite(values).all(axis=tuple(range(1, values.ndim)))
    if bad.any():
        raise ValueError(f"mesh {path}: {what} {int(np.argmax(bad)) + 1} has a "
                         f"non-finite coordinate")


def load_stl(path, units="m"):
    data = Path(path).read_bytes()
    if data[:5] == b"solid" and b"facet" in data[:400]:
        tris = _parse_ascii_stl(data.decode("ascii", errors="replace"))
    else:
        tris = _parse_binary_stl(data)
    _require_finite(tris, path, "facet")
    verts, faces = _weld(tris * _scale_for(units))
    return TriMesh.from_arrays(verts, faces)


def _parse_binary_stl(data):
    if len(data) < 84:
        raise ValueError("binary STL truncated: missing header")
    (count,) = struct.unpack_from("<I", data, 80)
    expected = 84 + count * 50
    if len(data) < expected:
        raise ValueError(f"binary STL truncated: {len(data)} bytes, expected {expected}")
    records = np.frombuffer(data, dtype=np.uint8, count=count * 50, offset=84)
    records = records.reshape(count, 50)
    floats = records[:, :48].copy().view("<f4").reshape(count, 12)
    return floats[:, 3:12].astype(np.float64).reshape(count, 3, 3)


def _parse_ascii_stl(text):
    tris = []
    current = []
    for line in text.splitlines():
        parts = line.split()
        if parts[:1] == ["vertex"]:
            current.append([float(parts[1]), float(parts[2]), float(parts[3])])
            if len(current) == 3:
                tris.append(current)
                current = []
    if not tris:
        raise ValueError("ASCII STL contains no vertices")
    return np.array(tris, dtype=np.float64)


# One binary STL facet: normal, three corners, attribute byte count.
_STL_RECORD = np.dtype([("normal", "<f4", (3,)), ("corners", "<f4", (3, 3)), ("attr", "<u2")])


def save_stl(mesh: TriMesh, path):
    """Write a single binary STL containing every face of the mesh."""
    tri = mesh.triangles()
    records = np.zeros(mesh.n_faces, dtype=_STL_RECORD)
    records["normal"] = triangle_normals(tri)
    records["corners"] = tri
    with open(path, "wb") as f:
        f.write(b"hybridskin binary stl".ljust(80, b"\0") + struct.pack("<I", mesh.n_faces))
        records.tofile(f)


def save_stl_per_material(mesh: TriMesh, base_path):
    """Write one binary STL per material present; returns {Material: path}."""
    base = Path(base_path)
    written = {}
    for mat in Material:
        sel = mesh.face_material == int(mat)
        if not np.any(sel):
            continue
        sub = TriMesh(mesh.vertices, mesh.faces[sel], mesh.face_material[sel])
        path = base.with_name(base.stem + mat.suffix + ".stl")
        save_stl(sub, path)
        written[mat] = path
    return written


def load_obj(path, units="m"):
    """Positions and triangle faces only; groups/normals/uvs are ignored."""
    scale = _scale_for(units)
    verts = []
    faces = []
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            verts.append([float(parts[1]) * scale, float(parts[2]) * scale,
                          float(parts[3]) * scale])
        elif parts[0] == "f":
            idx = [int(p.split("/")[0]) for p in parts[1:]]
            idx = [i - 1 if i > 0 else len(verts) + i for i in idx]
            for k in range(1, len(idx) - 1):  # fan-triangulate polygons
                faces.append([idx[0], idx[k], idx[k + 1]])
    if not faces:
        raise ValueError(f"OBJ {path} contains no faces")
    verts = np.array(verts, dtype=np.float64).reshape(-1, 3)
    _require_finite(verts, path, "vertex")
    return TriMesh.from_arrays(verts, faces)


def save_obj(mesh: TriMesh, path):
    """Single OBJ with faces grouped by material (usemtl per group)."""
    parts = ["# hybridskin OBJ export\n",
             "v %.9g %.9g %.9g\n" * mesh.n_vertices % tuple(mesh.vertices.ravel().tolist())]
    for mat in Material:
        sel = mesh.face_material == int(mat)
        if not np.any(sel):
            continue
        name = mat.name.lower()
        faces = mesh.faces[sel] + 1
        parts.append(f"g {name}\nusemtl {name}\n")
        parts.append("f %d %d %d\n" * len(faces) % tuple(faces.ravel().tolist()))
    Path(path).write_text("".join(parts))


def load_mesh(path, units="m"):
    """Load by extension: .stl (binary or ASCII) or .obj, tagged STRUCTURAL."""
    suffix = Path(path).suffix.lower()
    if suffix == ".stl":
        return load_stl(path, units=units)
    if suffix == ".obj":
        return load_obj(path, units=units)
    raise ValueError(f"unsupported mesh format {suffix!r} (use .stl or .obj)")
