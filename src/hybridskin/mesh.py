"""Indexed triangle meshes with per-face material tags, plus test primitives.

All coordinates are SI meters. Meshes are value objects: operations return
new instances and never mutate their inputs.
"""

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

DEGENERATE_AREA = 1e-12  # m^2, faces below this count as degenerate


class Material(IntEnum):
    STRUCTURAL = 0
    CONDUCTIVE = 1
    FLEXIBLE = 2

    @property
    def suffix(self):
        return "_" + self.name.lower()


@dataclass
class TriMesh:
    """Vertices (n,3) float64, faces (m,3) int64, face_material (m,) int8."""

    vertices: np.ndarray
    faces: np.ndarray
    face_material: np.ndarray

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.faces = np.ascontiguousarray(self.faces, dtype=np.int64).reshape(-1, 3)
        self.face_material = np.ascontiguousarray(self.face_material, dtype=np.int8).reshape(-1)
        if self.face_material.shape[0] != self.faces.shape[0]:
            raise ValueError(
                f"face_material has {self.face_material.shape[0]} entries "
                f"for {self.faces.shape[0]} faces"
            )

    @classmethod
    def from_arrays(cls, vertices, faces, material=Material.STRUCTURAL):
        faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
        tags = np.full(faces.shape[0], int(material), dtype=np.int8)
        return cls(np.asarray(vertices, dtype=np.float64), faces, tags)

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_faces(self):
        return self.faces.shape[0]

    def copy(self):
        return TriMesh(self.vertices.copy(), self.faces.copy(), self.face_material.copy())

    def triangles(self):
        """Face corner positions, shape (m, 3, 3)."""
        return self.vertices[self.faces]

    def face_normals(self, normalize=True):
        tri = self.triangles()
        n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        if normalize:
            lens = np.linalg.norm(n, axis=1)
            lens[lens == 0.0] = 1.0
            n = n / lens[:, None]
        return n

    def face_areas(self):
        tri = self.triangles()
        n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        return 0.5 * np.linalg.norm(n, axis=1)

    def vertex_normals(self):
        """Angle-weighted vertex normals (unit length where defined)."""
        tri = self.triangles()
        fn = self.face_normals(normalize=True)
        normals = np.zeros_like(self.vertices)
        for corner in range(3):
            a = tri[:, (corner + 1) % 3] - tri[:, corner]
            b = tri[:, (corner + 2) % 3] - tri[:, corner]
            la = np.linalg.norm(a, axis=1)
            lb = np.linalg.norm(b, axis=1)
            ok = (la > 0) & (lb > 0)
            cosang = np.zeros(len(tri))
            cosang[ok] = np.einsum("ij,ij->i", a[ok], b[ok]) / (la[ok] * lb[ok])
            ang = np.arccos(np.clip(cosang, -1.0, 1.0))
            np.add.at(normals, self.faces[:, corner], fn * ang[:, None])
        lens = np.linalg.norm(normals, axis=1)
        nz = lens > 0
        normals[nz] = normals[nz] / lens[nz, None]
        return normals

    def edges(self):
        """All directed face edges, shape (3m, 2)."""
        f = self.faces
        return np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]], axis=0)

    def bounds(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def transformed(self, rotation_matrix, translation):
        v = self.vertices @ np.asarray(rotation_matrix, dtype=np.float64).T
        v = v + np.asarray(translation, dtype=np.float64)
        return TriMesh(v, self.faces.copy(), self.face_material.copy())


def concat_meshes(meshes):
    """Concatenate meshes into one body, preserving per-face materials."""
    meshes = list(meshes)
    if not meshes:
        return TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64),
                       np.zeros(0, dtype=np.int8))
    verts, faces, tags = [], [], []
    offset = 0
    for m in meshes:
        verts.append(m.vertices)
        faces.append(m.faces + offset)
        tags.append(m.face_material)
        offset += m.n_vertices
    return TriMesh(np.vstack(verts), np.vstack(faces), np.concatenate(tags))


@dataclass
class Finding:
    code: str
    severity: str  # "error" | "warning"
    message: str
    indices: list = field(default_factory=list)


@dataclass
class ValidationReport:
    findings: list
    boundary_edges: int
    is_closed: bool
    winding_consistent: bool

    @property
    def is_valid(self):
        return not any(f.severity == "error" for f in self.findings)

    def codes(self):
        return {f.code for f in self.findings}


def validate_mesh(mesh: TriMesh) -> ValidationReport:
    """Check index validity, degenerate faces, winding, and open boundaries.

    Pure function; never raises. Errors make the report invalid, warnings
    (open boundaries) do not.
    """
    findings = []

    bad = np.where((mesh.faces < 0) | (mesh.faces >= mesh.n_vertices))[0]
    if bad.size:
        findings.append(Finding(
            "invalid-index", "error",
            f"{bad.size} face(s) reference out-of-range vertex indices",
            sorted(set(bad.tolist()))))
        # Index errors poison every downstream check.
        return ValidationReport(findings, 0, False, False)

    areas = mesh.face_areas()
    degen = np.where(areas <= DEGENERATE_AREA)[0]
    if degen.size:
        findings.append(Finding(
            "degenerate-face", "error",
            f"{degen.size} face(s) have area <= {DEGENERATE_AREA} m^2",
            degen.tolist()))

    # Winding: a shared undirected edge must be traversed in opposite
    # directions by its two faces.
    directed = mesh.edges()
    keys = {}
    winding_ok = True
    conflict_edges = []
    for a, b in directed:
        a, b = int(a), int(b)
        key = (a, b) if a < b else (b, a)
        sign = 1 if a < b else -1
        prev = keys.get(key)
        if prev is None:
            keys[key] = [sign]
        else:
            prev.append(sign)
    boundary = 0
    for key, signs in keys.items():
        if len(signs) == 1:
            boundary += 1
        elif len(signs) == 2:
            if signs[0] == signs[1]:
                winding_ok = False
                conflict_edges.append(key)
        else:
            findings.append(Finding(
                "non-manifold-edge", "warning",
                f"edge {key} shared by {len(signs)} faces", [list(key)]))
    if not winding_ok:
        findings.append(Finding(
            "inconsistent-winding", "error",
            f"{len(conflict_edges)} edge(s) traversed twice in the same direction",
            [list(k) for k in conflict_edges[:16]]))

    unreferenced = np.setdiff1d(np.arange(mesh.n_vertices), mesh.faces.reshape(-1))
    if unreferenced.size:
        findings.append(Finding(
            "unreferenced-vertex", "warning",
            f"{unreferenced.size} vertex(es) not used by any face",
            unreferenced.tolist()))

    return ValidationReport(findings, boundary, boundary == 0, winding_ok)


def sample_surface(mesh: TriMesh, count: int, rng: np.random.Generator):
    """Draw area-uniform random points on the mesh surface.

    Faces are chosen proportionally to area, positions uniformly within the
    face (square-root barycentric trick). Returns (positions (n,3),
    face_indices (n,), barycentric (n,3)).
    """
    areas = mesh.face_areas()
    total = areas.sum()
    if total <= 0.0:
        raise ValueError("mesh has no surface area to sample")
    face_idx = rng.choice(mesh.n_faces, size=count, p=areas / total)
    r1 = np.sqrt(rng.random(count))
    r2 = rng.random(count)
    bary = np.column_stack([1.0 - r1, r1 * (1.0 - r2), r1 * r2])
    tri = mesh.vertices[mesh.faces[face_idx]]
    pos = np.einsum("ij,ijk->ik", bary, tri)
    return pos, face_idx, bary


# ---------------------------------------------------------------------------
# Primitive generators (fixtures for tests and demo scenes)
# ---------------------------------------------------------------------------

def make_box(size=(1.0, 1.0, 1.0), center=(0.0, 0.0, 0.0), material=Material.STRUCTURAL):
    """Axis-aligned closed box, 8 vertices / 12 faces, outward winding."""
    sx, sy, sz = (s / 2.0 for s in size)
    cx, cy, cz = center
    v = np.array([
        [-sx, -sy, -sz], [sx, -sy, -sz], [sx, sy, -sz], [-sx, sy, -sz],
        [-sx, -sy, sz], [sx, -sy, sz], [sx, sy, sz], [-sx, sy, sz],
    ]) + np.array([cx, cy, cz])
    f = np.array([
        [0, 2, 1], [0, 3, 2],      # bottom (-z)
        [4, 5, 6], [4, 6, 7],      # top (+z)
        [0, 1, 5], [0, 5, 4],      # -y
        [2, 3, 7], [2, 7, 6],      # +y
        [1, 2, 6], [1, 6, 5],      # +x
        [3, 0, 4], [3, 4, 7],      # -x
    ])
    return TriMesh.from_arrays(v, f, material)


def make_plane_patch(width=1.0, height=1.0, nx=10, ny=10,
                     center=(0.0, 0.0, 0.0), material=Material.STRUCTURAL):
    """Open rectangular patch in the z=0 plane with +z normals."""
    xs = np.linspace(-width / 2.0, width / 2.0, nx + 1)
    ys = np.linspace(-height / 2.0, height / 2.0, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    v = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    v += np.asarray(center, dtype=np.float64)
    faces = []
    for i in range(nx):
        for j in range(ny):
            a = i * (ny + 1) + j
            b = (i + 1) * (ny + 1) + j
            faces.append([a, b, b + 1])
            faces.append([a, b + 1, a + 1])
    return TriMesh.from_arrays(v, faces, material)


def make_uv_sphere(radius=1.0, n_lat=16, n_lon=32, center=(0.0, 0.0, 0.0),
                   material=Material.STRUCTURAL):
    """Closed UV sphere; max chordal error r*(1 - cos(pi/(2*min(n_lat, n_lon/2))))."""
    cx, cy, cz = center
    verts = [[cx, cy, cz + radius]]
    for i in range(1, n_lat):
        theta = math.pi * i / n_lat
        st, ct = math.sin(theta), math.cos(theta)
        for j in range(n_lon):
            phi = 2.0 * math.pi * j / n_lon
            verts.append([cx + radius * st * math.cos(phi),
                          cy + radius * st * math.sin(phi),
                          cz + radius * ct])
    verts.append([cx, cy, cz - radius])
    south = len(verts) - 1
    faces = []
    ring = lambda i, j: 1 + (i - 1) * n_lon + (j % n_lon)
    for j in range(n_lon):
        faces.append([0, ring(1, j), ring(1, j + 1)])
    for i in range(1, n_lat - 1):
        for j in range(n_lon):
            a, b = ring(i, j), ring(i, j + 1)
            c, d = ring(i + 1, j), ring(i + 1, j + 1)
            faces.append([a, c, d])
            faces.append([a, d, b])
    for j in range(n_lon):
        faces.append([south, ring(n_lat - 1, j + 1), ring(n_lat - 1, j)])
    return TriMesh.from_arrays(verts, faces, material)


def sphere_tessellation_for_chord_error(radius, tol):
    """(n_lat, n_lon) so the sphere's chordal error stays below tol."""
    # chord sagitta for angular step t is r*(1 - cos(t/2))
    t = 2.0 * math.acos(max(0.0, 1.0 - tol / radius))
    n_lat = max(4, int(math.ceil(math.pi / t)))
    n_lon = max(8, int(math.ceil(2.0 * math.pi / t)))
    return n_lat, n_lon


def make_cylinder(radius=1.0, height=1.0, segments=32, capped=True,
                  center=(0.0, 0.0, 0.0), material=Material.STRUCTURAL):
    """Cylinder with axis +z. capped=False gives the open lateral shell only."""
    cx, cy, cz = center
    z0, z1 = cz - height / 2.0, cz + height / 2.0
    verts = []
    for z in (z0, z1):
        for j in range(segments):
            phi = 2.0 * math.pi * j / segments
            verts.append([cx + radius * math.cos(phi),
                          cy + radius * math.sin(phi), z])
    faces = []
    for j in range(segments):
        a, b = j, (j + 1) % segments
        c, d = segments + j, segments + (j + 1) % segments
        faces.append([a, b, d])
        faces.append([a, d, c])
    if capped:
        verts.append([cx, cy, z0])
        verts.append([cx, cy, z1])
        bot, top = len(verts) - 2, len(verts) - 1
        for j in range(segments):
            a, b = j, (j + 1) % segments
            faces.append([bot, b, a])
            faces.append([top, segments + a, segments + b])
    return TriMesh.from_arrays(verts, faces, material)
