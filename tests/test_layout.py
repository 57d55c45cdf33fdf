import json
import re

import numpy as np
import pytest

from hybridskin import layout
from hybridskin.errors import CouplingGapError, SaturationError
from hybridskin.geometry import OffsetSpec, extrude_covering
from hybridskin.layout import (MountSpec, RingSpec, SurfaceSite, compose_skin,
                               instance_mount, instance_ring, read_manifest,
                               sample_sites, write_manifest)
from hybridskin.mesh import (Material, make_cylinder, make_plane_patch,
                             sample_surface, validate_mesh)


def flat_site(position=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0), site_id=0):
    return SurfaceSite(site_id=site_id, face_index=0, barycentric=(1.0, 0.0, 0.0),
                       position=position, normal=normal)


# ---------------------------------------------------------------------------
# sample_sites
# ---------------------------------------------------------------------------

def test_single_site_always_succeeds():
    patch = make_plane_patch(0.05, 0.05, 3, 3)
    sites = sample_sites(patch, 1, min_dist=1.0, seed=0)
    assert len(sites) == 1
    assert sites[0].site_id == 0


def test_forty_sites_keep_min_distance_on_link_scale_mesh():
    # Link-scale closed cylinder: ~0.19 m^2 of surface for 40 nodules.
    link = make_cylinder(0.06, 0.5, 48)
    sites = sample_sites(link, 40, min_dist=0.03, seed=11)
    assert len(sites) == 40
    pos = np.array([s.position for s in sites])
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(dist, np.inf)
    assert dist.min() >= 0.03


def test_impossible_packing_raises_saturation():
    tiny = make_plane_patch(0.01, 0.01, 2, 2)
    with pytest.raises(SaturationError):
        sample_sites(tiny, 1000, min_dist=0.01, seed=0, max_attempts=20_000)


def test_sites_are_deterministic_per_seed():
    patch = make_plane_patch(0.2, 0.2, 8, 8)
    a = sample_sites(patch, 10, 0.03, seed=5)
    b = sample_sites(patch, 10, 0.03, seed=5)
    assert [s.position for s in a] == [s.position for s in b]
    c = sample_sites(patch, 10, 0.03, seed=6)
    assert [s.position for s in a] != [s.position for s in c]


def reference_sample_sites(dermis, count, min_dist, seed, max_attempts):
    """Dart throwing one candidate at a time: (positions, faces, barycentrics)."""
    rng = np.random.default_rng(seed)
    accepted, attempts = [], 0
    while len(accepted) < count:
        if attempts >= max_attempts:
            raise SaturationError(
                f"placed {len(accepted)}/{count} sites after {attempts} attempts "
                f"(min_dist={min_dist})")
        n = min(max(64, count), max_attempts - attempts)
        pos, face_idx, bary = sample_surface(dermis, n, rng)
        for c in range(n):
            attempts += 1
            if accepted:
                existing = np.asarray([a[0] for a in accepted])
                d2 = np.einsum("ij,ij->i", existing - pos[c], existing - pos[c])
                if np.any(d2 < min_dist * min_dist):
                    continue
            accepted.append((pos[c], int(face_idx[c]), bary[c]))
            if len(accepted) == count:
                break
    return accepted


@pytest.mark.parametrize("clear_rows", [layout._CLEAR_ROWS, 5])
def test_batched_sites_equal_one_at_a_time_dart_throwing(monkeypatch, clear_rows):
    monkeypatch.setattr(layout, "_CLEAR_ROWS", clear_rows)
    link = make_cylinder(0.06, 0.5, 48)
    patch = make_plane_patch(0.2, 0.2, 8, 8)
    cases = [(link, 40, 0.03, seed, 400_000) for seed in range(4)]
    cases += [(patch, 60, 0.02, 1, 20_000), (patch, 30, 0.0, 2, 300_000),
              (patch, 200, 0.05, 3, 5_000), (patch, 30, 0.04, 5, 3_000)]  # last two saturate
    for mesh, count, min_dist, seed, budget in cases:
        try:
            ref = reference_sample_sites(mesh, count, min_dist, seed, budget)
        except SaturationError as err:
            with pytest.raises(SaturationError, match=f"^{re.escape(str(err))}$"):
                sample_sites(mesh, count, min_dist, seed, max_attempts=budget)
            continue
        sites = sample_sites(mesh, count, min_dist, seed, max_attempts=budget)
        assert [s.position for s in sites] == [tuple(p) for p, _, _ in ref]
        assert [s.face_index for s in sites] == [f for _, f, _ in ref]
        assert [s.barycentric for s in sites] == [tuple(b) for _, _, b in ref]


def test_site_position_matches_barycentric_interpolation():
    patch = make_plane_patch(0.1, 0.1, 4, 4)
    for site in sample_sites(patch, 5, 0.02, seed=2):
        tri = patch.vertices[patch.faces[site.face_index]]
        recon = np.asarray(site.barycentric) @ tri
        assert np.allclose(recon, site.position, atol=1e-12)
        assert np.allclose(site.normal, (0, 0, 1), atol=1e-12)


# ---------------------------------------------------------------------------
# instance_ring / instance_mount
# ---------------------------------------------------------------------------

def test_ring_vertices_stay_inside_annulus():
    spec = RingSpec(inner_radius=0.008, outer_radius=0.014, height=0.002, segments=64)
    ring = instance_ring(flat_site(), spec)
    radial = np.linalg.norm(ring.vertices[:, :2], axis=1)
    assert radial.min() >= 0.008 - 1e-12
    assert radial.max() <= 0.014 + 1e-12
    assert ring.vertices[:, 2].min() == pytest.approx(0.0, abs=1e-12)
    assert ring.vertices[:, 2].max() == pytest.approx(0.002, abs=1e-12)
    assert set(ring.face_material.tolist()) == {int(Material.CONDUCTIVE)}


def test_octagonal_ring_has_32_vertices():
    ring = instance_ring(flat_site(), RingSpec(segments=8))
    assert ring.n_vertices == 32
    assert ring.n_faces == 64
    report = validate_mesh(ring)
    assert report.is_valid
    assert report.is_closed  # annular prism is a closed solid


def test_instanced_bodies_are_outward_oriented():
    # positive signed volume close to the analytic solid volume
    def signed_volume(m):
        t = m.triangles()
        return np.sum(np.einsum("ij,ij->i", t[:, 0],
                                np.cross(t[:, 1], t[:, 2]))) / 6.0

    spec = RingSpec(inner_radius=0.008, outer_radius=0.014, height=0.002,
                    segments=64)
    ring = instance_ring(flat_site(), spec)
    annulus = np.pi * (spec.outer_radius ** 2 - spec.inner_radius ** 2) * spec.height
    assert signed_volume(ring) == pytest.approx(annulus, rel=0.01)

    mount, _ = instance_mount(flat_site(), MountSpec(0.007, 0.004))
    assert signed_volume(mount) == pytest.approx(np.pi * 0.007 ** 2 * 0.004,
                                                 rel=0.01)


def test_ring_spec_rejects_inner_not_below_outer():
    with pytest.raises(ValueError):
        RingSpec(inner_radius=0.014, outer_radius=0.014)
    with pytest.raises(ValueError):
        RingSpec(inner_radius=0.015, outer_radius=0.014)
    with pytest.raises(ValueError):
        RingSpec(segments=4)


def test_ring_follows_site_normal():
    site = flat_site(position=(0.1, -0.2, 0.3),
                     normal=tuple(np.array([1.0, 1.0, 1.0]) / np.sqrt(3)))
    spec = RingSpec()
    ring = instance_ring(site, spec)
    rel = ring.vertices - np.asarray(site.position)
    axial = rel @ np.asarray(site.normal)
    radial = np.sqrt(np.einsum("ij,ij->i", rel, rel) - axial ** 2)
    assert axial.min() == pytest.approx(0.0, abs=1e-12)
    assert axial.max() == pytest.approx(spec.height, abs=1e-12)
    assert radial.min() >= spec.inner_radius - 1e-12
    assert radial.max() <= spec.outer_radius + 1e-12


def test_mount_footprint_passes_through_site():
    site = flat_site(position=(0.01, 0.02, 0.0))
    body, footprint = instance_mount(site, MountSpec(footprint_radius=0.007))
    assert footprint.center == site.position
    assert footprint.radius == 0.007
    assert footprint.normal == site.normal
    assert validate_mesh(body).is_valid
    assert set(body.face_material.tolist()) == {int(Material.STRUCTURAL)}


def test_two_distant_mounts_have_disjoint_footprints():
    _, fa = instance_mount(flat_site(position=(0.0, 0.0, 0.0)), MountSpec(0.007, 0.004))
    _, fb = instance_mount(flat_site(position=(0.05, 0.0, 0.0), site_id=1),
                           MountSpec(0.007, 0.004))
    centers = np.linalg.norm(np.asarray(fa.center) - np.asarray(fb.center))
    assert centers > fa.radius + fb.radius


# ---------------------------------------------------------------------------
# compose_skin
# ---------------------------------------------------------------------------

def build_assembly(site_count=3, seed=0):
    dermis = make_plane_patch(0.2, 0.2, 10, 10)
    covering = extrude_covering(dermis, OffsetSpec(0.006))
    sites = sample_sites(dermis, site_count, min_dist=0.05, seed=seed)
    ring_spec = RingSpec()
    mount_spec = MountSpec()
    assembly = compose_skin(dermis, covering, sites, ring_spec, mount_spec,
                            support_spacing=0.02, seed=seed)
    return assembly, ring_spec, mount_spec


def test_three_site_assembly_invariants():
    assembly, ring_spec, mount_spec = build_assembly(3)
    assert len(assembly.rings) == 3
    assert len(assembly.mounts) == 3
    assert assembly.supports
    support_radius = 0.002
    bases = np.array([s.vertices[-2] for s in assembly.supports])
    for _, _, footprint in assembly.mounts:
        rel = bases - np.asarray(footprint.center)
        axial = rel @ np.asarray(footprint.normal)
        inplane = np.sqrt(np.einsum("ij,ij->i", rel, rel) - axial ** 2)
        # supports clear the larger of mount footprint and ring outer radius
        assert np.all(inplane >= ring_spec.outer_radius + support_radius - 1e-12)
    # rings never overlap their mount footprint radially
    assert ring_spec.inner_radius > mount_spec.footprint_radius


def test_coupling_gap_violation_raises():
    dermis = make_plane_patch(0.1, 0.1, 5, 5)
    covering = extrude_covering(dermis, OffsetSpec(0.006))
    sites = sample_sites(dermis, 1, 0.01, seed=0)
    with pytest.raises(CouplingGapError):
        compose_skin(dermis, covering, sites,
                     RingSpec(inner_radius=0.007, outer_radius=0.014),
                     MountSpec(footprint_radius=0.007), seed=0)


def test_empty_site_list_gives_bare_assembly():
    dermis = make_plane_patch(0.1, 0.1, 5, 5)
    covering = extrude_covering(dermis, OffsetSpec(0.006))
    assembly = compose_skin(dermis, covering, [], RingSpec(), MountSpec(), seed=0)
    assert assembly.rings == []
    assert assembly.mounts == []
    assert len(assembly.supports) >= 16


def test_assembly_is_deterministic_per_seed():
    a, _, _ = build_assembly(3, seed=9)
    b, _, _ = build_assembly(3, seed=9)
    assert [s.position for s in a.sites] == [s.position for s in b.sites]
    assert len(a.supports) == len(b.supports)
    for sa, sb in zip(a.supports, b.supports):
        assert np.array_equal(sa.vertices, sb.vertices)
    for (ia, ra), (ib, rb) in zip(a.rings, b.rings):
        assert ia == ib
        assert np.array_equal(ra.vertices, rb.vertices)


def test_manifest_round_trip(tmp_path):
    assembly, ring_spec, mount_spec = build_assembly(3)
    path = tmp_path / "manifest.json"
    written = write_manifest(path, assembly, ring_spec, mount_spec,
                             material_files={"structural": "skin_structural.stl"})
    loaded = read_manifest(path)
    assert loaded == json.loads(json.dumps(written))
    assert len(loaded["sites"]) == 3
    assert loaded["ring"]["inner_radius"] == ring_spec.inner_radius
    assert loaded["mount"]["footprint_radius"] == mount_spec.footprint_radius
    for entry, site in zip(loaded["sites"], assembly.sites):
        assert entry["site_id"] == site.site_id
        assert np.allclose(entry["position"], site.position)
