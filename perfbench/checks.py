"""Output checks for the benchmark's CLI commands.

Every check compares a command's output files with what the benchmark
knows independently of hybridskin: the analytic capsule it wrote, the
analytic room and hand, its own forward kinematics, and the samples it
logged itself. A check returns a list of failure messages; an empty list
means the output is correct.

run.py runs the checks in a child process after each round, so that their
memory never counts towards the commands' peak RSS:

    python3 perfbench/checks.py --work DIR --commands generate,simulate

prints one JSON object {command: [failure, ...]}.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

import rig

SIGMA_BOUND = 6.0     # range-noise sigmas a ToF point may stray from a surface
F32_EPS = float(np.finfo(np.float32).eps)


# ---------------------------------------------------------------------------
# File readers
# ---------------------------------------------------------------------------

def read_ply(path):
    """(points (n,3), sensor ids (n,), times (n,)) of a binary PLY cloud."""
    data = Path(path).read_bytes()
    end = data.index(b"end_header\n") + len(b"end_header\n")
    header = data[:end].decode("ascii").splitlines()
    if "format binary_little_endian 1.0" not in header:
        raise ValueError("PLY is not binary little-endian")
    n = next(int(h.split()[-1]) for h in header if h.startswith("element vertex"))
    rec = np.frombuffer(data, dtype=[("p", "<f4", 3), ("id", "<u4"), ("t", "<f4")],
                        count=n, offset=end)
    return rec["p"].astype(np.float64), rec["id"].astype(np.int64), rec["t"].astype(np.float64)


def stl_triangle_count(path):
    """Triangle count of a binary STL, after checking the file is whole."""
    data = Path(path).read_bytes()
    n = int(np.frombuffer(data, dtype="<u4", count=1, offset=80)[0])
    if len(data) != 84 + 50 * n:
        raise ValueError(f"{Path(path).name}: {len(data)} bytes for {n} triangles")
    return n


def read_obj(path):
    """(vertices (n,3), {group name: faces (m,3)}) of a grouped OBJ."""
    def numbers(lines, dtype):
        # fromstring parses straight from the joined text, keeping the
        # check's memory well below the generate command's own peak.
        return np.fromstring(" ".join(ln[2:] for ln in lines), dtype=dtype, sep=" ")

    lines = Path(path).read_text().splitlines()
    verts = numbers([ln for ln in lines if ln.startswith("v ")], np.float64).reshape(-1, 3)
    marks = [i for i, ln in enumerate(lines) if ln.startswith("g ")] + [len(lines)]
    groups = {}
    for a, b in zip(marks, marks[1:]):
        faces = [ln for ln in lines[a + 1:b] if ln.startswith("f ")]
        groups[lines[a][2:].strip()] = numbers(faces, np.int64).reshape(-1, 3) - 1
    return verts, groups


def components(faces):
    """Connected components of a face set: list of face-index arrays."""
    label = np.arange(faces.max() + 1)
    while True:  # min-label propagation with pointer jumping
        face_min = label[faces].min(axis=1)
        new = label.copy()
        np.minimum.at(new, faces.reshape(-1), np.repeat(face_min, 3))
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    face_label = label[faces[:, 0]]
    return [np.nonzero(face_label == v)[0] for v in np.unique(face_label)]


def read_jsonl(path):
    """Yield the records of a JSONL sample log one at a time."""
    with open(path) as f:
        for line in f:
            if line.strip():
                yield json.loads(line)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def capsule_distance(points, link):
    """Distance of points from the analytic capsule's axis segment."""
    axis = np.zeros_like(points)
    axis[:, 2] = np.clip(points[:, 2], -0.5 * link["length"], 0.5 * link["length"])
    return np.linalg.norm(points - axis, axis=1)


def distance_on_faces(points, tri):
    """Per point, the smallest plane distance to a triangle it projects into
    (inf when it projects into none)."""
    v0, e1, e2 = tri[:, 0], tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    n = np.cross(e1, e2)
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    rel = points[:, None, :] - v0[None]
    h = np.einsum("ptk,tk->pt", rel, n)
    a, b, c = (np.einsum("tk,tk->t", x, y) for x, y in ((e1, e1), (e1, e2), (e2, e2)))
    d1, d2 = np.einsum("ptk,tk->pt", rel, e1), np.einsum("ptk,tk->pt", rel, e2)
    det = a * c - b * b
    u, v = (c * d1 - b * d2) / det, (a * d2 - b * d1) / det
    inside = (u >= -1e-9) & (v >= -1e-9) & (u + v <= 1.0 + 1e-9)
    return np.where(inside, np.abs(h), np.inf).min(axis=1)


def offset_tolerance(link, offset):
    """How far a vertex-normal offset may land from the exact offset surface.

    A vertex normal tilted by alpha from the analytic normal moves the
    offset point at most offset*(1 - cos alpha) inwards and
    (offset*sin alpha)^2 / radius outwards.
    """
    a = link["normal_tilt"]
    return offset * (1.0 - math.cos(a)) + (offset * math.sin(a)) ** 2 / link["radius"] + 1e-7


def check_generate(spec, out, ref=None):
    """Sites, dermis, covering, rings and supports against the analytic link."""
    link, gen = spec["link"], spec["gen"]
    gen_dir = Path(out) / "gen"
    fails = []
    manifest = json.loads((gen_dir / "manifest.json").read_text())
    sites = manifest["sites"]
    if len(sites) != gen["site_count"]:
        fails.append(f"{len(sites)} sites, expected {gen['site_count']}")
    pos = np.array([s["position"] for s in sites])
    nrm = np.array([s["normal"] for s in sites])
    d2 = np.sum((pos[:, None] - pos[None]) ** 2, axis=2) + np.eye(len(pos)) * 1e9
    if np.sqrt(d2.min()) < gen["site_min_dist"]:
        fails.append(f"sites {np.sqrt(d2.min()):.4f} m apart, min {gen['site_min_dist']}")

    r, d, c = link["radius"], gen["dermis_offset"], gen["covering_offset"]
    tol_d = offset_tolerance(link, d)
    tol_c = tol_d + offset_tolerance(link, c)
    chord = link["chord"] * (r + d) / r
    dev = capsule_distance(pos, link) - (r + d)
    if dev.min() < -(chord + tol_d) or dev.max() > tol_d:
        fails.append(f"sites off the dermis by {dev.min():.2e}..{dev.max():.2e} m")

    n_cond = stl_triangle_count(gen_dir / "skin_conductive.stl")
    want = gen["site_count"] * 8 * gen["ring"]["segments"]
    if n_cond != want:
        fails.append(f"conductive STL has {n_cond} triangles, expected {want}")

    # Each material group is one shell (the link's faces, offset) plus
    # separate closed parts: mounts in the structural group, supports in
    # the flexible one.
    verts, groups = read_obj(gen_dir / "skin.obj")
    parts = {}
    for group, offset, tol in (("structural", r + d, tol_d), ("flexible", r + d + c, tol_c)):
        comps = sorted(components(groups[group]), key=len)
        shell = groups[group][comps[-1]]
        parts[group] = [groups[group][f] for f in comps[:-1]]
        if len(shell) != link["faces"]:
            fails.append(f"{group} shell has {len(shell)} faces, link has {link['faces']}")
        dev = capsule_distance(verts[np.unique(shell)], link) - offset
        if np.abs(dev).max() > tol:
            fails.append(f"{group} shell off by {np.abs(dev).max():.2e} m (tol {tol:.1e})")
        if group == "structural":
            on_dermis = distance_on_faces(pos, verts[shell])
            if on_dermis.max() > 1e-7:
                fails.append(f"a site lies {on_dermis.max():.2e} m off the dermis faces")
    if len(parts["structural"]) != gen["site_count"]:
        fails.append(f"{len(parts['structural'])} mounts for {gen['site_count']} sites")
    supports = parts["flexible"]
    if len(supports) != manifest["support_count"] or not supports:
        fails.append(f"{len(supports)} supports, manifest says {manifest['support_count']}")
    else:
        sv = verts[np.unique(np.vstack(supports))]
        rel = sv[:, None, :] - pos[None, :, :]
        axial = np.einsum("ijk,jk->ij", rel, nrm)
        inplane = np.sqrt(np.maximum(np.einsum("ijk,ijk->ij", rel, rel) - axial ** 2, 0.0))
        # The keep-out is the ring's outer cylinder through the skin's
        # thickness at the site, not the far side of the link.
        near = np.abs(axial) <= c + gen["ring"]["height"]
        closest = inplane[near].min() if near.any() else np.inf
        if closest < gen["ring"]["outer_radius"] - 1e-6:
            fails.append(f"a support comes {closest:.4f} m from a site axis, "
                         f"inside the ring keep-out {gen['ring']['outer_radius']}")
    return fails


# ---------------------------------------------------------------------------
# arm_sweep: simulate, reconstruct, snr
# ---------------------------------------------------------------------------

def _sweep_log(out):
    return Path(out) / "sim" / "samples.jsonl"


def check_simulate(spec, out, ref=None):
    """ToF frame count and SC sampling band of the simulated log."""
    n_sites = spec["gen"]["site_count"]
    frames_per_site = math.ceil(rig.TOF["rate"] * spec["duration"] - 1e-12)
    tof, sc_times = {}, {}
    for r in read_jsonl(_sweep_log(out)):
        if r["type"] == "tof":
            tof[r["sensor_id"]] = tof.get(r["sensor_id"], 0) + 1
        else:
            sc_times.setdefault(r["site_id"], []).append(r["t"])
    fails = []
    if sum(tof.values()) != n_sites * frames_per_site:
        fails.append(f"{sum(tof.values())} ToF frames, expected {n_sites * frames_per_site}")
    if len(sc_times) != n_sites:
        fails.append(f"SC streams for {len(sc_times)} sites, expected {n_sites}")
    lo = 1.0 / (rig.SC_RATE + rig.SC_JITTER) - 1e-9
    hi = 1.0 / (rig.SC_RATE - rig.SC_JITTER) + 1e-9
    for sid, ts in sc_times.items():
        gaps = np.diff(ts)
        if len(gaps) == 0 or gaps.min() < lo or gaps.max() > hi:
            fails.append(f"site {sid}: SC gaps outside the 40-44 Hz band")
            break
    return fails


def hand_distance(points, times, hand):
    """Distance from points to the hand box posed at each point's time."""
    keys_t = np.array([k[0] for k in hand["keys"]])
    keys_c = np.array([k[1] for k in hand["keys"]])
    centers = np.column_stack([np.interp(times, keys_t, keys_c[:, k]) for k in range(3)])
    return rig.box_distance(points, centers, 0.5 * rig.HAND_SIZE, np.array(hand["rotation"]))


def check_reconstruct_sweep(spec, out, ref=None):
    """Point count matches the log's valid zones; every point on the scene."""
    valid = sum(sum(r["valid"]) for r in read_jsonl(_sweep_log(out)) if r["type"] == "tof")
    pts, _, ts = read_ply(Path(out) / "rec" / "cloud.ply")
    fails = []
    if len(pts) != valid:
        fails.append(f"{len(pts)} points for {valid} valid zones in the log")
    dist = np.minimum(rig.room_distance(pts), hand_distance(pts, ts, spec["hand"]))
    bound = SIGMA_BOUND * rig.TOF["range_noise_sigma"] + spec["obstacle_chord"] + 1e-5
    off = int(np.sum(dist > bound))
    if off:
        fails.append(f"{off} point(s) farther than {bound:.3f} m from the scene "
                     f"(worst {dist.max():.3f} m)")
    return fails


def check_snr_sweep(spec, out, ref=None):
    """Contact and pressure orderings on the pressed and control nodules."""
    lines = (Path(out) / "rep" / "summary.txt").read_text().splitlines()

    def line(prefix):
        return next((ln for ln in lines if ln.startswith(prefix)), "")

    p, c = rig.PRESSED_SITE, rig.CONTROL_SITE
    fails = []
    if not line(f"site {p}: snr=").endswith("contact=true"):
        fails.append(f"pressed nodule {p} not in contact")
    if not line(f"site {c}: snr=").endswith("contact=false"):
        fails.append(f"control nodule {c} reported in contact")
    if line(f"site {p}: squeeze>rest=") != f"site {p}: squeeze>rest=true rest>inactive=true":
        fails.append(f"pressure orderings fail on nodule {p}")
    return fails


# ---------------------------------------------------------------------------
# log_replay: reconstruct, snr
# ---------------------------------------------------------------------------

def check_reconstruct_replay(spec, out, ref):
    """Every point equals the benchmark's own hit to float32 precision."""
    pts, ids, ts = read_ply(Path(out) / "rec" / "cloud.ply")
    if len(pts) != len(ref["points"]):
        return [f"{len(pts)} points, expected {len(ref['points'])}"]
    fails = []
    if not np.array_equal(ids, ref["ids"]):
        fails.append("point sensor ids differ from the log's frames")
    if np.any(np.abs(ts - ref["times"]) > 2 * F32_EPS * np.maximum(ref["times"], 1.0)):
        fails.append("point timestamps differ from the log's frames")
    err = np.abs(pts - ref["points"]) - 2 * F32_EPS * np.maximum(np.abs(ref["points"]), 1.0)
    if np.any(err > 0.0):
        fails.append(f"{int(np.sum(np.any(err > 0, axis=1)))} point(s) off their "
                     f"analytic hit (worst by {err.max():.2e} m)")
    return fails


def snr_reference(spec, ref, threshold=7.0):
    """{site: (mu_n, sigma_n, mu, snr, contact)} from the logged samples."""
    rows = {}
    for label in spec["labels"]:
        sid = label["site_id"]
        sel = ref["sc_site"] == sid
        t, n = ref["sc_t"][sel], ref["sc_counts"][sel].astype(np.float64)
        state = np.full(len(t), "", dtype=object)
        for t0, t1, st in label["intervals"]:
            state[(t >= t0) & (t < t1)] = st
        inactive = n[state == "INACTIVE"]
        active = n[(state == "ACTIVE_REST") | (state == "ACTIVE_SQUEEZE")]
        mu_n, sigma_n, mu = inactive.mean(), inactive.std(ddof=1), active.mean()
        snr = abs(mu_n - mu) / sigma_n
        rows[sid] = (mu_n, sigma_n, mu, snr, snr >= threshold)
    return rows


def check_snr_replay(spec, out, ref):
    """Each snr.csv row equals a numpy computation over the logged samples."""
    lines = (Path(out) / "rep" / "snr.csv").read_text().splitlines()
    want = snr_reference(spec, ref)
    got = {}
    for line in lines[1:]:
        parts = line.split(",")
        got[int(parts[1])] = ([float(x) for x in parts[2:6]], parts[6] == "true")
    if sorted(got) != sorted(want):
        return [f"snr.csv rows for sites {sorted(got)}, expected {sorted(want)}"]
    fails = []
    for sid, (mu_n, sigma_n, mu, snr, contact) in want.items():
        values, flag = got[sid]
        expect = np.array([mu_n, sigma_n, mu, snr])
        if np.any(np.abs(np.array(values) - expect) > 1e-6 + 1e-9 * np.abs(expect)):
            fails.append(f"site {sid}: snr.csv row {values} != reference {expect.tolist()}")
        if flag != contact:
            fails.append(f"site {sid}: contact={flag}, reference says {contact}")
    return fails


CHECKS = {
    ("skin_build", "generate"): check_generate,
    ("arm_sweep", "generate"): check_generate,
    ("arm_sweep", "simulate"): check_simulate,
    ("arm_sweep", "reconstruct"): check_reconstruct_sweep,
    ("arm_sweep", "snr"): check_snr_sweep,
    ("log_replay", "reconstruct"): check_reconstruct_replay,
    ("log_replay", "snr"): check_snr_replay,
}


def load(work):
    """The spec and reference arrays (or None) that workloads.py wrote."""
    work = Path(work)
    spec = json.loads((work / "spec.json").read_text())
    ref = None
    if (work / "reference.npz").exists():
        with np.load(work / "reference.npz") as data:
            ref = {k: data[k] for k in data.files}
    return spec, ref


def main(argv=None):
    parser = argparse.ArgumentParser(description="check a round's outputs")
    parser.add_argument("--work", required=True)
    parser.add_argument("--commands", required=True, help="comma-separated names")
    args = parser.parse_args(argv)
    spec, ref = load(args.work)
    out = Path(args.work) / "out"
    report = {}
    for name in filter(None, args.commands.split(",")):
        try:
            report[name] = CHECKS[(spec["workload"], name)](spec, out, ref)
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            report[name] = [f"unreadable output: {type(exc).__name__}: {exc}"]
    print(json.dumps(report))


if __name__ == "__main__":
    sys.exit(main())
