"""Input builders for the benchmark's three workloads.

Each builder writes one workload's input files into a work directory and
returns a spec: the hybridskin CLI commands to run and the parameters the
checks in checks.py need. Inputs depend only on (workload, seed, smoke).

Run as a script to build inputs in a separate process, so that set-up
memory does not count towards the timed commands' peak RSS:

    python3 perfbench/workloads.py --workload arm_sweep --seed 1 --out DIR
"""

import argparse
import json
import math
from pathlib import Path

import numpy as np

import rig

WORKLOADS = ("skin_build", "arm_sweep", "log_replay")

# generate settings shared by skin_build and arm_sweep (CLI defaults except
# the site count and the mesh units).
GEN = {"dermis_offset": 0.004, "covering_offset": 0.006, "site_count": rig.N_NODULES,
       "site_min_dist": 0.03, "ring": {"inner_radius": 0.008, "outer_radius": 0.014,
                                       "height": 0.002, "segments": 64},
       "mount": {"footprint_radius": 0.007, "height": 0.004},
       "support": {"spacing": 0.02, "radius": 0.002, "segments": 12}}

# Capsule tessellations (segments around, rings per cap, rings along the body).
DENSE_LINK = (48, 8, 16)      # 2976 faces: skin_build
COARSE_LINK = (16, 4, 6)      # 416 faces: arm_sweep, smoke skin_build
OBSTACLE_TESS = (32, 64)      # 3968 triangles
SMOKE_OBSTACLE_TESS = (6, 12)

SWEEP_DURATION = 0.5          # s of simulated arm sweep
LOG_SECONDS = 3.0             # s of recorded deployment in log_replay
SMOKE_LOG_SECONDS = 0.6


# ---------------------------------------------------------------------------
# Meshes
# ---------------------------------------------------------------------------

def capsule_mesh(radius, length, n_seg, n_cap, n_len):
    """Closed capsule along z, centred at the origin, outward winding.

    The cylinder part has the given length; hemispherical caps of n_cap
    rings close it. Returns (vertices (n,3), faces (m,3)).
    """
    half = 0.5 * length
    profile = []  # (z, rho) rings from the top seam region downwards
    for i in range(1, n_cap + 1):
        th = 0.5 * math.pi * i / n_cap
        profile.append((half + radius * math.cos(th), radius * math.sin(th)))
    for k in range(1, n_len + 1):
        profile.append((half - length * k / n_len, radius))
    for i in range(1, n_cap):
        th = 0.5 * math.pi + 0.5 * math.pi * i / n_cap
        profile.append((-half + radius * math.cos(th), radius * math.sin(th)))
    return _lathe(profile, n_seg, half + radius, -half - radius)


def sphere_mesh(radius, center, n_lat, n_lon):
    """Closed latitude-longitude sphere, outward winding."""
    profile = [(radius * math.cos(math.pi * i / n_lat), radius * math.sin(math.pi * i / n_lat))
               for i in range(1, n_lat)]
    v, f = _lathe(profile, n_lon, radius, -radius)
    return v + np.asarray(center, dtype=np.float64), f


def _lathe(profile, n_seg, z_top, z_bottom):
    phi = 2.0 * math.pi * np.arange(n_seg) / n_seg
    rings = [np.column_stack([rho * np.cos(phi), rho * np.sin(phi), np.full(n_seg, z)])
             for z, rho in profile]
    verts = np.vstack([[[0.0, 0.0, z_top]]] + rings + [[[0.0, 0.0, z_bottom]]])
    top, bottom = 0, len(verts) - 1
    j = np.arange(n_seg)
    jn = (j + 1) % n_seg
    faces = [np.column_stack([np.full(n_seg, top), 1 + j, 1 + jn])]
    for r in range(len(rings) - 1):
        a, b = 1 + r * n_seg, 1 + (r + 1) * n_seg
        faces.append(np.column_stack([a + j, b + j, b + jn]))
        faces.append(np.column_stack([a + j, b + jn, a + jn]))
    last = 1 + (len(rings) - 1) * n_seg
    faces.append(np.column_stack([np.full(n_seg, bottom), last + jn, last + j]))
    return verts, np.vstack(faces)


def max_inscribed_depth(verts, faces, curvature_radius):
    """Upper bound on how far a face sinks below the surface its vertices lie on."""
    t = verts[faces]
    a = np.linalg.norm(t[:, 1] - t[:, 2], axis=1)
    b = np.linalg.norm(t[:, 0] - t[:, 2], axis=1)
    c = np.linalg.norm(t[:, 0] - t[:, 1], axis=1)
    area = 0.5 * np.linalg.norm(np.cross(t[:, 1] - t[:, 0], t[:, 2] - t[:, 0]), axis=1)
    rho = a * b * c / (4.0 * area)
    return float(np.max(rho * rho / curvature_radius))


def max_normal_tilt(verts, faces, length):
    """Largest angle between a face's normal and the capsule's analytic
    normal at one of the face's vertices.

    An angle-weighted vertex normal is a positive mix of its faces' normals,
    so it is never tilted further than this from the analytic normal.
    """
    t = verts[faces]
    n = np.cross(t[:, 1] - t[:, 0], t[:, 2] - t[:, 0])
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    axis = np.zeros_like(t)
    axis[..., 2] = np.clip(t[..., 2], -0.5 * length, 0.5 * length)
    radial = t - axis
    radial /= np.linalg.norm(radial, axis=2, keepdims=True)
    cos = np.einsum("fk,fvk->fv", n, radial)
    return float(np.arccos(np.clip(cos.min(), -1.0, 1.0)))


def write_binary_stl(path, verts, faces, scale=1.0):
    """Binary STL of a triangle mesh, coordinates multiplied by scale."""
    tri = verts[faces] * scale
    n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    rec = np.zeros(len(faces), dtype=[("n", "<f4", 3), ("v", "<f4", (3, 3)), ("a", "<u2")])
    rec["n"] = n
    rec["v"] = tri
    with open(path, "wb") as f:
        f.write(b"perfbench link".ljust(80, b"\0"))
        f.write(np.uint32(len(faces)).tobytes())
        f.write(rec.tobytes())


def _link(work, rng, tess):
    """Capsule link written as a millimetre STL; returns its description."""
    radius = 0.045 * rng.uniform(0.98, 1.02)
    length = 0.22 * rng.uniform(0.98, 1.02)
    verts, faces = capsule_mesh(radius, length, *tess)
    write_binary_stl(work / "link.stl", verts, faces, scale=1000.0)
    return {"radius": radius, "length": length, "faces": int(len(faces)),
            "chord": max_inscribed_depth(verts, faces, radius),
            "normal_tilt": max_normal_tilt(verts, faces, length)}


def _generate_config(seed, mesh_path):
    gen = dict(GEN, mesh=str(mesh_path), mesh_units="mm")
    return {"seed": seed, "generation": gen}


def _write_json(path, data):
    Path(path).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# skin_build
# ---------------------------------------------------------------------------

def build_skin_build(work, seed, smoke):
    rng = np.random.default_rng([seed, 0])
    link = _link(work, rng, COARSE_LINK if smoke else DENSE_LINK)
    _write_json(work / "config.json", _generate_config(seed, work / "link.stl"))
    out = work / "out"
    return {"link": link, "gen": GEN, "commands": [
        {"name": "generate",
         "argv": ["generate", "--config", str(work / "config.json"),
                  "--out", str(out / "gen")]}]}


# ---------------------------------------------------------------------------
# arm_sweep
# ---------------------------------------------------------------------------

def hand_schedule(duration):
    """Hand keyframes (t, gap to the pressed nodule) and the label intervals.

    The hand parks 0.6 m out along the pressed nodule's boresight, moves in
    until it rests on the covering (gap = t_cov), squeezes it (gap <
    t_cov), withdraws and parks again.
    """
    far, rest, squeeze = 0.6, rig.T_COV, rig.SQUEEZE_GAP
    d = duration
    keys = [(0.0, far), (0.40 * d, far), (0.48 * d, rest), (0.64 * d, rest),
            (0.68 * d, squeeze), (0.84 * d, squeeze), (0.92 * d, far), (d, far)]
    labels = [[0.0, 0.40 * d, "INACTIVE"], [0.48 * d, 0.64 * d, "ACTIVE_REST"],
              [0.68 * d, 0.84 * d, "ACTIVE_SQUEEZE"], [0.92 * d, d, "INACTIVE"]]
    return keys, labels


def hand_frame():
    """Pressed nodule position, boresight and the hand's fixed rotation."""
    q = rig.HOME.copy()
    q[:2] = rig.Q12
    m = rig.sensor_transforms(q)[rig.PRESSED_SITE]
    p, n = m[:3, 3], m[:3, 2]
    x = np.cross([0.0, 1.0, 0.0], n)
    x /= np.linalg.norm(x)
    return p, n, np.column_stack([x, np.cross(n, x), n])


def hand_center(p, n, gap):
    """Box centre that leaves `gap` between the hand's face and the nodule."""
    return p + n * (gap + 0.5 * rig.HAND_SIZE[2])


def build_arm_sweep(work, seed, smoke):
    rng = np.random.default_rng([seed, 1])
    link = _link(work, rng, COARSE_LINK)
    params = rig.sweep_params(rng)
    duration = SWEEP_DURATION

    times = np.round(np.arange(0.0, duration + 0.1, 0.01), 10)
    values = rig.sweep_joints(times, params)
    _write_trajectory(work / "traj.csv", times, values)
    _write_json(work / "chain.json", rig.chain_dict())

    n_lat, n_lon = SMOKE_OBSTACLE_TESS if smoke else OBSTACLE_TESS
    sv, sf = sphere_mesh(rig.OBSTACLE_RADIUS, rig.OBSTACLE_CENTER, n_lat, n_lon)
    write_binary_stl(work / "obstacle.stl", sv, sf, scale=1000.0)

    keys, labels = hand_schedule(duration)
    p, n, rot = hand_frame()
    quat = rig.quat_from_matrix(rot).tolist()
    keyframes = [{"t": t, "rotation": quat, "translation": hand_center(p, n, g).tolist()}
                 for t, g in keys]
    scene = {"objects": [
        {"name": "floor", "primitive": rig.FLOOR},
        {"name": "wall", "primitive": rig.WALL},
        {"name": "table", "primitive": rig.TABLE},
        {"name": "obstacle", "mesh": str(work / "obstacle.stl"), "units": "mm"},
        {"name": "hand", "primitive": {"kind": "box", "size": rig.HAND_SIZE.tolist()},
         "conductive": True, "keyframes": keyframes},
    ]}
    _write_json(work / "scene.json", scene)
    _write_json(work / "labels.json", {"labels": [
        {"site_id": sid, "intervals": labels}
        for sid in (rig.PRESSED_SITE, rig.CONTROL_SITE)]})

    cfg = _generate_config(seed, work / "link.stl")
    # Smoke runs cast 2x2 zones per frame instead of 8x8.
    cfg["sensing"] = {"tof": dict(rig.TOF, nx=2, ny=2) if smoke else rig.TOF}
    cfg["simulation"] = {"duration": duration, "chain": str(work / "chain.json"),
                         "trajectory": str(work / "traj.csv"),
                         "scene": str(work / "scene.json")}
    _write_json(work / "config.json", cfg)

    out = work / "out"
    c = ["--config", str(work / "config.json")]
    log = str(out / "sim" / "samples.jsonl")
    return {
        "link": link, "gen": GEN, "duration": duration,
        "obstacle_chord": max_inscribed_depth(sv, sf, rig.OBSTACLE_RADIUS),
        "hand": {"rotation": rot.tolist(),
                 "keys": [[t, hand_center(p, n, g).tolist()] for t, g in keys]},
        "commands": [
            {"name": "generate", "argv": ["generate", *c, "--out", str(out / "gen")]},
            {"name": "simulate",
             "argv": ["simulate", *c, "--out", str(out / "sim"),
                      "--set", f"simulation.manifest={out / 'gen' / 'manifest.json'}"]},
            {"name": "reconstruct",
             "argv": ["reconstruct", *c, "--log", log, "--out", str(out / "rec")]},
            {"name": "snr",
             "argv": ["snr", *c, "--log", log, "--labels", str(work / "labels.json"),
                      "--out", str(out / "rep")]},
        ]}


def _write_trajectory(path, times, values):
    lines = ["t," + ",".join(f"q{i + 1}" for i in range(values.shape[1]))]
    lines += [",".join(repr(float(x)) for x in (t, *q)) for t, q in zip(times, values)]
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# log_replay
# ---------------------------------------------------------------------------

def build_log_replay(work, seed, smoke):
    rng = np.random.default_rng([seed, 2])
    seconds = SMOKE_LOG_SECONDS if smoke else LOG_SECONDS
    params = rig.sweep_params(rng)
    times = np.round(np.arange(0.0, seconds + 0.1, 0.01), 10)
    values = rig.sweep_joints(times, params)
    _write_trajectory(work / "traj.csv", times, values)
    _write_json(work / "chain.json", rig.chain_dict())

    records = []
    points, point_ids, point_times = _tof_log(rng, seconds, times, values, records)
    labels, sc = _sc_log(rng, seconds, records)
    records.sort(key=lambda r: (r["t"], r["type"] != "sc", r.get("site_id", r.get("sensor_id"))))
    with open(work / "samples.jsonl", "w") as f:
        for r in records:
            f.write(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n")
    _write_json(work / "labels.json", {"labels": labels})
    # The records are sorted by time then stream, so the reference points
    # follow the frames' order in the log.
    order = np.lexsort((point_ids, point_times))
    np.savez(work / "reference.npz", points=points[order], ids=point_ids[order],
             times=point_times[order], sc_site=sc[0], sc_t=sc[1], sc_counts=sc[2])

    cfg = {"seed": seed, "sensing": {"tof": rig.TOF},
           "simulation": {"chain": str(work / "chain.json"),
                          "trajectory": str(work / "traj.csv")}}
    _write_json(work / "config.json", cfg)
    out = work / "out"
    c = ["--config", str(work / "config.json")]
    log = str(work / "samples.jsonl")
    return {"seconds": seconds, "labels": labels, "commands": [
        {"name": "reconstruct",
         "argv": ["reconstruct", *c, "--log", log, "--out", str(out / "rec")]},
        {"name": "snr",
         "argv": ["snr", *c, "--log", log, "--labels", str(work / "labels.json"),
                  "--out", str(out / "rep")]}]}


def _tof_log(rng, seconds, traj_t, traj_q, records):
    """ToF records from analytic hits; returns the world points they encode.

    Frames of one nodule are strictly periodic at the ToF rate, each nodule
    with its own phase, and every point is its nodule's origin plus the
    logged distance along the zone direction.
    """
    mounts = rig.mount_locals()
    dirs_local = rig.zone_directions()
    rate, max_range = rig.TOF["rate"], rig.TOF["max_range"]
    phase = rng.uniform(0.0, 1.0 / rate, len(mounts))
    pts, ids, tss = [], [], []
    for sid in range(len(mounts)):
        t = phase[sid] + np.arange(int(math.ceil((seconds - phase[sid]) * rate))) / rate
        q = rig.interpolate_joints(traj_t, traj_q, t)
        noise = rng.normal(0.0, rig.TOF["range_noise_sigma"], (len(t), len(dirs_local)))
        for k, tk in enumerate(t):
            m = rig.sensor_transforms(q[k], mounts)[sid]
            origin = np.broadcast_to(m[:3, 3], dirs_local.shape)
            dirs = dirs_local @ m[:3, :3].T
            hit = rig.room_hits(origin, dirs)
            valid = hit <= max_range
            d = np.clip(hit + noise[k], 1e-6, max_range)
            records.append({"type": "tof", "sensor_id": sid, "t": float(tk),
                            "d": [float(x) if v else None for x, v in zip(d, valid)],
                            "valid": valid.tolist()})
            pts.append(m[:3, 3] + d[valid, None] * dirs[valid])
            ids.append(np.full(int(valid.sum()), sid))
            tss.append(np.full(int(valid.sum()), float(tk)))
    return np.vstack(pts), np.concatenate(ids), np.concatenate(tss)


# Synthetic SC levels (counts above the 1600-count baseline) per state.
SC_BASE, SC_SIGMA = 1600.0, 12.0
SC_LEVEL = {"INACTIVE": 26.0, "ACTIVE_REST": 1000.0, "ACTIVE_SQUEEZE": 1231.0, None: 1100.0}


def _sc_log(rng, seconds, records):
    """Jittered 42 +/- 2 Hz SC streams with a press schedule per nodule.

    Three of every four nodules are pressed (rest, then squeeze); the rest
    keep their inactive level through the labelled press, so their report
    shows no contact.
    """
    labels, site, ts, counts = [], [], [], []
    lo, hi = 1.0 / (rig.SC_RATE + rig.SC_JITTER), 1.0 / (rig.SC_RATE - rig.SC_JITTER)
    for sid in range(rig.N_NODULES):
        a = rng.uniform(0.25, 0.45) * seconds
        s = 0.15 * seconds
        intervals = [[0.0, a, "INACTIVE"], [a + 0.02, a + s, "ACTIVE_REST"],
                     [a + s + 0.02, a + 2 * s, "ACTIVE_SQUEEZE"],
                     [a + 2 * s + 0.02, seconds, "INACTIVE"]]
        labels.append({"site_id": sid, "intervals": intervals})
        pressed = sid % 4 != 3
        t = rng.uniform(0.0, lo)
        while t < seconds:
            state = next((st for t0, t1, st in intervals if t0 <= t < t1), None)
            level = SC_LEVEL[state] if pressed else SC_LEVEL["INACTIVE"]
            n = max(0, int(round(SC_BASE + level + rng.normal(0.0, SC_SIGMA))))
            records.append({"type": "sc", "site_id": sid, "t": float(t), "counts": n})
            site.append(sid)
            ts.append(t)
            counts.append(n)
            t += rng.uniform(lo, hi)
    return labels, (np.array(site), np.array(ts), np.array(counts))


BUILDERS = {"skin_build": build_skin_build, "arm_sweep": build_arm_sweep,
            "log_replay": build_log_replay}


def build(workload, seed, work, smoke=False):
    """Write a workload's inputs into `work` and its spec to work/spec.json."""
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    spec = BUILDERS[workload](work, seed, smoke)
    spec.update(workload=workload, seed=seed, smoke=smoke)
    _write_json(work / "spec.json", spec)
    return spec


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    build(args.workload, args.seed, args.out, args.smoke)


if __name__ == "__main__":
    main()
