"""Command-line pipeline: generate, simulate, reconstruct, snr, calibrate.

Every command takes --config/--set/--seed/--out, writes its resolved
configuration next to its outputs, and is deterministic for a fixed seed.
Exit codes: 0 ok, 2 validation failure, 3 I/O failure, 4 numerical
(calibration infeasible). Errors print one JSON object to stderr.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, config as cfgmod, layout, logs, meshio, sc, tof
from .errors import CalibrationError, SkinError
from .geometry import OffsetSpec, extrude_covering, offset_surface
from .kinematics import (Pose, Scene, SceneObject, load_chain, load_trajectory,
                         mount_poses)
from .mesh import (concat_meshes, make_box, make_cylinder,
                   make_plane_patch, make_uv_sphere, validate_mesh)
from .raycast import Bvh, TriangleSet, point_mesh_distance

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

# (sample, triangle) rows of one block of the SC stream's distance pass.
_DISTANCE_ROWS = 1 << 14
# Zone rays of one block of whole frame times in the ToF stream's cast.
_TOF_RAYS = 1 << 14


# What a primitive argument takes: its name in an error, and a test.
_NUMBER, _INTEGER, _BOOL = (cfgmod._KINDS[t] for t in (float, int, bool))
_VEC3 = ("a list of 3 finite numbers",
         lambda value: type(value) is list and len(value) == 3
         and all(map(cfgmod._finite, value)))
# Each primitive kind's maker and the arguments a primitive object may give.
_PRIMITIVES = {
    "box": (make_box, {"size": _VEC3, "center": _VEC3}),
    "plane": (make_plane_patch, {"width": _NUMBER, "height": _NUMBER, "nx": _INTEGER,
                                 "ny": _INTEGER, "center": _VEC3}),
    "sphere": (make_uv_sphere, {"radius": _NUMBER, "n_lat": _INTEGER, "n_lon": _INTEGER,
                                "center": _VEC3}),
    "cylinder": (make_cylinder, {"radius": _NUMBER, "height": _NUMBER, "segments": _INTEGER,
                                 "capped": _BOOL, "center": _VEC3}),
}


def _mesh_from_spec(spec, units="m"):
    """Mesh path (str) or primitive object -> TriMesh."""
    if isinstance(spec, str):
        return meshio.load_mesh(spec, units=units)
    if not isinstance(spec, dict):
        raise ValueError(f"a mesh must be a path or a primitive object, not {spec!r}")
    kind = spec.get("kind")
    if kind not in _PRIMITIVES:
        raise ValueError(f"unknown primitive kind {kind!r}")
    maker, kinds = _PRIMITIVES[kind]
    args = {k: v for k, v in spec.items() if k != "kind"}
    for key, value in args.items():
        if key not in kinds:
            raise ValueError(f"primitive {kind} has no argument {key!r}; "
                             f"it takes {', '.join(kinds)}")
        what, takes = kinds[key]
        if not takes(value):
            raise ValueError(f"primitive {kind} argument {key} must be {what}, "
                             f"not {value!r}")
    return maker(**args)


def load_scene(path) -> Scene:
    data = json.loads(Path(path).read_text())
    objects = []
    for k, entry in enumerate(data.get("objects", [])):
        if "mesh" in entry:
            mesh = meshio.load_mesh(entry["mesh"], units=entry.get("units", "m"))
        elif "primitive" in entry:
            mesh = _mesh_from_spec(entry["primitive"])
        else:
            raise ValueError("scene object needs 'mesh' or 'primitive'")
        keyframes = None
        if entry.get("keyframes"):
            keyframes = []
            for kf in entry["keyframes"]:
                pose = Pose(tuple(kf.get("rotation", (1.0, 0.0, 0.0, 0.0))),
                            tuple(kf.get("translation", (0.0, 0.0, 0.0))))
                keyframes.append((float(kf["t"]), pose))
            keyframes.sort(key=lambda kv: kv[0])
        conductive = entry.get("conductive", False)
        if type(conductive) is not bool:
            raise ValueError(f"scene object {k} conductive must be true or false, "
                             f"not {conductive!r}")
        objects.append(SceneObject(mesh=mesh, conductive=conductive, keyframes=keyframes,
                                   name=entry.get("name", "")))
    return Scene(objects=objects)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(cfg, out_dir: Path) -> int:
    gen = cfg["generation"]
    if gen["mesh"] is None:
        raise ValueError("config generation.mesh is required")
    mesh = _mesh_from_spec(gen["mesh"], units=gen["mesh_units"])

    report = validate_mesh(mesh)
    if not report.is_valid:
        findings = [{"code": f.code, "severity": f.severity, "message": f.message}
                    for f in report.findings]
        print(json.dumps({"error": "InvalidMesh", "findings": findings}),
              file=sys.stderr)
        return EXIT_VALIDATION

    strict = gen["strict"]
    dermis = offset_surface(mesh, OffsetSpec(gen["dermis_offset"]), strict=strict)
    covering = extrude_covering(dermis, OffsetSpec(gen["covering_offset"]),
                                strict=strict)
    sites = layout.sample_sites(dermis, gen["site_count"], gen["site_min_dist"],
                                seed=cfg["seed"])
    ring_spec = layout.RingSpec(**gen["ring"])
    mount_spec = layout.MountSpec(**gen["mount"])
    assembly = layout.compose_skin(
        dermis, covering, sites, ring_spec, mount_spec,
        support_spacing=gen["support"]["spacing"],
        support_radius=gen["support"]["radius"],
        support_segments=gen["support"]["segments"],
        seed=cfg["seed"], coupling_gap=gen["coupling_gap"])

    out_dir.mkdir(parents=True, exist_ok=True)
    merged = concat_meshes(
        [assembly.dermis, assembly.covering]
        + [m for _, m in assembly.rings]
        + [m for _, m in assembly.mounts]
        + assembly.supports)
    material_files = meshio.save_stl_per_material(merged, out_dir / "skin.stl")
    meshio.save_obj(merged, out_dir / "skin.obj")
    layout.write_manifest(out_dir / "manifest.json", assembly, ring_spec,
                          mount_spec,
                          {m.name.lower(): p.name for m, p in material_files.items()})
    cfgmod.write_resolved_config(cfg, out_dir)
    print(f"generated skin: {len(sites)} site(s), {len(assembly.supports)} "
          f"support(s), materials: "
          f"{', '.join(sorted(p.name for p in material_files.values()))}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(cfg, out_dir: Path) -> int:
    sim = cfg["simulation"]
    for key in ("chain", "trajectory", "scene"):
        if sim[key] is None:
            raise ValueError(f"config simulation.{key} is required")
    manifest = layout.read_manifest(sim["manifest"]) if sim["manifest"] else None
    chain = load_chain(sim["chain"])
    trajectory = load_trajectory(sim["trajectory"])
    scene = load_scene(sim["scene"])
    duration = sim["duration"]
    sensing = cfg["sensing"]
    tof_spec = tof.ToFSpec(**sensing["tof"])
    meas = sc.MeasurementSpec(**sensing["measurement"])
    electrode = sc.ElectrodeModel(**sensing["electrode"])
    tof_active = sensing["tof_active"]

    site_ids = None
    if manifest is not None:
        site_ids = {s["site_id"] for s in manifest["sites"]}
    mounts = [m for m in chain.sensor_mounts
              if site_ids is None or m.site_id in site_ids]
    if not mounts:
        raise ValueError("no chain mounts match the manifest sites")

    # Every nodule's SC times come first, each from its own rng stream; then
    # one forward pass poses every sample's mount (row k with its own mount),
    # and one distance pass measures every sample.
    streams = [sc.schedule_streams(duration, meas, np.random.default_rng([cfg["seed"], 0, k]))
               for k in range(len(mounts))]
    lengths = [len(stream) for stream in streams]
    times = np.concatenate(streams)
    owners = [mount for mount, stream in zip(mounts, streams) for _ in stream]
    positions = mount_poses(chain, trajectory.value_at(times), owners).translation
    capacitances = sc.contact_capacitance(electrode,
                                          _conductive_distances(scene, times, positions))
    counts = [sc.measure_counts(c, meas, tof_active, np.random.default_rng([cfg["seed"], 1, k]))
              for k, c in enumerate(np.split(capacitances, np.cumsum(lengths)[:-1]))]
    sc_table = logs.ScTable(np.repeat([m.site_id for m in mounts], lengths), times,
                            np.concatenate(counts))

    # ToF frames are strictly periodic and shared by every mount. One forward
    # pass poses every mount at every frame time.
    tof_rngs = [np.random.default_rng([cfg["seed"], 2, stream_idx])
                for stream_idx in range(len(mounts))]
    frame_times = tof.frame_times(duration, tof_spec)
    frame_poses = mount_poses(chain, trajectory.value_at(frame_times)[:, None, :], mounts)
    tof_table = _tof_frames(scene, [m.site_id for m in mounts], frame_times, frame_poses,
                            tof_spec, tof_rngs)

    out_dir.mkdir(parents=True, exist_ok=True)
    logs.write_log(out_dir / "samples.jsonl", logs.log_lines(sc_table, tof_table))
    cfgmod.write_resolved_config(cfg, out_dir)
    print(f"simulated {duration} s over {len(mounts)} nodule(s): "
          f"{len(times)} sc record(s), {len(tof_table)} tof frame(s)")
    return EXIT_OK


def _tof_frames(scene: Scene, sensor_ids, times, poses: Pose, spec, rngs) -> logs.ToFTable:
    """Every sensor's frame at every time as one capture_frames table, rows
    time-major; poses is (times, sensors).

    The scene is cast in two levels. One Bvh per static object serves the
    whole run, and each block of whole frame times, at most _TOF_RAYS zone
    rays, goes through each of them as one packet; a per-object tree keeps
    the room's large boxes out of the obstacle's nodes. Each frame time then
    casts its rays through a Bvh of only its posed movers, and a ray keeps
    the smallest distance. A frame takes only the distance and whether
    anything was hit, and a (ray, triangle) pair gives the same t in any
    Bvh, so the frames are those of one Bvh over the whole posed scene at
    each time. No Bvh outlives the call. One capture_frames call over every time adds the
    noise, the same draws as one call per block.
    """
    static = [Bvh(TriangleSet(obj.mesh.vertices, obj.mesh.faces))
              for obj in scene.objects if not obj.keyframes]
    moving = [bool(obj.keyframes) for obj in scene.objects]
    per_time = len(sensor_ids) * spec.nx * spec.ny
    step = max(1, _TOF_RAYS // per_time)
    dist = np.empty(len(times) * per_time)
    hit = np.empty(len(dist), dtype=bool)
    for start in range(0, len(times), step):
        origins, directions = tof.zone_rays(poses[start:start + step], spec)
        block = slice(start * per_time, start * per_time + len(origins))
        dist[block], hit[block] = np.inf, False
        for bvh in static:
            t_obj, idx = bvh.raycast_many(origins, directions, spec.max_range)
            dist[block] = np.minimum(dist[block], t_obj)
            hit[block] |= idx >= 0
        for j, t in enumerate(times[start:start + step].tolist()):
            movers = [m for (m, _), move in zip(scene.at(t), moving) if move]
            rays = slice(j * per_time, (j + 1) * per_time)
            rows = slice((start + j) * per_time, (start + j + 1) * per_time)
            t_mov, idx_mov = Bvh(TriangleSet.from_meshes(movers)).raycast_many(
                origins[rays], directions[rays], spec.max_range)
            dist[rows] = np.minimum(dist[rows], t_mov)
            hit[rows] |= idx_mov >= 0
    return tof.capture_frames(sensor_ids, times, dist, hit, spec, rngs)


def _conductive_distances(scene: Scene, times, points):
    """Distance from points[k] to the nearest conductive surface at times[k].

    inf where the scene has no conductive triangle. Samples go in blocks of
    at most _DISTANCE_ROWS (sample, triangle) rows per object, which bounds
    the posed copies of moving meshes and the distance kernel's temporaries.
    """
    conductive = [obj for obj in scene.objects if obj.conductive]
    static = [None if obj.keyframes else TriangleSet(obj.mesh.vertices, obj.mesh.faces)
              for obj in conductive]
    step = max(1, _DISTANCE_ROWS // max([1] + [obj.mesh.n_faces for obj in conductive]))
    d = np.full(len(times), np.inf)
    for start in range(0, len(times), step):
        block = slice(start, start + step)
        for obj, tris in zip(conductive, static):
            if tris is None:
                tris = TriangleSet(obj.vertices_at(times[block]), obj.mesh.faces)
            d[block] = np.minimum(d[block], point_mesh_distance(points[block], tris))
    return d


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def cmd_reconstruct(cfg, log_path, out_dir: Path, fmt: str = "binary") -> int:
    sim = cfg["simulation"]
    for key in ("chain", "trajectory"):
        if sim[key] is None:
            raise ValueError(f"config simulation.{key} is required")
    chain = load_chain(sim["chain"])
    trajectory = load_trajectory(sim["trajectory"])
    tof_spec = tof.ToFSpec(**cfg["sensing"]["tof"])
    # The log's lines are freed before reconstruct runs, which lowers its
    # peak memory.
    frames = logs.tof_frames_from_records(logs.read_log(log_path),
                                          nx=tof_spec.nx, ny=tof_spec.ny)
    cloud = analysis.reconstruct(frames, chain, trajectory, tof_spec)

    out_dir.mkdir(parents=True, exist_ok=True)
    ply_path = out_dir / "cloud.ply"
    analysis.save_ply(cloud, ply_path, binary=(fmt == "binary"))
    cfgmod.write_resolved_config(cfg, out_dir)
    print(f"reconstructed {len(cloud)} point(s) from {len(frames)} frame(s) "
          f"-> {ply_path.name}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# snr
# ---------------------------------------------------------------------------

def load_labels(path):
    """Site id -> ActivityLabel of a labels file. Ids and bounds are typed as
    in the log; a fault raises ValueError naming its entry."""
    data = json.loads(Path(path).read_text())
    entries = data.get("labels", []) if type(data) is dict else None
    if type(entries) is not list:
        raise ValueError(f"labels file must be an object with a labels array, not {data!r}")
    out = {}
    for k, entry in enumerate(entries):
        try:
            if type(entry) is not dict:
                raise ValueError(f"not an object: {entry!r}")
            intervals = logs._field(entry, "intervals")
            if type(intervals) is not list or any(
                    type(iv) is not list or len(iv) != 3 for iv in intervals):
                raise ValueError(f"intervals must be an array of [t0, t1, state], "
                                 f"not {intervals!r}")
            label = analysis.ActivityLabel(
                site_id=logs._integer(entry, "site_id"),
                intervals=[(logs._number(t0), logs._number(t1), state)
                           for t0, t1, state in intervals])
        except (OverflowError, ValueError) as exc:
            raise ValueError(f"labels entry {k}: {exc}") from None
        if label.site_id in out:
            raise ValueError(f"labels list site {label.site_id} twice")
        out[label.site_id] = label
    return out


def cmd_snr(cfg, log_path, labels_path, out_dir: Path) -> int:
    table = logs.sc_samples_from_records(logs.read_log(log_path))
    labels = load_labels(labels_path)
    threshold = cfg["snr_threshold"]

    # One stable sort groups the samples by site, each site's in log order.
    order = np.argsort(table.site_ids, kind="stable")
    ids, times, counts = table.site_ids[order], table.times[order], table.counts[order]
    cuts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    by_site = {int(ids[start]): slice(start, stop)
               for start, stop in zip(np.r_[0, cuts], np.r_[cuts, len(ids)]) if stop > start}

    rows = [analysis.SNR_CSV_HEADER]
    summary = []
    omitted = sorted(set(by_site) - set(labels))
    pressure_lines = []
    for site_id in sorted(set(by_site) & set(labels)):
        # One labelling pass per site serves both the SNR split and the
        # pressure buckets.
        site_counts = counts[by_site[site_id]]
        states = labels[site_id].states_at(times[by_site[site_id]])
        rest, squeeze = states == analysis.ACTIVE_REST, states == analysis.ACTIVE_SQUEEZE
        report = analysis.snr(site_counts[states == analysis.INACTIVE],
                              site_counts[rest | squeeze], threshold, site_id=site_id)
        rows.append(report.csv_row(f"site{site_id}"))
        summary.append(f"site {site_id}: snr={report.snr:.2f} "
                       f"contact={str(report.contact).lower()}")
        if squeeze.any() and rest.any():
            p = analysis.pressure_series(site_counts, states, site_id)
            pressure_lines.append(
                f"site {site_id}: squeeze>rest={str(p.squeeze_above_rest).lower()} "
                f"rest>inactive={str(p.rest_above_inactive).lower()}")

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "snr.csv").write_text("\n".join(rows) + "\n")
    text = ["Contact SNR report", f"threshold: {threshold}"] + summary
    if pressure_lines:
        text += ["", "Pressure response:"] + pressure_lines
    if omitted:
        text += ["", "Sites without labels (omitted): "
                 + ", ".join(str(s) for s in omitted)]
    (out_dir / "summary.txt").write_text("\n".join(text) + "\n")
    cfgmod.write_resolved_config(cfg, out_dir)
    print("\n".join(summary) if summary else "no labeled sites in log")
    if omitted:
        print(f"omitted (no labels): {omitted}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def cmd_calibrate(cfg, out_dir: Path) -> int:
    tbl = cfg["table"]
    if tbl["seeds"] < 1:
        raise ValueError(f"config table.seeds must be at least 1, not {tbl['seeds']}")
    electrode = sc.ElectrodeModel(**cfg["sensing"]["electrode"])
    model = sc.fit_snr_table(
        table=tbl["targets"],
        calibration_column=tbl["calibration_column"],
        signal_delta=tbl["signal_delta"],
        measurement=sc.MeasurementSpec(**cfg["sensing"]["measurement"]),
        d0=electrode.d0, c0=electrode.c0)

    reports = []
    for s in range(tbl["seeds"]):
        cell_logs = analysis.build_cell_logs(model, tbl["samples_per_ring"], tbl["rings"],
                                             seed=cfg["seed"] + s)
        reports.append(analysis.evaluate_configurations(cell_logs,
                                                        threshold=cfg["snr_threshold"]))

    out_dir.mkdir(parents=True, exist_ok=True)
    cal = model.calibration
    payload = {
        "sigma_base": cal.sigma_base,
        "sigma_tof": cal.sigma_tof,
        "signal_delta": cal.signal_delta,
        "calibration_column": tbl["calibration_column"],
        "electrode": {
            "c0": model.electrode_covered.c0,
            "k": model.electrode_covered.k,
            "d0": model.electrode_covered.d0,
            "t_cov": model.electrode_covered.t_cov,
            "delta_squeeze": model.electrode_covered.delta_max,
        },
        "target_deltas": model.target_deltas,
        "expected_snr": {
            f"{col}/{'with_tof' if w else 'no_tof'}": model.expected_snr(col, w)
            for col in sc.TABLE_COLUMNS for w in (True, False)
        },
        "orderings_ok": all(r.column_order_ok and r.squeeze_above_rest
                            for r in reports),
        "all_contact": all(r.all_contact for r in reports),
        "seeds": tbl["seeds"],
    }
    (out_dir / "calibration.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    (out_dir / "snr.csv").write_text("\n".join(reports[0].csv_rows()) + "\n")
    (out_dir / "summary.txt").write_text(reports[0].summary_text() + "\n")
    cfgmod.write_resolved_config(cfg, out_dir)
    print(f"sigma_base={cal.sigma_base:.4f} sigma_tof={cal.sigma_tof:.4f} "
          f"orderings_ok={str(payload['orderings_ok']).lower()} "
          f"all_contact={str(payload['all_contact']).lower()}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="hybridskin",
        description="Generate hybrid-skin geometry and simulate its sensors.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       dest="overrides", help="override a config value")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("generate", help="build skin geometry around a mesh")
    common(p)
    p.add_argument("--strict", action="store_true",
                   help="abort on self-intersecting offsets")

    p = sub.add_parser("simulate", help="simulate SC + ToF streams over a scene")
    common(p)

    p = sub.add_parser("reconstruct", help="point cloud from a sample log")
    common(p)
    p.add_argument("--log", required=True, help="merged sample log (jsonl)")
    p.add_argument("--format", choices=("binary", "ascii"), default="binary")

    p = sub.add_parser("snr", help="contact SNR report from a labeled log")
    common(p)
    p.add_argument("--log", required=True)
    p.add_argument("--labels", required=True, help="activity label JSON")

    p = sub.add_parser("calibrate", help="fit interference noise to an SNR table")
    common(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = cfgmod.load_config(args.config, args.overrides, args.seed)
        if getattr(args, "strict", False):
            cfg["generation"]["strict"] = True
        out_dir = Path(args.out)
        if args.command == "generate":
            return cmd_generate(cfg, out_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "reconstruct":
            return cmd_reconstruct(cfg, args.log, out_dir, args.format)
        if args.command == "snr":
            return cmd_snr(cfg, args.log, args.labels, out_dir)
        if args.command == "calibrate":
            return cmd_calibrate(cfg, out_dir)
        raise ValueError(f"unknown command {args.command!r}")
    except CalibrationError as exc:
        _print_error(exc)
        return EXIT_NUMERICAL
    except (OSError, json.JSONDecodeError) as exc:
        _print_error(exc)
        return EXIT_IO
    except (SkinError, ValueError) as exc:
        _print_error(exc)
        return EXIT_VALIDATION


def _print_error(exc):
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
          file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
