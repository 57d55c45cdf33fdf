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


def _mesh_from_spec(spec, units="m"):
    """Mesh path (str) or primitive dict -> TriMesh."""
    if isinstance(spec, str):
        return meshio.load_mesh(spec, units=units)
    if not isinstance(spec, dict):
        raise ValueError("generation.mesh must be a path or a primitive dict")
    kind = spec.get("kind")
    args = {k: v for k, v in spec.items() if k != "kind"}
    if "center" in args:
        args["center"] = tuple(args["center"])
    if "size" in args:
        args["size"] = tuple(args["size"])
    makers = {"box": make_box, "plane": make_plane_patch,
              "sphere": make_uv_sphere, "cylinder": make_cylinder}
    if kind not in makers:
        raise ValueError(f"unknown primitive kind {kind!r}")
    return makers[kind](**args)


def load_scene(path) -> Scene:
    data = json.loads(Path(path).read_text())
    objects = []
    for entry in data.get("objects", []):
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
        objects.append(SceneObject(mesh=mesh,
                                   conductive=bool(entry.get("conductive", False)),
                                   keyframes=keyframes,
                                   name=entry.get("name", "")))
    return Scene(objects=objects)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(cfg, out_dir: Path) -> int:
    gen = cfg["generation"]
    if gen.get("mesh") is None:
        raise ValueError("config generation.mesh is required")
    mesh = _mesh_from_spec(gen["mesh"], units=gen.get("mesh_units", "m"))

    report = validate_mesh(mesh)
    if not report.is_valid:
        findings = [{"code": f.code, "severity": f.severity, "message": f.message}
                    for f in report.findings]
        print(json.dumps({"error": "InvalidMesh", "findings": findings}),
              file=sys.stderr)
        return EXIT_VALIDATION

    strict = bool(gen.get("strict", False))
    dermis = offset_surface(mesh, OffsetSpec(gen["dermis_offset"]), strict=strict)
    covering = extrude_covering(dermis, OffsetSpec(gen["covering_offset"]),
                                strict=strict)
    sites = layout.sample_sites(dermis, gen["site_count"], gen["site_min_dist"],
                                seed=cfg["seed"])
    ring_spec = cfgmod.build_ring_spec(cfg)
    mount_spec = cfgmod.build_mount_spec(cfg)
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
        if sim.get(key) is None:
            raise ValueError(f"config simulation.{key} is required")
    manifest = layout.read_manifest(sim["manifest"]) if sim.get("manifest") else None
    chain = load_chain(sim["chain"])
    trajectory = load_trajectory(sim["trajectory"])
    scene = load_scene(sim["scene"])
    duration = float(sim["duration"])

    tof_spec = cfgmod.build_tof_spec(cfg)
    meas = cfgmod.build_measurement_spec(cfg)
    electrode = cfgmod.build_electrode(cfg)
    tof_active = bool(cfg["sensing"].get("tof_active", True))

    site_ids = None
    if manifest is not None:
        site_ids = {s["site_id"] for s in manifest["sites"]}
    mounts = [m for m in chain.sensor_mounts
              if site_ids is None or m.site_id in site_ids]
    if not mounts:
        raise ValueError("no chain mounts match the manifest sites")

    records = []
    for stream_idx, mount in enumerate(mounts):
        rng = np.random.default_rng([cfg["seed"], 0, stream_idx])
        sc_times = sc.schedule_streams(duration, meas, rng)

        sc_rng = np.random.default_rng([cfg["seed"], 1, stream_idx])
        # One forward pass poses the mount at every one of its SC times.
        positions = mount_poses(chain, trajectory.value_at(sc_times), [mount]).translation
        for t, position in zip(sc_times, positions):
            d = _conductive_distance(scene, float(t), position)
            if d is None:
                c = sc.capacitance(electrode, None)
            else:
                delta = float(np.clip(electrode.t_cov - d, 0.0, electrode.delta_max))
                c = sc.capacitance(electrode.compressed(delta), d)
            counts = sc.measure_counts(c, meas, tof_active, sc_rng)
            records.append(logs.sc_record(sc.ScSample(mount.site_id, float(t), counts)))

    # ToF frames are strictly periodic and shared by every mount, so each
    # frame time poses the chain and builds the scene BVH once, and casts
    # all mounts' zone rays as one packet. The BVH is dropped with the call.
    tof_rngs = [np.random.default_rng([cfg["seed"], 2, stream_idx])
                for stream_idx in range(len(mounts))]
    sensor_ids = [m.site_id for m in mounts]
    for t in tof.frame_times(duration, tof_spec):
        t = float(t)
        poses = mount_poses(chain, trajectory.value_at(t), mounts)
        frames = tof.capture_frames(
            sensor_ids, poses, Bvh(TriangleSet.from_meshes([m for m, _ in scene.at(t)])),
            t, tof_spec, tof_rngs)
        records.extend(logs.tof_record(f) for f in frames)

    out_dir.mkdir(parents=True, exist_ok=True)
    logs.write_log(out_dir / "samples.jsonl", logs.merge_records(records))
    cfgmod.write_resolved_config(cfg, out_dir)
    n_sc = sum(1 for r in records if r["type"] == "sc")
    n_tof = len(records) - n_sc
    print(f"simulated {duration} s over {len(mounts)} nodule(s): "
          f"{n_sc} sc record(s), {n_tof} tof frame(s)")
    return EXIT_OK


def _conductive_distance(scene: Scene, t: float, point):
    """Distance from a point to the nearest conductive scene surface (None if none)."""
    meshes = [mesh for mesh, conductive in scene.at(t) if conductive]
    if not meshes:
        return None
    return point_mesh_distance(point, TriangleSet.from_meshes(meshes))


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def cmd_reconstruct(cfg, log_path, out_dir: Path, fmt: str = "binary") -> int:
    sim = cfg["simulation"]
    for key in ("chain", "trajectory"):
        if sim.get(key) is None:
            raise ValueError(f"config simulation.{key} is required")
    chain = load_chain(sim["chain"])
    trajectory = load_trajectory(sim["trajectory"])
    tof_spec = cfgmod.build_tof_spec(cfg)
    records = logs.read_log(log_path)
    frames = logs.tof_frames_from_records(records, nx=tof_spec.nx, ny=tof_spec.ny)
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
    data = json.loads(Path(path).read_text())
    out = {}
    for entry in data.get("labels", []):
        label = analysis.ActivityLabel(
            site_id=int(entry["site_id"]),
            intervals=[(float(t0), float(t1), state)
                       for t0, t1, state in entry["intervals"]])
        out[label.site_id] = label
    return out


def cmd_snr(cfg, log_path, labels_path, out_dir: Path) -> int:
    records = logs.read_log(log_path)
    samples = logs.sc_samples_from_records(records)
    labels = load_labels(labels_path)
    threshold = float(cfg.get("snr_threshold", analysis.DEFAULT_SNR_THRESHOLD))

    by_site = {}
    for s in samples:
        by_site.setdefault(s.site_id, []).append(s)

    rows = ["config,ring,mu_n,sigma_n,mu,snr,contact"]
    summary = []
    omitted = sorted(set(by_site) - set(labels))
    pressure_lines = []
    for site_id in sorted(set(by_site) & set(labels)):
        site_samples = by_site[site_id]
        label = labels[site_id]
        inactive = [s.counts for s in site_samples
                    if label.state_at(s.timestamp) == analysis.INACTIVE]
        active = [s.counts for s in site_samples
                  if label.state_at(s.timestamp) in
                  (analysis.ACTIVE_REST, analysis.ACTIVE_SQUEEZE)]
        report = analysis.snr(inactive, active, threshold, site_id=site_id)
        rows.append(f"site{site_id},{site_id},{report.mu_n:.6f},"
                    f"{report.sigma_n:.6f},{report.mu:.6f},{report.snr:.6f},"
                    f"{str(report.contact).lower()}")
        summary.append(f"site {site_id}: snr={report.snr:.2f} "
                       f"contact={str(report.contact).lower()}")
        states = {label.state_at(s.timestamp) for s in site_samples}
        if analysis.ACTIVE_SQUEEZE in states and analysis.ACTIVE_REST in states:
            p = analysis.pressure_series(site_samples, label)
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
    targets = {k: tuple(v) for k, v in tbl["targets"].items()}
    model = sc.fit_snr_table(
        table=targets,
        calibration_column=tbl["calibration_column"],
        signal_delta=float(tbl["signal_delta"]),
        measurement=cfgmod.build_measurement_spec(cfg),
        d0=float(cfg["sensing"]["electrode"]["d0"]),
        c0=float(cfg["sensing"]["electrode"]["c0"]))

    threshold = float(cfg.get("snr_threshold", analysis.DEFAULT_SNR_THRESHOLD))
    n_seeds = int(tbl.get("seeds", 1))
    reports = []
    for s in range(n_seeds):
        cell_logs = analysis.build_cell_logs(model, int(tbl["samples_per_ring"]),
                                             int(tbl["rings"]),
                                             seed=cfg["seed"] + s)
        reports.append(analysis.evaluate_configurations(cell_logs,
                                                        threshold=threshold))

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
            "delta_squeeze": model.delta_squeeze,
        },
        "target_deltas": model.target_deltas,
        "expected_snr": {
            f"{col}/{'with_tof' if w else 'no_tof'}": model.expected_snr(col, w)
            for col in sc.TABLE_COLUMNS for w in (True, False)
        },
        "orderings_ok": all(r.column_order_ok and r.squeeze_above_rest
                            for r in reports),
        "all_contact": all(r.all_contact for r in reports),
        "seeds": n_seeds,
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
