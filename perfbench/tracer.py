"""Per-layer tracing of hybridskin from outside the package.

Each probe wraps one public function or method and adds its wall time to
a named total; some also count work items (rays, faces, records, bytes).
A function is patched in every hybridskin module that binds it, so the
wrapper is found wherever a caller looks it up (for example both
hybridskin.cli.forward_kinematics and hybridskin.analysis.forward_kinematics);
methods are patched on their class. Times are inclusive: a span that calls
another traced function also counts the callee's time.
"""

import os
import sys
import time
from collections import defaultdict
from functools import wraps

# Per-layer metrics: name -> unit, in report order.
METRICS = {
    "cli.generate_s": "s", "cli.simulate_s": "s", "cli.reconstruct_s": "s", "cli.snr_s": "s",
    "mesh.validate_s": "s", "mesh.input_faces": "count",
    "meshio.load_s": "s", "meshio.save_s": "s", "meshio.bytes_written": "bytes",
    "geometry.offset_s": "s", "geometry.self_intersection_s": "s",
    "geometry.self_intersection_faces": "count", "geometry.supports_s": "s",
    "geometry.supports_placed": "count", "layout.sample_sites_s": "s", "layout.compose_s": "s",
    "kinematics.fk_calls": "count", "kinematics.fk_s": "s",
    "kinematics.scene_at_calls": "count", "kinematics.scene_at_s": "s",
    "raycast.bvh_builds": "count", "raycast.bvh_build_s": "s", "raycast.bvh_triangles": "count",
    "raycast.rays": "count", "raycast.ray_s": "s", "raycast.rays_per_build": "rays/build",
    "tof.frames": "count", "tof.capture_s": "s", "tof.valid_zones": "count",
    "raycast.distance_queries": "count", "raycast.distance_s": "s",
    "raycast.distance_triangles": "count", "raycast.triangleset_builds": "count",
    "raycast.triangleset_s": "s", "sc.samples": "count", "sc.measure_s": "s",
    "sc.schedule_s": "s",
    "logs.records_written": "count", "logs.bytes_written": "bytes", "logs.write_s": "s",
    "logs.records_read": "count", "logs.read_s": "s", "logs.decode_s": "s",
    "analysis.reconstruct_s": "s", "analysis.points": "count", "analysis.ply_s": "s",
    "analysis.snr_s": "s", "analysis.pressure_s": "s",
    "trace.overhead_s": "s",
}


def _count(name, fn):
    """Counter hook: adds fn(args, result) to the named count."""
    return lambda totals, args, result: totals.__setitem__(name, totals[name] + fn(args, result))


def _bytes_saved(args, result):
    paths = result.values() if isinstance(result, dict) else [args[1]]
    return sum(os.path.getsize(p) for p in paths)


def probes():
    """(owner, attribute, time metric, count hooks) for every traced call."""
    from hybridskin import (analysis, cli, geometry, kinematics, layout, logs, mesh,
                            meshio, raycast, sc, tof)
    calls = lambda name: _count(name, lambda a, r: 1)
    return [
        (cli, "cmd_generate", "cli.generate_s", []),
        (cli, "cmd_simulate", "cli.simulate_s", []),
        (cli, "cmd_reconstruct", "cli.reconstruct_s", []),
        (cli, "cmd_snr", "cli.snr_s", []),
        (mesh, "validate_mesh", "mesh.validate_s",
         [_count("mesh.input_faces", lambda a, r: a[0].n_faces)]),
        (meshio, "load_mesh", "meshio.load_s", []),
        (meshio, "save_stl_per_material", "meshio.save_s",
         [_count("meshio.bytes_written", _bytes_saved)]),
        (meshio, "save_obj", "meshio.save_s", [_count("meshio.bytes_written", _bytes_saved)]),
        (geometry, "offset_surface", "geometry.offset_s", []),
        (geometry, "extrude_covering", "geometry.offset_s", []),
        (geometry, "self_intersections", "geometry.self_intersection_s",
         [_count("geometry.self_intersection_faces", lambda a, r: a[0].n_faces)]),
        (geometry, "generate_supports", "geometry.supports_s",
         [_count("geometry.supports_placed", lambda a, r: len(r))]),
        (layout, "sample_sites", "layout.sample_sites_s", []),
        (layout, "compose_skin", "layout.compose_s", []),
        (kinematics, "forward_kinematics", "kinematics.fk_s", [calls("kinematics.fk_calls")]),
        (kinematics.Scene, "at", "kinematics.scene_at_s", [calls("kinematics.scene_at_calls")]),
        (raycast.Bvh, "__init__", "raycast.bvh_build_s",
         [calls("raycast.bvh_builds"),
          _count("raycast.bvh_triangles", lambda a, r: a[1].n_triangles)]),
        (raycast.Bvh, "raycast", "raycast.ray_s", [calls("raycast.rays")]),
        (tof, "capture_frame", "tof.capture_s",
         [calls("tof.frames"), _count("tof.valid_zones", lambda a, r: int(r.valid.sum()))]),
        (raycast, "point_mesh_distance", "raycast.distance_s",
         [calls("raycast.distance_queries"),
          _count("raycast.distance_triangles", lambda a, r: a[1].n_triangles)]),
        (raycast.TriangleSet, "__init__", "raycast.triangleset_s",
         [calls("raycast.triangleset_builds")]),
        (sc, "measure_counts", "sc.measure_s", [calls("sc.samples")]),
        (sc, "schedule_streams", "sc.schedule_s", []),
        (logs, "write_log", "logs.write_s",
         [_count("logs.records_written", lambda a, r: len(a[1])),
          _count("logs.bytes_written", lambda a, r: os.path.getsize(a[0]))]),
        (logs, "read_log", "logs.read_s", [_count("logs.records_read", lambda a, r: len(r))]),
        (logs, "tof_frames_from_records", "logs.decode_s", []),
        (logs, "sc_samples_from_records", "logs.decode_s", []),
        (analysis, "reconstruct", "analysis.reconstruct_s",
         [_count("analysis.points", lambda a, r: len(r))]),
        (analysis, "save_ply", "analysis.ply_s", []),
        (analysis, "snr", "analysis.snr_s", []),
        (analysis, "pressure_series", "analysis.pressure_s", []),
    ]


class Tracer:
    """Installs the probes, accumulates totals, and restores the originals."""

    def __init__(self):
        self.totals = defaultdict(float)
        self._patched = []  # (namespace, attribute, original)

    def _wrap(self, fn, metric, hooks):
        totals = self.totals

        @wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            totals[metric] += time.perf_counter() - t0
            for hook in hooks:
                hook(totals, args, result)
            return result
        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hybridskin" or name.startswith("hybridskin."))]
        for owner, attr, metric, hooks in probes():
            original = getattr(owner, attr)
            wrapper = self._wrap(original, metric, hooks)
            if isinstance(owner, type):
                namespaces = [owner]
            else:
                namespaces = [m for m in modules if vars(m).get(attr) is original]
            for ns in namespaces:
                self._patched.append((ns, attr, original))
                setattr(ns, attr, wrapper)

    def remove(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def reset(self):
        self.totals.clear()

    def metrics(self):
        """Every per-layer metric except the tracing overhead."""
        out = {name: self.totals.get(name, 0.0) for name in METRICS if name != "trace.overhead_s"}
        for name, unit in METRICS.items():
            if unit in ("count", "bytes") and name in out:
                out[name] = int(out[name])
        builds = out["raycast.bvh_builds"]
        out["raycast.rays_per_build"] = out["raycast.rays"] / builds if builds else 0.0
        return out
