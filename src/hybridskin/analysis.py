"""Point-cloud reconstruction, SNR statistics, and contact/pressure reports.

Reconstruction maps every valid ToF zone into world space using the
sensor's pose at the frame timestamp (joints linearly interpolated from
the trajectory), emitting one point per valid zone. SNR follows
|mu_n - mu| / sigma_n with the unbiased (n-1) standard deviation and a
contact verdict at a configurable threshold (default 7).
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (DegenerateSignalError, InsufficientSamplesError,
                     UnknownSensorError)
from .kinematics import JointTrajectory, KinematicChain, mount_poses
from .logs import ToFTable
from .sc import TABLE_COLUMNS, TableModel, simulate_cell_counts
from .tof import ToFSpec, zone_rays

DEFAULT_SNR_THRESHOLD = 7.0
SNR_CSV_HEADER = "config,ring,mu_n,sigma_n,mu,snr,contact"
MIN_CELL_RINGS = 3        # rings per table cell
MIN_CELL_SAMPLES = 1000   # inactive and active samples per ring
# One-sided 99 % normal quantile: the pressure ordering is a 99 % claim.
Z_99 = 2.3263

INACTIVE = "INACTIVE"
ACTIVE_REST = "ACTIVE_REST"
ACTIVE_SQUEEZE = "ACTIVE_SQUEEZE"
ACTIVITY_STATES = (INACTIVE, ACTIVE_REST, ACTIVE_SQUEEZE)

# Zone rays of one block of reconstruct's back-projection: 64 frames of
# 8x8 zones. Rays for a whole log at once raise the peak memory of a
# long replay by several MB.
_RAY_BLOCK = 1 << 12


@dataclass
class PointCloud:
    points: np.ndarray      # (n, 3) m
    sensor_ids: np.ndarray  # (n,)
    timestamps: np.ndarray  # (n,)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        self.sensor_ids = np.asarray(self.sensor_ids, dtype=np.int64).reshape(-1)
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64).reshape(-1)
        if not (len(self.points) == len(self.sensor_ids) == len(self.timestamps)):
            raise ValueError("point cloud arrays disagree in length")
        if len(self.points) and not np.all(np.isfinite(self.points)):
            raise ValueError("point cloud contains non-finite points")

    def __len__(self):
        return self.points.shape[0]


def reconstruct(table: ToFTable, chain: KinematicChain, trajectory: JointTrajectory,
                spec: ToFSpec) -> PointCloud:
    """World-space point per valid zone of every frame, in frame then zone order.

    The frames are the rows of a ToFTable; they reference the chain's
    mounts by sensor_id == mount site_id. One pass evaluates the trajectory
    and poses the mount of every frame; the frames are then back-projected
    along the zone rays that simulate casts (tof.zone_rays), in blocks of
    consecutive frames of at most _RAY_BLOCK rays, into one preallocated
    array. Every row of a block carries the bits of the one-pose ray.
    Raises UnknownSensorError for unmatched frames and DomainError (from
    the trajectory) for timestamps outside its domain, for the first fault
    in frame order. Frames are grouped into runs of consecutive frames that
    share a timestamp only for this order: a run's timestamp counts after
    its first frame's sensor and before the others. Raises ValueError for a
    table whose zone grid is not the spec's.
    """
    ids, times = table.sensor_ids, table.times
    n = len(times)
    if not n:
        return PointCloud(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), np.zeros(0))
    starts = np.flatnonzero(np.r_[True, times[1:] != times[:-1]])
    by_site = {m.site_id: m for m in chain.sensor_mounts}
    unknown = np.flatnonzero(~np.isin(ids, list(by_site)))
    # The timestamps checked before the first unknown sensor: those of the
    # earlier runs, and its own run's unless it is the run's first frame.
    checked = len(starts)
    if len(unknown):
        run = np.searchsorted(starts, unknown[0], side="right") - 1
        checked = run + (unknown[0] > starts[run])
    q = trajectory.value_at(times[starts[:checked]])
    if len(unknown):
        raise UnknownSensorError(f"no mount for sensor id {ids[unknown[0]]}")
    poses = mount_poses(chain, np.repeat(q, np.diff(np.r_[starts, n]), axis=0),
                        [by_site[i] for i in ids.tolist()])

    n_zones = spec.nx * spec.ny
    if table.valid.shape[1] != n_zones:
        raise ValueError(f"frame of sensor {ids[0]} at t={times[0]} has "
                         f"{table.valid.shape[1]} zones, the spec has {n_zones}")
    valid = table.valid.reshape(-1)
    distances = table.distances.reshape(-1)
    counts = table.valid.sum(axis=1)
    points = np.empty((int(counts.sum()), 3))
    step = max(1, _RAY_BLOCK // n_zones)
    row = 0
    for start in range(0, n, step):
        origins, directions = zone_rays(poses[start:start + step], spec)
        zones = slice(start * n_zones, (start + step) * n_zones)
        d, v = distances[zones], valid[zones]
        k = np.count_nonzero(v)
        points[row:row + k] = origins[v] + d[v, None] * directions[v]
        row += k
    return PointCloud(points, np.repeat(ids, counts), np.repeat(times, counts))


@dataclass(frozen=True)
class SnrReport:
    site_id: int
    mu_n: float      # mean inactive counts
    sigma_n: float   # unbiased inactive std
    mu: float        # mean active counts
    snr: float
    contact: bool

    def csv_row(self, config):
        """This report's snr.csv row (SNR_CSV_HEADER) under the config label."""
        return (f"{config},{self.site_id},{self.mu_n:.6f},{self.sigma_n:.6f},"
                f"{self.mu:.6f},{self.snr:.6f},{str(self.contact).lower()}")


def snr(inactive, active, threshold: float = DEFAULT_SNR_THRESHOLD,
        site_id: int = -1) -> SnrReport:
    """Contact SNR |mu_n - mu| / sigma_n from raw count streams."""
    inactive = np.asarray(inactive, dtype=np.float64)
    active = np.asarray(active, dtype=np.float64)
    if inactive.size < 2:
        raise InsufficientSamplesError(
            f"need >= 2 inactive samples, got {inactive.size}")
    if active.size < 1:
        raise InsufficientSamplesError("need >= 1 active sample")
    mu_n = float(inactive.mean())
    sigma_n = float(inactive.std(ddof=1))
    if sigma_n == 0.0:
        raise DegenerateSignalError("inactive signal has zero variance")
    mu = float(active.mean())
    value = abs(mu_n - mu) / sigma_n
    return SnrReport(site_id=site_id, mu_n=mu_n, sigma_n=sigma_n, mu=mu,
                     snr=value, contact=value >= threshold)


# ---------------------------------------------------------------------------
# Six-cell table evaluation (2 ToF states x 3 covering states)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellLog:
    column: str        # one of TABLE_COLUMNS
    with_tof: bool
    ring: int
    inactive: np.ndarray
    active: np.ndarray

    def __post_init__(self):
        if self.column not in TABLE_COLUMNS:
            raise ValueError(f"unknown table column {self.column!r}")


@dataclass
class CellStats:
    column: str
    with_tof: bool
    snr_mean: float
    snr_std: float      # spread over rings
    ring_reports: list
    contact: bool


@dataclass
class TableReport:
    cells: dict                  # (column, with_tof) -> CellStats
    threshold: float
    column_order_ok: bool        # no-ToF > with-ToF in every column
    squeeze_above_rest: bool     # squeeze > rest in both rows
    all_contact: bool

    def csv_rows(self):
        rows = [SNR_CSV_HEADER]
        for (column, with_tof), stats in sorted(self.cells.items()):
            cfg = f"{column}/{'with_tof' if with_tof else 'no_tof'}"
            rows += [r.csv_row(cfg) for r in stats.ring_reports]
        return rows

    def summary_text(self):
        col_titles = {"no_covering": "No covering",
                      "covering_rest": "Covering (rest)",
                      "covering_squeeze": "Covering (squeeze)"}
        lines = ["Average contact SNR per configuration (mean +/- std over rings)"]
        header = f"{'':10s}" + "".join(f"{col_titles[c]:>24s}" for c in TABLE_COLUMNS)
        lines.append(header)
        for with_tof, label in ((True, "With ToF"), (False, "No ToF")):
            cells = []
            for c in TABLE_COLUMNS:
                s = self.cells[(c, with_tof)]
                cells.append(f"{s.snr_mean:10.1f} +/- {s.snr_std:5.1f}  ")
            lines.append(f"{label:10s}" + "".join(f"{c:>24s}" for c in cells))
        lines.append(f"contact threshold: {self.threshold}; "
                     f"all cells in contact: {str(self.all_contact).lower()}")
        return "\n".join(lines)


def evaluate_configurations(cell_logs,
                            threshold: float = DEFAULT_SNR_THRESHOLD) -> TableReport:
    """Per-cell SNR averaged over rings, with the expected orderings checked.

    Every cell needs at least MIN_CELL_RINGS rings of at least
    MIN_CELL_SAMPLES inactive and active samples each.
    """
    grouped = {}
    for log in cell_logs:
        grouped.setdefault((log.column, bool(log.with_tof)), []).append(log)

    cells = {}
    for key in ((c, w) for c in TABLE_COLUMNS for w in (True, False)):
        logs = grouped.get(key, [])
        if len(logs) < MIN_CELL_RINGS:
            raise InsufficientSamplesError(
                f"cell {key} has {len(logs)} ring(s), need >= {MIN_CELL_RINGS}")
        reports = []
        for log in sorted(logs, key=lambda l: l.ring):
            if min(len(log.inactive), len(log.active)) < MIN_CELL_SAMPLES:
                raise InsufficientSamplesError(f"cell {key} ring {log.ring} has fewer "
                                               f"than {MIN_CELL_SAMPLES} samples")
            reports.append(snr(log.inactive, log.active, threshold, site_id=log.ring))
        values = np.array([r.snr for r in reports])
        cells[key] = CellStats(column=key[0], with_tof=key[1],
                               snr_mean=float(values.mean()),
                               snr_std=float(values.std(ddof=1)) if len(values) > 1 else 0.0,
                               ring_reports=reports,
                               contact=bool(values.mean() >= threshold))

    column_order_ok = all(
        cells[(c, False)].snr_mean > cells[(c, True)].snr_mean
        for c in TABLE_COLUMNS)
    squeeze_above_rest = all(
        cells[("covering_squeeze", w)].snr_mean > cells[("covering_rest", w)].snr_mean
        for w in (True, False))
    all_contact = all(s.contact for s in cells.values())
    return TableReport(cells=cells, threshold=threshold,
                       column_order_ok=column_order_ok,
                       squeeze_above_rest=squeeze_above_rest,
                       all_contact=all_contact)


def build_cell_logs(model: TableModel, n_samples: int = 1000, n_rings: int = 3,
                    seed: int = 0) -> list:
    """Monte-Carlo count logs for all six cells of a calibrated table model."""
    logs = []
    for column in TABLE_COLUMNS:
        for with_tof in (True, False):
            for ring in range(n_rings):
                rng = np.random.default_rng([seed, TABLE_COLUMNS.index(column),
                                             int(with_tof), ring])
                inactive, active = simulate_cell_counts(model, column, with_tof,
                                                        n_samples, rng)
                logs.append(CellLog(column=column, with_tof=with_tof, ring=ring,
                                    inactive=inactive, active=active))
    return logs


# ---------------------------------------------------------------------------
# Pressure response over labeled activity intervals
# ---------------------------------------------------------------------------

@dataclass
class ActivityLabel:
    site_id: int
    intervals: list  # (t_start, t_end, state)

    def __post_init__(self):
        prev_end = -np.inf
        for t0, t1, state in self.intervals:
            if state not in ACTIVITY_STATES:
                raise ValueError(f"unknown activity state {state!r}")
            if not (np.isfinite(t0) and np.isfinite(t1)):
                raise ValueError(f"interval ({t0}, {t1}) has a non-finite bound")
            if t1 <= t0:
                raise ValueError(f"empty interval ({t0}, {t1})")
            if t0 < prev_end:
                raise ValueError("intervals overlap or are out of order")
            prev_end = t1

    def states_at(self, times):
        """The state at each time, None outside every interval: an object array.

        Intervals are half-open [t0, t1). They are sorted and disjoint, so
        one searchsorted over their starts finds the only one that can hold
        a time; a trailing sentinel turns "before every start" into a miss.
        """
        t = np.asarray(times, dtype=np.float64)
        starts = np.array([t0 for t0, _, _ in self.intervals], dtype=np.float64)
        ends = np.array([t1 for _, t1, _ in self.intervals] + [-np.inf])
        names = np.array([state for _, _, state in self.intervals] + [None], dtype=object)
        k = np.searchsorted(starts, t, side="right") - 1
        k[~(t < ends[k])] = -1
        return names[k]


@dataclass
class PressureReport:
    site_id: int
    means: dict            # state -> mean counts (present states only)
    counts: dict           # state -> sample count
    squeeze_above_rest: bool
    rest_above_inactive: bool
    applicable: bool       # False when squeeze or rest data is missing


def _one_sided_z(hi, lo):
    """z statistic for mean(hi) > mean(lo), normal approximation."""
    vh = hi.var(ddof=1) / len(hi)
    vl = lo.var(ddof=1) / len(lo)
    denom = np.sqrt(vh + vl)
    if denom == 0.0:
        return np.inf if hi.mean() > lo.mean() else -np.inf
    return float((hi.mean() - lo.mean()) / denom)


def pressure_series(counts, states, site_id: int = -1) -> PressureReport:
    """Check counts(SQUEEZE) > counts(REST) > counts(INACTIVE) at 99 % confidence.

    states[k] is the state of counts[k] (ActivityLabel.states_at), None
    where unlabeled. States with no labeled samples make the ordering
    not-applicable rather than failing; present states need at least two
    samples each.
    """
    counts = np.asarray(counts, dtype=np.float64)
    present = {state: counts[states == state] for state in ACTIVITY_STATES}
    present = {k: v for k, v in present.items() if v.size}
    for state, vals in present.items():
        if len(vals) < 2:
            raise InsufficientSamplesError(
                f"state {state} has {len(vals)} sample(s), need >= 2")

    applicable = ACTIVE_SQUEEZE in present and ACTIVE_REST in present
    squeeze_above_rest = False
    rest_above_inactive = False
    if applicable:
        squeeze_above_rest = _one_sided_z(present[ACTIVE_SQUEEZE],
                                          present[ACTIVE_REST]) > Z_99
        if INACTIVE in present:
            rest_above_inactive = _one_sided_z(present[ACTIVE_REST],
                                               present[INACTIVE]) > Z_99
    return PressureReport(
        site_id=site_id,
        means={k: float(v.mean()) for k, v in present.items()},
        counts={k: int(len(v)) for k, v in present.items()},
        squeeze_above_rest=squeeze_above_rest,
        rest_above_inactive=rest_above_inactive,
        applicable=applicable)


# ---------------------------------------------------------------------------
# PLY export (x, y, z float32; sensor_id uint32; t float32)
# ---------------------------------------------------------------------------

# One binary_little_endian vertex record, the layout the header declares.
_PLY_VERTEX = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                        ("sensor_id", "<u4"), ("t", "<f4")])


def _ply_vertices(cloud: PointCloud) -> np.ndarray:
    """The cloud as _PLY_VERTEX records; ValueError where a value does not fit."""
    ids = cloud.sensor_ids
    bad = (ids < 0) | (ids > np.iinfo(np.uint32).max)
    if np.any(bad):
        raise ValueError(f"PLY sensor_id {ids[bad][0]} is outside [0, 2**32)")
    vertices = np.empty(len(cloud), dtype=_PLY_VERTEX)
    for name, values in (("x", cloud.points[:, 0]), ("y", cloud.points[:, 1]),
                         ("z", cloud.points[:, 2]), ("t", cloud.timestamps)):
        # float64 -> float32 rounds to nearest even; a finite value that
        # rounds to inf does not fit.
        with np.errstate(over="ignore"):
            vertices[name] = values
        bad = np.isinf(vertices[name]) & np.isfinite(values)
        if np.any(bad):
            raise ValueError(f"PLY {name} value {values[bad][0]:g} is outside "
                             "the float32 range")
    vertices["sensor_id"] = ids
    return vertices


def save_ply(cloud: PointCloud, path, binary: bool = True):
    n = len(cloud)
    fmt = "binary_little_endian" if binary else "ascii"
    header = "\n".join([
        "ply",
        f"format {fmt} 1.0",
        f"element vertex {n}",
        "property float x",
        "property float y",
        "property float z",
        "property uint sensor_id",
        "property float t",
        "end_header",
    ]) + "\n"
    path = Path(path)
    vertices = _ply_vertices(cloud)  # both formats hold the same value ranges
    if binary:
        with open(path, "wb") as f:
            f.write(header.encode("ascii"))
            vertices.tofile(f)
    else:
        with open(path, "w") as f:
            f.write(header)
            for p, sid, t in zip(cloud.points, cloud.sensor_ids, cloud.timestamps):
                f.write(f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g} {int(sid)} {t:.9g}\n")


def load_ply(path) -> PointCloud:
    """Reader for the PLY layout written by save_ply (round-trip checks)."""
    data = Path(path).read_bytes()
    end = data.index(b"end_header\n") + len(b"end_header\n")
    header = data[:end].decode("ascii").splitlines()
    n = 0
    binary = False
    for line in header:
        if line.startswith("element vertex"):
            n = int(line.split()[-1])
        elif line.startswith("format binary_little_endian"):
            binary = True
    if binary:
        vertices = np.frombuffer(data, dtype=_PLY_VERTEX, count=n, offset=end)
        return PointCloud(np.column_stack([vertices["x"], vertices["y"], vertices["z"]]),
                          vertices["sensor_id"], vertices["t"])
    points = np.zeros((n, 3))
    ids = np.zeros(n, dtype=np.int64)
    times = np.zeros(n)
    lines = data[end:].decode("ascii").split("\n")
    for i in range(n):
        parts = lines[i].split()
        points[i] = [float(v) for v in parts[:3]]
        ids[i] = int(parts[3])
        times[i] = float(parts[4])
    return PointCloud(points, ids, times)
