"""Self-capacitance electrode model and RC charge-count measurement.

Capacitance follows an inverse-distance law with a standoff regularizer:
C = C0 + k / (d_eff + d0) for conductive objects, C0 otherwise. The
compliant covering imposes a floor on the effective distance: an object
can approach the electrode no closer than the covering's compressed
thickness, d_eff = max(d, t_cov - delta). An object nearer than t_cov
compresses the covering by delta = t_cov - d, at most delta_max.

Counts model an RC charge timer: N = f_clk * R * C * ln(1/(1 - Vth/Vdd)),
plus Gaussian count noise whose variance grows when the neighboring ToF
imager is active.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CalibrationError

# Threshold of one RC time constant makes N = f_clk * R * C exactly.
DEFAULT_THRESHOLD_RATIO = 1.0 - 1.0 / math.e

TABLE_COLUMNS = ("no_covering", "covering_rest", "covering_squeeze")

# Mean contact SNR (no_tof, with_tof) per configuration from the reference
# bench experiment; used as default calibration targets.
REFERENCE_SNR_TABLE = {
    "no_covering": (120.0, 50.0),
    "covering_rest": (37.0, 13.0),
    "covering_squeeze": (45.0, 22.0),
}


@dataclass(frozen=True)
class ElectrodeModel:
    c0: float = 10e-12        # F
    k: float = 1e-13          # F*m
    d0: float = 0.01          # m
    t_cov: float = 0.0        # m; 0 = no covering attached
    delta_max: float = 0.0    # m, full covering compression

    def __post_init__(self):
        if self.c0 <= 0.0 or self.d0 <= 0.0 or self.k < 0.0:
            raise ValueError("need c0 > 0, d0 > 0, k >= 0")
        if self.t_cov < 0.0:
            raise ValueError("covering thickness must be >= 0")
        if not self.delta_max >= 0.0:
            raise ValueError(f"full compression {self.delta_max} must be >= 0")
        if self.t_cov > 0.0:
            if self.delta_max >= self.t_cov:
                raise ValueError("delta_max must stay below the covering thickness")
        elif self.delta_max != 0.0:
            raise ValueError("compression requires a covering (t_cov > 0)")


@dataclass(frozen=True)
class MeasurementSpec:
    resistance: float = 1e6          # ohms
    clock_hz: float = 160e6
    threshold_ratio: float = DEFAULT_THRESHOLD_RATIO  # Vth/Vdd
    rate: float = 42.0               # Hz
    rate_jitter: float = 2.0         # Hz
    count_noise: float = 5.0         # counts, sigma with ToF idle
    tof_interference: float = math.sqrt(119.0)  # extra counts-sigma with ToF active

    def __post_init__(self):
        if self.resistance <= 0.0 or self.clock_hz <= 0.0:
            raise ValueError("resistance and clock must be > 0")
        if not 0.0 < self.threshold_ratio < 1.0:
            raise ValueError("threshold ratio must be in (0, 1)")
        if self.rate <= 0.0 or self.rate_jitter < 0.0 or self.rate_jitter >= self.rate:
            raise ValueError("need rate > 0 and 0 <= jitter < rate")
        if self.count_noise < 0.0 or self.tof_interference < 0.0:
            raise ValueError("noise sigmas must be >= 0")

    @property
    def counts_per_farad(self):
        return self.clock_hz * self.resistance * math.log(1.0 / (1.0 - self.threshold_ratio))

    def sigma(self, tof_active: bool) -> float:
        if tof_active:
            return math.hypot(self.count_noise, self.tof_interference)
        return self.count_noise


def contact_capacitance(model: ElectrodeModel, object_distance):
    """Capacitance with the nearest conductive object at each of an array of distances.

    An object nearer than the covering's thickness compresses it, by at
    most delta_max; inf (no conductive object) leaves the baseline C0.
    """
    d = np.asarray(object_distance, dtype=np.float64)
    if not (d >= 0.0).all():
        raise ValueError("object distance must be >= 0")
    delta = np.clip(model.t_cov - d, 0.0, model.delta_max)
    return model.c0 + model.k / (np.maximum(d, model.t_cov - delta) + model.d0)


def expected_counts(c, spec: MeasurementSpec):
    """Noise-free RC charge counts for an array of capacitances: int64, c's shape."""
    c = np.asarray(c, dtype=np.float64)
    if not (c > 0.0).all():
        raise ValueError("capacitance must be > 0")
    return np.rint(c * spec.counts_per_farad).astype(np.int64)


def measure_counts(c, spec: MeasurementSpec, tof_active: bool,
                   rng: np.random.Generator):
    """Count measurements for an array of capacitances c: ideal count +
    Gaussian noise, rounded and clamped at 0; int64, c's shape.

    The noise is one normal draw of c's shape, which consumes the rng as
    that many scalar draws in order do; sigma = 0 draws nothing.
    """
    counts = expected_counts(c, spec).astype(np.float64)
    sigma = spec.sigma(tof_active)
    if sigma != 0.0:
        counts = np.rint(counts + rng.normal(0.0, sigma, size=counts.shape))
    return np.maximum(counts, 0).astype(np.int64)


def schedule_streams(duration: float, sc_spec: MeasurementSpec,
                     rng: np.random.Generator):
    """SC sample timestamps over [0, duration).

    Gaps are drawn uniformly so the instantaneous rate stays within
    rate +/- jitter. The ToF stream is strictly periodic (tof.frame_times);
    the two share no clock alignment beyond both starting at t = 0.
    """
    if duration <= 0.0:
        return np.zeros(0)
    gap_lo = 1.0 / (sc_spec.rate + sc_spec.rate_jitter)
    gap_hi = 1.0 / (sc_spec.rate - sc_spec.rate_jitter)
    sc_times = [0.0]
    while True:
        nxt = sc_times[-1] + rng.uniform(gap_lo, gap_hi)
        if nxt >= duration:
            break
        sc_times.append(nxt)
    return np.asarray(sc_times)


@dataclass(frozen=True)
class InterferenceCalibration:
    sigma_base: float      # counts, ToF idle
    sigma_tof: float       # extra counts-sigma injected by an active ToF
    signal_delta: float    # counts, contact signal used for the fit


def calibrate_interference(snr_with_tof: float, snr_without_tof: float,
                           signal_delta: float) -> InterferenceCalibration:
    """Solve the ToF-injected count noise from one SNR pair.

    sigma_no = delta/snr_without, sigma_with = delta/snr_with, and the
    interference adds in quadrature: sigma_tof = sqrt(sigma_with^2 - sigma_no^2).
    Equal SNRs leave no interference to solve for and raise CalibrationError.
    """
    if signal_delta <= 0.0:
        raise CalibrationError("signal delta must be > 0")
    if snr_with_tof <= 0.0 or snr_without_tof <= 0.0:
        raise CalibrationError("SNR values must be > 0")
    if snr_with_tof > snr_without_tof:
        raise CalibrationError(
            f"snr_with_tof ({snr_with_tof}) exceeds snr_without_tof "
            f"({snr_without_tof}): no positive variance solution")
    if snr_with_tof == snr_without_tof:
        raise CalibrationError("equal SNRs: interference variance is zero")
    sigma_no = signal_delta / snr_without_tof
    sigma_with = signal_delta / snr_with_tof
    sigma_tof = math.sqrt(sigma_with ** 2 - sigma_no ** 2)
    return InterferenceCalibration(sigma_no, sigma_tof, signal_delta)


@dataclass(frozen=True)
class TableModel:
    """Calibrated bench model reproducing a 2x3 SNR table in simulation."""

    calibration: InterferenceCalibration
    measurement: MeasurementSpec
    electrode_covered: ElectrodeModel   # covering attached; delta_max is the squeeze
    electrode_bare: ElectrodeModel      # covering removed
    target_deltas: dict                 # column -> counts

    def contact(self, column: str):
        """(electrode, contact distance) of a column's touch: the bare
        electrode at d = 0, the covering at rest at d = t_cov (touching, not
        compressed), and the covering squeezed at d = 0, which
        contact_capacitance clips to full compression."""
        if column == "no_covering":
            return self.electrode_bare, 0.0
        if column == "covering_rest":
            return self.electrode_covered, self.electrode_covered.t_cov
        if column == "covering_squeeze":
            return self.electrode_covered, 0.0
        raise KeyError(column)

    def expected_snr(self, column: str, tof_active: bool) -> float:
        return self.target_deltas[column] / self.measurement.sigma(tof_active)


def fit_snr_table(table=None, calibration_column: str = "no_covering",
                  signal_delta: float = 600.0, measurement: MeasurementSpec = None,
                  d0: float = 0.01, c0: float = 10e-12) -> TableModel:
    """Fit electrode and noise parameters that reproduce a 2x3 SNR table.

    The noise sigmas come from the calibration column's (no_tof, with_tof)
    pair via calibrate_interference. The remaining columns cannot all be
    matched exactly with a single noise model, so their contact deltas are
    chosen as the log-least-squares compromise between the two rows, which
    keeps every cell within a few percent for tables like the reference one.
    Covering thickness and squeeze compression then follow from the
    inverse-distance capacitance law.
    """
    table = dict(REFERENCE_SNR_TABLE if table is None else table)
    for col in TABLE_COLUMNS:
        if col not in table:
            raise CalibrationError(f"SNR table missing column {col!r}")
    if calibration_column not in TABLE_COLUMNS:
        raise ValueError(f"calibration column {calibration_column!r} is not one of "
                         f"{', '.join(TABLE_COLUMNS)}")
    if measurement is None:
        measurement = MeasurementSpec()

    snr_no, snr_with = (float(x) for x in table[calibration_column])
    cal = calibrate_interference(snr_with, snr_no, signal_delta)
    rho = snr_no / snr_with  # sigma_with / sigma_base

    target = {}
    for col in TABLE_COLUMNS:
        a, b = (float(x) for x in table[col])
        if col == calibration_column:
            target[col] = cal.sigma_base * a
        else:
            target[col] = cal.sigma_base * math.sqrt(a * b * rho)

    gain = measurement.counts_per_farad
    delta_touch = target["no_covering"]
    k = delta_touch * d0 / gain  # touching the bare electrode: d_eff -> 0

    def standoff_for(delta_counts):
        # delta_counts = gain * k / (d_eff + d0)  =>  d_eff
        d_eff = gain * k / delta_counts - d0
        if d_eff < 0.0:
            raise CalibrationError(
                f"target delta {delta_counts:.1f} counts exceeds the bare-contact "
                f"delta {delta_touch:.1f}; table is infeasible for this model")
        return d_eff

    t_cov = standoff_for(target["covering_rest"])
    squeeze_floor = standoff_for(target["covering_squeeze"])
    if squeeze_floor > t_cov:
        raise CalibrationError("squeeze delta below rest delta: table infeasible")
    delta_squeeze = t_cov - squeeze_floor

    measurement = replace(measurement, count_noise=cal.sigma_base,
                          tof_interference=cal.sigma_tof)
    covered = ElectrodeModel(c0=c0, k=k, d0=d0, t_cov=t_cov, delta_max=delta_squeeze)
    bare = ElectrodeModel(c0=c0, k=k, d0=d0, t_cov=0.0)
    return TableModel(calibration=cal, measurement=measurement,
                      electrode_covered=covered, electrode_bare=bare,
                      target_deltas=target)


def simulate_cell_counts(model: TableModel, column: str, tof_active: bool,
                         n_samples: int, rng: np.random.Generator):
    """(inactive, active) count arrays for one table cell."""
    electrode, d = model.contact(column)
    c_idle, c_active = contact_capacitance(electrode, [np.inf, d])
    inactive = measure_counts(np.full(n_samples, c_idle), model.measurement, tof_active, rng)
    active = measure_counts(np.full(n_samples, c_active), model.measurement, tof_active, rng)
    return inactive, active
