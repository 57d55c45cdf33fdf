import math

import numpy as np
import pytest

from hybridskin.errors import CalibrationError
from hybridskin.sc import (ElectrodeModel, MeasurementSpec, ScSample,
                           calibrate_interference, capacitance, expected_counts,
                           fit_snr_table, measure_counts, measure_counts_array,
                           schedule_streams, simulate_cell_counts)
from hybridskin.tof import ToFSpec, frame_times


def covered_electrode(**kw):
    defaults = dict(c0=10e-12, k=1e-13, d0=0.01, t_cov=0.006, delta_max=0.004)
    defaults.update(kw)
    return ElectrodeModel(**defaults)


# ---------------------------------------------------------------------------
# capacitance model
# ---------------------------------------------------------------------------

def test_no_object_gives_baseline():
    m = covered_electrode()
    assert capacitance(m, None) == m.c0
    assert capacitance(m, 0.5, conductive=False) == m.c0


def test_far_object_approaches_baseline():
    m = covered_electrode()
    far = capacitance(m, 1000.0 * m.d0)
    assert far - m.c0 < 1e-3 * m.k / m.d0
    assert far > m.c0  # still strictly above


def test_capacitance_strictly_decreases_with_distance():
    m = covered_electrode()
    ds = np.linspace(m.t_cov, 0.5, 200)  # beyond the covering floor
    cs = [capacitance(m, d) for d in ds]
    assert np.all(np.diff(cs) < 0.0)


def test_covering_floor_limits_approach():
    m = covered_electrode()
    # objects closer than the (uncompressed) covering read as t_cov away
    assert capacitance(m, 0.0) == capacitance(m, m.t_cov)
    assert capacitance(m, m.t_cov / 2) == capacitance(m, m.t_cov)


def test_squeeze_raises_capacitance():
    rest = covered_electrode(delta=0.0)
    squeezed = covered_electrode(delta=0.004)
    assert capacitance(squeezed, 0.0) > capacitance(rest, 0.0)


def test_covering_attenuates_contact_signal():
    # Same electrode with and without the covering: the covering keeps the
    # touching object further away, so the contact delta shrinks.
    covered = covered_electrode()
    bare = covered_electrode(t_cov=0.0, delta_max=0.0)
    delta_covered = capacitance(covered, 0.0) - covered.c0
    delta_bare = capacitance(bare, 0.0) - bare.c0
    assert 0.0 < delta_covered < delta_bare


def test_compression_bounds_enforced():
    with pytest.raises(ValueError):
        covered_electrode(delta=0.005)  # above delta_max
    with pytest.raises(ValueError):
        covered_electrode(delta_max=0.006)  # not strictly below t_cov
    with pytest.raises(ValueError):
        ElectrodeModel(t_cov=0.0, delta_max=0.001)
    bare = ElectrodeModel(t_cov=0.0, delta_max=0.0)
    assert capacitance(bare, 0.0) == bare.c0 + bare.k / bare.d0


# ---------------------------------------------------------------------------
# count measurement
# ---------------------------------------------------------------------------

def test_default_threshold_gives_exact_rc_product():
    # With Vth/Vdd = 1 - 1/e the log factor is exactly 1: N = f*R*C.
    spec = MeasurementSpec()
    assert expected_counts(10e-12, spec) == 1600


def test_literal_0p632_threshold_matches_closed_form():
    spec = MeasurementSpec(threshold_ratio=0.632)
    n = 160e6 * 1e6 * 10e-12 * math.log(1.0 / (1.0 - 0.632))
    assert expected_counts(10e-12, spec) == round(n) == 1599


def test_counts_double_with_capacitance():
    spec = MeasurementSpec(count_noise=0.0, tof_interference=0.0)
    rng = np.random.default_rng(0)
    n1 = measure_counts(10e-12, spec, False, rng)
    n2 = measure_counts(20e-12, spec, False, rng)
    assert n2 == 2 * n1


def test_noise_free_counts_increase_with_capacitance():
    spec = MeasurementSpec(count_noise=0.0, tof_interference=0.0)
    rng = np.random.default_rng(0)
    cs = np.linspace(5e-12, 50e-12, 50)
    counts = [measure_counts(c, spec, False, rng) for c in cs]
    assert np.all(np.diff(counts) > 0)


def test_tof_active_inflates_variance_in_quadrature():
    spec = MeasurementSpec(count_noise=10.0, tof_interference=26.0)
    rng = np.random.default_rng(42)
    quiet = measure_counts_array(10e-12, spec, False, rng, 10_000)
    noisy = measure_counts_array(10e-12, spec, True, rng, 10_000)
    assert quiet.std() ** 2 == pytest.approx(10.0 ** 2, rel=0.10)
    assert noisy.std() ** 2 == pytest.approx(10.0 ** 2 + 26.0 ** 2, rel=0.10)


def test_measure_counts_deterministic_and_nonnegative():
    spec = MeasurementSpec(count_noise=1e6)  # absurd noise to hit the clamp
    a = measure_counts(10e-12, spec, True, np.random.default_rng(1))
    b = measure_counts(10e-12, spec, True, np.random.default_rng(1))
    assert a == b >= 0


def test_measure_counts_draws_as_one_scalar_normal():
    # One count is a size-1 batch draw; it consumes the rng as a scalar
    # normal draw does, so logged counts do not depend on which path ran.
    quiet = MeasurementSpec(count_noise=5.0, tof_interference=11.0)
    wild = MeasurementSpec(count_noise=1000.0)  # reaches the clamp at 0
    rng, twin = np.random.default_rng(11), np.random.default_rng(11)
    for k in range(1000):
        spec, tof_active = (quiet, wild)[k % 2], k % 3 == 0
        n = expected_counts(10e-12, spec)
        expected = max(int(round(n + twin.normal(0.0, spec.sigma(tof_active)))), 0)
        assert measure_counts(10e-12, spec, tof_active, rng) == expected
    assert rng.random() == twin.random()


def test_scalar_and_array_paths_share_statistics():
    spec = MeasurementSpec(count_noise=7.0, tof_interference=0.0)
    scalars = np.array([measure_counts(10e-12, spec, False,
                                       np.random.default_rng([3, i]))
                        for i in range(4000)])
    batch = measure_counts_array(10e-12, spec, False,
                                 np.random.default_rng(9), 4000)
    assert scalars.mean() == pytest.approx(batch.mean(), abs=1.0)
    assert scalars.std() == pytest.approx(batch.std(), rel=0.1)


def test_sc_sample_rejects_negative_counts():
    with pytest.raises(ValueError):
        ScSample(0, 0.0, -1)


# ---------------------------------------------------------------------------
# stream scheduling
# ---------------------------------------------------------------------------

def test_one_second_rates():
    spec = MeasurementSpec()
    sc_t = schedule_streams(1.0, spec, np.random.default_rng(0))
    tof_t = frame_times(1.0, ToFSpec(rate=12.0))
    assert 40 <= len(sc_t) <= 44
    assert len(tof_t) == 12
    assert np.allclose(np.diff(tof_t), 1.0 / 12.0)


def test_sc_gaps_stay_within_rate_band():
    spec = MeasurementSpec(rate=42.0, rate_jitter=2.0)
    sc_t = schedule_streams(30.0, spec, np.random.default_rng(4))
    rates = 1.0 / np.diff(sc_t)
    assert rates.min() >= 40.0 - 1e-9
    assert rates.max() <= 44.0 + 1e-9


def test_short_horizon_yields_single_samples():
    spec = MeasurementSpec()
    sc_t = schedule_streams(0.01, spec, np.random.default_rng(0))
    tof_t = frame_times(0.01, ToFSpec(rate=12.0))
    assert len(sc_t) == 1
    assert len(tof_t) == 1


def test_schedule_is_deterministic():
    spec = MeasurementSpec()
    a = schedule_streams(5.0, spec, np.random.default_rng(77))
    b = schedule_streams(5.0, spec, np.random.default_rng(77))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# interference calibration
# ---------------------------------------------------------------------------

def test_calibration_matches_arithmetic_oracle_covering_rest():
    cal = calibrate_interference(13.0, 37.0, 370.0)
    assert cal.sigma_base == pytest.approx(10.0, abs=1e-12)
    assert 370.0 / 13.0 == pytest.approx(28.46153846, abs=1e-6)
    assert cal.sigma_tof == pytest.approx(
        math.sqrt((370.0 / 13.0) ** 2 - 10.0 ** 2), abs=1e-12)
    assert cal.sigma_tof == pytest.approx(26.6469355, abs=1e-5)


def test_calibration_matches_arithmetic_oracle_no_covering():
    cal = calibrate_interference(50.0, 120.0, 600.0)
    assert cal.sigma_base == pytest.approx(5.0, abs=1e-12)
    assert cal.sigma_tof == pytest.approx(math.sqrt(12.0 ** 2 - 5.0 ** 2), abs=1e-12)
    assert cal.sigma_tof == pytest.approx(10.9087, abs=1e-4)


def test_equal_snrs_raise_in_strict_mode():
    with pytest.raises(CalibrationError):
        calibrate_interference(37.0, 37.0, 370.0)
    cal = calibrate_interference(37.0, 37.0, 370.0, strict=False)
    assert cal.sigma_tof == 0.0


def test_inverted_snrs_always_raise():
    with pytest.raises(CalibrationError):
        calibrate_interference(120.0, 50.0, 600.0)
    with pytest.raises(CalibrationError):
        calibrate_interference(50.0, 120.0, 0.0)


def test_calibration_round_trips_through_measurement_statistics():
    cal = calibrate_interference(50.0, 120.0, 600.0)
    spec = MeasurementSpec(count_noise=cal.sigma_base,
                           tof_interference=cal.sigma_tof)
    base = expected_counts(10e-12, spec)
    delta = 600.0
    active_c = (base + delta) / spec.counts_per_farad
    rng = np.random.default_rng(0)
    n = 20_000
    for tof_active, target in ((False, 120.0), (True, 50.0)):
        inactive = measure_counts_array(10e-12, spec, tof_active, rng, n)
        active = measure_counts_array(active_c, spec, tof_active, rng, n)
        got = abs(inactive.mean() - active.mean()) / inactive.std(ddof=1)
        assert got == pytest.approx(target, rel=0.05)


# ---------------------------------------------------------------------------
# table fit
# ---------------------------------------------------------------------------

def test_fit_reproduces_calibration_column_exactly():
    model = fit_snr_table()
    assert model.expected_snr("no_covering", False) == pytest.approx(120.0)
    assert model.expected_snr("no_covering", True) == pytest.approx(50.0)


def test_fit_keeps_all_cells_within_nine_percent():
    model = fit_snr_table()
    targets = {"no_covering": (120.0, 50.0), "covering_rest": (37.0, 13.0),
               "covering_squeeze": (45.0, 22.0)}
    for col, (no_tof, with_tof) in targets.items():
        assert model.expected_snr(col, False) == pytest.approx(no_tof, rel=0.09)
        assert model.expected_snr(col, True) == pytest.approx(with_tof, rel=0.09)


def test_fit_orders_deltas_like_the_physics():
    model = fit_snr_table()
    d = model.target_deltas
    assert d["no_covering"] > d["covering_squeeze"] > d["covering_rest"]
    assert 0.0 < model.delta_squeeze < model.electrode_covered.t_cov
    # expected counts actually realize the deltas through the electrode law
    spec = model.measurement
    idle = expected_counts(model.electrode_covered.c0, spec)
    for col in ("no_covering", "covering_rest", "covering_squeeze"):
        active = expected_counts(model.active_capacitance(col), spec)
        assert active - idle == pytest.approx(d[col], abs=1.0)


def test_simulated_cells_hit_expected_snr():
    model = fit_snr_table()
    rng = np.random.default_rng(123)
    inactive, active = simulate_cell_counts(model, "covering_rest", True, 4000, rng)
    got = abs(inactive.mean() - active.mean()) / inactive.std(ddof=1)
    assert got == pytest.approx(model.expected_snr("covering_rest", True), rel=0.06)


def test_fit_rejects_missing_column():
    with pytest.raises(CalibrationError):
        fit_snr_table(table={"no_covering": (120, 50)})
