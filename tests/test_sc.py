import math

import numpy as np
import pytest

from hybridskin.errors import CalibrationError
from hybridskin.sc import (TABLE_COLUMNS, ElectrodeModel, MeasurementSpec,
                           calibrate_interference, contact_capacitance, expected_counts,
                           fit_snr_table, measure_counts, schedule_streams,
                           simulate_cell_counts)
from hybridskin.tof import ToFSpec, frame_times
from references import capacitance_scalar, expected_counts_scalar, measure_counts_scalar


def covered_electrode(**kw):
    defaults = dict(c0=10e-12, k=1e-13, d0=0.01, t_cov=0.006, delta_max=0.004)
    defaults.update(kw)
    return ElectrodeModel(**defaults)


# ---------------------------------------------------------------------------
# capacitance model
# ---------------------------------------------------------------------------

def test_no_object_gives_baseline():
    m = covered_electrode()
    assert contact_capacitance(m, [np.inf]).tolist() == [m.c0]


def test_far_object_approaches_baseline():
    m = covered_electrode()
    [far] = contact_capacitance(m, [1000.0 * m.d0])
    assert far - m.c0 < 1e-3 * m.k / m.d0
    assert far > m.c0  # still strictly above


def test_capacitance_strictly_decreases_with_distance():
    m = covered_electrode()
    ds = np.linspace(m.t_cov - m.delta_max, 0.5, 200)  # down to the full compression
    assert np.all(np.diff(contact_capacitance(m, ds)) < 0.0)


def test_covering_floor_limits_approach():
    m = covered_electrode()
    # objects closer than the fully compressed covering read as that far away
    floor = m.t_cov - m.delta_max
    c = contact_capacitance(m, [0.0, floor / 2, floor])
    assert c[0] == c[1] == c[2]


def test_squeeze_raises_capacitance():
    m = covered_electrode()
    rest, squeezed = contact_capacitance(m, [m.t_cov, 0.0])
    assert squeezed > rest


def test_covering_attenuates_contact_signal():
    # Same electrode with and without the covering: the covering keeps the
    # touching object further away, at rest and squeezed, so the contact
    # delta shrinks.
    covered = covered_electrode()
    bare = covered_electrode(t_cov=0.0, delta_max=0.0)
    delta_covered = contact_capacitance(covered, [covered.t_cov, 0.0]) - covered.c0
    [delta_bare] = contact_capacitance(bare, [0.0]) - bare.c0
    assert 0.0 < delta_covered[0] < delta_covered[1] < delta_bare


def test_compression_bounds_enforced():
    with pytest.raises(ValueError):
        covered_electrode(delta_max=0.006)  # not strictly below t_cov
    for t_cov in (0.0, 0.006):
        for delta_max in (-0.001, -1e-300, float("nan")):
            with pytest.raises(ValueError):
                covered_electrode(t_cov=t_cov, delta_max=delta_max)
    with pytest.raises(ValueError):
        ElectrodeModel(t_cov=0.0, delta_max=0.001)
    bare = ElectrodeModel(t_cov=0.0, delta_max=0.0)
    assert contact_capacitance(bare, [0.0]).tolist() == [bare.c0 + bare.k / bare.d0]


# ---------------------------------------------------------------------------
# count measurement
# ---------------------------------------------------------------------------

def test_default_threshold_gives_exact_rc_product():
    # With Vth/Vdd = 1 - 1/e the log factor is exactly 1: N = f*R*C.
    spec = MeasurementSpec()
    assert expected_counts([10e-12], spec).tolist() == [1600]


def test_literal_0p632_threshold_matches_closed_form():
    spec = MeasurementSpec(threshold_ratio=0.632)
    n = 160e6 * 1e6 * 10e-12 * math.log(1.0 / (1.0 - 0.632))
    assert expected_counts([10e-12], spec).tolist() == [round(n)] == [1599]


def test_counts_double_with_capacitance():
    spec = MeasurementSpec(count_noise=0.0, tof_interference=0.0)
    rng = np.random.default_rng(0)
    n1, n2 = measure_counts([10e-12, 20e-12], spec, False, rng)
    assert n2 == 2 * n1


def test_noise_free_counts_increase_with_capacitance():
    spec = MeasurementSpec(count_noise=0.0, tof_interference=0.0)
    rng = np.random.default_rng(0)
    cs = np.linspace(5e-12, 50e-12, 50)
    assert np.all(np.diff(measure_counts(cs, spec, False, rng)) > 0)


def test_tof_active_inflates_variance_in_quadrature():
    spec = MeasurementSpec(count_noise=10.0, tof_interference=26.0)
    rng = np.random.default_rng(42)
    quiet = measure_counts(np.full(10_000, 10e-12), spec, False, rng)
    noisy = measure_counts(np.full(10_000, 10e-12), spec, True, rng)
    assert quiet.std() ** 2 == pytest.approx(10.0 ** 2, rel=0.10)
    assert noisy.std() ** 2 == pytest.approx(10.0 ** 2 + 26.0 ** 2, rel=0.10)


def test_measure_counts_deterministic_and_nonnegative():
    spec = MeasurementSpec(count_noise=1e6)  # absurd noise to hit the clamp
    a = measure_counts(np.full(100, 10e-12), spec, True, np.random.default_rng(1))
    b = measure_counts(np.full(100, 10e-12), spec, True, np.random.default_rng(1))
    assert np.array_equal(a, b) and (a >= 0).all() and (a == 0).any()


def test_measure_counts_draws_as_one_scalar_normal():
    # One count is a size-1 batch draw; it consumes the rng as a scalar
    # normal draw does, so logged counts do not depend on which path ran.
    quiet = MeasurementSpec(count_noise=5.0, tof_interference=11.0)
    wild = MeasurementSpec(count_noise=1000.0)  # reaches the clamp at 0
    rng, twin = np.random.default_rng(11), np.random.default_rng(11)
    for k in range(1000):
        spec, tof_active = (quiet, wild)[k % 2], k % 3 == 0
        n = expected_counts_scalar(10e-12, spec)
        expected = max(int(round(n + twin.normal(0.0, spec.sigma(tof_active)))), 0)
        assert measure_counts([10e-12], spec, tof_active, rng).tolist() == [expected]
    assert rng.random() == twin.random()


def test_scalar_and_array_paths_share_statistics():
    spec = MeasurementSpec(count_noise=7.0, tof_interference=0.0)
    scalars = np.array([measure_counts_scalar(10e-12, spec, False,
                                              np.random.default_rng([3, i]))
                        for i in range(4000)])
    batch = measure_counts(np.full(4000, 10e-12), spec, False,
                           np.random.default_rng(9))
    assert scalars.mean() == pytest.approx(batch.mean(), abs=1.0)
    assert scalars.std() == pytest.approx(batch.std(), rel=0.1)


@pytest.mark.parametrize("spec, tof_active", [
    (MeasurementSpec(count_noise=5.0, tof_interference=11.0), False),
    (MeasurementSpec(count_noise=5.0, tof_interference=11.0), True),
    (MeasurementSpec(count_noise=1000.0), True),  # reaches the clamp at 0
    (MeasurementSpec(count_noise=0.0, tof_interference=0.0), True),
], ids=["tof_idle", "tof_active", "clamped", "sigma_0"])
def test_one_size_n_draw_equals_n_size_one_draws(spec, tof_active):
    c = np.random.default_rng(4).uniform(5e-12, 30e-12, size=5000)
    rng, twin = np.random.default_rng(12), np.random.default_rng(12)
    batch = measure_counts(c, spec, tof_active, rng)
    assert batch.dtype == np.int64 and batch.shape == c.shape
    assert batch.tolist() == [measure_counts_scalar(ck, spec, tof_active, twin) for ck in c]
    assert rng.random() == twin.random()
    assert measure_counts(c[:0], spec, tof_active, rng).shape == (0,)


def test_contact_capacitance_matches_the_compressed_electrode_bit_for_bit():
    electrode = covered_electrode()
    d = np.concatenate([[0.0, 0.002, 0.006, electrode.t_cov, np.inf],
                        np.random.default_rng(5).uniform(0.0, 0.05, size=2000)])
    got = contact_capacitance(electrode, d)
    for dk, ck in zip(d, got):
        delta = float(np.clip(electrode.t_cov - dk, 0.0, electrode.delta_max))
        assert ck == capacitance_scalar(electrode, dk, delta)
    assert got[4] == electrode.c0  # inf: no conductive object
    with pytest.raises(ValueError):
        contact_capacitance(electrode, np.array([0.1, -1e-9]))


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


def test_inverted_snrs_always_raise():
    with pytest.raises(CalibrationError):
        calibrate_interference(120.0, 50.0, 600.0)
    with pytest.raises(CalibrationError):
        calibrate_interference(50.0, 120.0, 0.0)


def test_calibration_round_trips_through_measurement_statistics():
    cal = calibrate_interference(50.0, 120.0, 600.0)
    spec = MeasurementSpec(count_noise=cal.sigma_base,
                           tof_interference=cal.sigma_tof)
    base = expected_counts_scalar(10e-12, spec)
    delta = 600.0
    active_c = (base + delta) / spec.counts_per_farad
    rng = np.random.default_rng(0)
    n = 20_000
    for tof_active, target in ((False, 120.0), (True, 50.0)):
        inactive = measure_counts(np.full(n, 10e-12), spec, tof_active, rng)
        active = measure_counts(np.full(n, active_c), spec, tof_active, rng)
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
    assert 0.0 < model.electrode_covered.delta_max < model.electrode_covered.t_cov
    # expected counts actually realize the deltas through the electrode law
    spec = model.measurement
    for col in TABLE_COLUMNS:
        electrode, distance = model.contact(col)
        idle, active = expected_counts(contact_capacitance(electrode, [np.inf, distance]), spec)
        assert idle == expected_counts_scalar(model.electrode_covered.c0, spec)
        assert active - idle == pytest.approx(d[col], abs=1.0)


@pytest.mark.parametrize("calibration_column", ["no_covering", "covering_rest"])
def test_table_cells_are_the_scalar_law_with_explicit_compression(calibration_column):
    # Each cell is a contact distance on the law simulate uses; it gives the
    # bits of the scalar law with the cell's compression written out.
    model = fit_snr_table(calibration_column=calibration_column)
    covered = model.electrode_covered
    compression = {"no_covering": (model.electrode_bare, 0.0),
                   "covering_rest": (covered, 0.0),
                   "covering_squeeze": (covered, covered.delta_max)}
    for column, (electrode, delta) in compression.items():
        got, distance = model.contact(column)
        assert got == electrode
        expected = [capacitance_scalar(electrode, None, delta),
                    capacitance_scalar(electrode, 0.0, delta)]
        assert contact_capacitance(electrode, [np.inf, distance]).tolist() == expected
        for tof_active in (False, True):
            rng, twin = np.random.default_rng(8), np.random.default_rng(8)
            inactive, active = simulate_cell_counts(model, column, tof_active, 300, rng)
            assert inactive.tolist() == measure_counts(
                np.full(300, expected[0]), model.measurement, tof_active, twin).tolist()
            assert active.tolist() == measure_counts(
                np.full(300, expected[1]), model.measurement, tof_active, twin).tolist()
    with pytest.raises(KeyError):
        model.contact("covering_half")


def test_simulated_cells_hit_expected_snr():
    model = fit_snr_table()
    rng = np.random.default_rng(123)
    inactive, active = simulate_cell_counts(model, "covering_rest", True, 4000, rng)
    got = abs(inactive.mean() - active.mean()) / inactive.std(ddof=1)
    assert got == pytest.approx(model.expected_snr("covering_rest", True), rel=0.06)


def test_fit_rejects_missing_column():
    with pytest.raises(CalibrationError):
        fit_snr_table(table={"no_covering": (120, 50)})


def test_fit_rejects_an_unknown_calibration_column():
    with pytest.raises(ValueError, match="calibration column 'bogus' is not one of "
                                         "no_covering, covering_rest, covering_squeeze"):
        fit_snr_table(calibration_column="bogus")
