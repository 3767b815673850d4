import math

import numpy as np
import pytest

from calcheck.errors import DataError
from calcheck.hyptest import ONE_SIDED, TWO_SIDED, HypothesisSpec, ks_test
from calcheck.metric import LevelGrid, coverage_counts, fold, halfplane_coverage, pit
from calcheck.records import MvGaussianBatch
from calcheck.seqtest import EValueConfig
from calcheck.sim import (
    DRIFT_PER_STEP,
    RobotSimConfig,
    WeatherSimConfig,
    drift_sweep,
    run_robot_sim,
    run_weather_oracle,
    run_weather_sim,
)


# ---------------------------------------------------------------------------
# weather
# ---------------------------------------------------------------------------

def test_weather_defaults_emit_365_records():
    recs = run_weather_sim(WeatherSimConfig(seed=0))
    assert len(recs) == 365
    assert recs.t[0] == 30


def test_weather_deterministic_given_seed():
    a = run_weather_sim(WeatherSimConfig(seed=42))
    b = run_weather_sim(WeatherSimConfig(seed=42))
    assert np.array_equal(a.mu, b.mu) and np.array_equal(a.sigma, b.sigma)
    assert np.array_equal(a.y, b.y)
    c = run_weather_sim(WeatherSimConfig(seed=43))
    assert np.any(a.y != c.y)


def test_weather_targets_plausible_magnitudes():
    recs = run_weather_sim(WeatherSimConfig(seed=7))
    assert abs(recs.mu.mean() - 16.9) < 1.5
    assert abs(recs.sigma.mean() - 3.2) < 0.6


def test_weather_degenerate_window_errors():
    cfg = WeatherSimConfig(seed=0, seasonal_amplitude=0.0, noise_sd=1e-300)
    with pytest.raises(DataError):
        run_weather_sim(cfg)


def test_weather_config_validation():
    with pytest.raises(ValueError):
        WeatherSimConfig(window=1)
    with pytest.raises(ValueError):
        WeatherSimConfig(n_days=30, window=30)
    with pytest.raises(ValueError):
        WeatherSimConfig(noise_sd=0.0)


def test_weather_zero_injection_passes_safety_check():
    # one-sided folded KS with the 0.02 engineering tolerance
    spec = HypothesisSpec(ONE_SIDED, 0.02)
    passes = 0
    for seed in range(100):
        recs = run_weather_sim(WeatherSimConfig(seed=seed))
        passes += not ks_test(fold(pit(recs)), spec, 0.05).rejected
    slack = 3.0 * math.sqrt(0.05 * 0.95 / 100)
    assert passes / 100 >= 1.0 - 0.05 - slack


def test_weather_oracle_is_calibrated():
    spec = HypothesisSpec(ONE_SIDED, 0.0)
    passes = 0
    for seed in range(40):
        recs = run_weather_oracle(WeatherSimConfig(seed=seed))
        passes += not ks_test(fold(pit(recs)), spec, 0.05).rejected
    assert passes >= 34  # ~alpha rejection rate on exactly calibrated records


def test_weather_bias_signature_with_tolerance():
    # location bias with exact dispersion: the unfolded two-sided test sees
    # it, the folded one-sided test with the 0.02 tolerance absorbs it in
    # the majority of seeds
    both = 0
    for seed in range(100):
        cfg = WeatherSimConfig(seed=seed, injected_mean_bias=0.5 * 3.1)
        recs = run_weather_oracle(cfg)
        s = pit(recs)
        rej_unfolded = ks_test(s, HypothesisSpec(TWO_SIDED, 0.0), 0.05).rejected
        acc_folded = not ks_test(fold(s), HypothesisSpec(ONE_SIDED, 0.02), 0.05).rejected
        both += rej_unfolded and acc_folded
    assert both > 50


def test_weather_sd_inflation_is_detectable_but_not_reliably():
    # the two-sided KS has real but modest power against a 10% dispersion
    # error at N=365 (measured ~16%, far above the ~5% size but nowhere
    # near certain rejection)
    rej = 0
    for seed in range(100):
        cfg = WeatherSimConfig(seed=seed, injected_sd_scale=1.10)
        recs = run_weather_oracle(cfg)
        rej += ks_test(pit(recs), HypothesisSpec(TWO_SIDED, 0.0), 0.05).rejected
    assert rej / 100 > 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 100)


# ---------------------------------------------------------------------------
# robot
# ---------------------------------------------------------------------------

def test_robot_defaults_shapes():
    recs = run_robot_sim(RobotSimConfig(seed=0, n_steps=50))
    assert len(recs) == 50
    assert recs.w[0].shape == (500,)
    assert recs.pts[0].shape == (500, 2)
    assert recs.y.shape == (50, 2)


def test_robot_deterministic_given_seed():
    a = run_robot_sim(RobotSimConfig(seed=9, n_steps=40))
    b = run_robot_sim(RobotSimConfig(seed=9, n_steps=40))
    assert np.array_equal(a.y, b.y)
    for pa, pb in zip(a.pts, b.pts, strict=True):
        assert np.array_equal(pa, pb)
    for wa, wb in zip(a.w, b.w, strict=True):
        assert np.array_equal(wa, wb)


def test_robot_config_validation():
    with pytest.raises(ValueError):
        RobotSimConfig(n_particles=1)
    with pytest.raises(ValueError):
        RobotSimConfig(drift_multiplier=-1.0)
    with pytest.raises(ValueError):
        RobotSimConfig(beacon_positions=((0, 0), (1, 1), (2, 2)))  # collinear
    with pytest.raises(ValueError):
        RobotSimConfig(beacon_positions=((0, 0), (1, 1)))


def test_robot_depletion_raises_with_step_number():
    with pytest.raises(DataError, match="step 1"):
        run_robot_sim(RobotSimConfig(seed=0, range_noise_sd=1e-300, n_steps=5))


def test_robot_zero_drift_halfplane_coverage_at_half():
    recs = run_robot_sim(RobotSimConfig(seed=3, drift_multiplier=0.0))
    curve = halfplane_coverage(recs, LevelGrid([0.5]), np.random.default_rng(11))
    se = math.sqrt(0.25 / len(recs))
    assert abs(curve.fractions[0] - 0.5) <= 3.0 * se


def test_robot_baseline_drift_filter_lags_truth():
    direction = DRIFT_PER_STEP / np.linalg.norm(DRIFT_PER_STEP)
    errs = []
    for seed in range(4):
        recs = run_robot_sim(RobotSimConfig(seed=seed))
        errs.append(
            np.mean(
                [
                    (y - w @ pts) @ direction
                    for w, pts, y in zip(recs.w, recs.pts, recs.y)
                ]
            )
        )
    assert np.mean(errs) > 0.0


def test_robot_gaussian_swap_tracks_halfplane_curve():
    grid = LevelGrid.default()
    recs = run_robot_sim(RobotSimConfig(seed=3, drift_multiplier=0.0))
    hp = halfplane_coverage(recs, grid, np.random.default_rng([3, 2]))
    # each cloud's weighted mean and covariance (weights sum to 1)
    mu = np.array([w @ pts for w, pts in zip(recs.w, recs.pts)])
    cov = np.array([(w[:, None] * (pts - m)).T @ (pts - m)
                    for w, pts, m in zip(recs.w, recs.pts, mu)])
    mm = MvGaussianBatch(mu, (cov + cov.transpose(0, 2, 1)) / 2.0, recs.y)
    mv = coverage_counts(mm, grid)
    assert np.max(np.abs(mv.fractions - hp.fractions)) <= 0.05


# ---------------------------------------------------------------------------
# drift sweep
# ---------------------------------------------------------------------------

MONITOR = EValueConfig(level=0.9, p_alt=0.8, alpha=0.05)


def test_drift_sweep_empty_multipliers():
    rep = drift_sweep(RobotSimConfig(seed=0, n_steps=10), (), 2, MONITOR)
    assert rep.entries == ()


def test_drift_sweep_zero_drift_rarely_alarms():
    rep = drift_sweep(RobotSimConfig(seed=0), (0.0,), 20, MONITOR)
    assert rep.entries[0].alarm_count <= 1  # >= 95% of these seeds stay quiet


def test_drift_sweep_entry_bookkeeping():
    base = RobotSimConfig(seed=0, n_steps=60)
    rep = drift_sweep(base, (0.5, 2.0), 3, MONITOR)
    assert [e.multiplier for e in rep.entries] == [0.5, 2.0]
    for entry in rep.entries:
        assert entry.n_seeds == 3
        assert entry.envelope.shape == (60, 3)
        assert np.all(entry.envelope[:, 0] <= entry.envelope[:, 1])
        assert np.all(entry.envelope[:, 1] <= entry.envelope[:, 2])
