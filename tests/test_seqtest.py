import math

import numpy as np
import pytest

from scipy.special import ndtr

from calcheck.errors import ConfigError
from calcheck.seqtest import (
    EValueConfig,
    MartingaleState,
    average_evalues,
    gaussian_interval,
    lr_evalue,
    monitor_step_gaussian,
    monitor_step_halfplane,
)


CFG = EValueConfig(level=0.9, p_alt=0.8, alpha=0.05)


# ---------------------------------------------------------------------------
# Gaussian centered intervals
# ---------------------------------------------------------------------------

def test_gaussian_interval_standard_normal_68():
    lo, hi = gaussian_interval(0.0, 1.0, 0.6827)
    assert lo == pytest.approx(-1.0, abs=5e-4)
    assert hi == pytest.approx(1.0, abs=5e-4)


def test_gaussian_interval_collapses_to_median():
    lo, hi = gaussian_interval(5.0, 2.0, 1e-12)
    assert lo == pytest.approx(5.0, abs=1e-5)
    assert hi == pytest.approx(5.0, abs=1e-5)


def test_gaussian_interval_mass_matches_level():
    for mu, sigma in ((0.0, 1.0), (1.0, 2.0), (-3.0, 0.1)):
        for level in (0.1, 0.5, 0.6827, 0.95):
            lo, hi = gaussian_interval(mu, sigma, level)
            mass = ndtr((hi - mu) / sigma) - ndtr((lo - mu) / sigma)
            assert mass == pytest.approx(level, abs=1e-12)
            assert (lo + hi) / 2.0 == pytest.approx(mu, abs=1e-12)


def test_gaussian_interval_rejects_bad_level_and_sigma():
    for level, sigma in ((0.0, 1.0), (1.0, 1.0), (0.5, 0.0), (0.5, -1.0)):
        with pytest.raises(ValueError):
            gaussian_interval(0.0, sigma, level)


def test_config_validation():
    with pytest.raises(ConfigError):
        EValueConfig(level=0.9, p_alt=0.9, alpha=0.05)  # p_alt must be < level
    with pytest.raises(ConfigError):
        EValueConfig(level=0.9, p_alt=0.0, alpha=0.05)
    with pytest.raises(ConfigError):
        EValueConfig(level=1.0, p_alt=0.5, alpha=0.05)


def test_lr_evalue_plain_arithmetic():
    assert lr_evalue(0, CFG) == pytest.approx(2.0, rel=1e-12)
    assert lr_evalue(1, CFG) == pytest.approx(0.8 / 0.9, rel=1e-12)
    near_null = EValueConfig(level=0.9, p_alt=0.9 - 1e-12, alpha=0.05)
    assert lr_evalue(0, near_null) == pytest.approx(1.0, abs=1e-9)
    assert lr_evalue(1, near_null) == pytest.approx(1.0, abs=1e-9)


def test_lr_evalue_null_mean_exactly_one():
    for lam in np.linspace(0.05, 0.95, 19):
        for p_alt in np.linspace(0.01, lam - 0.01, 10):
            if p_alt <= 0:
                continue
            cfg = EValueConfig(level=float(lam), p_alt=float(p_alt), alpha=0.05)
            mean = lam * lr_evalue(1, cfg) + (1 - lam) * lr_evalue(0, cfg)
            assert mean == pytest.approx(1.0, abs=1e-12)


def test_average_evalues():
    assert average_evalues([1.0, 1.0, 1.0]) == 1.0
    assert average_evalues([2.0, 0.0]) == 1.0
    with pytest.raises(ValueError):
        average_evalues([])
    with pytest.raises(ValueError):
        average_evalues([-0.1, 1.0])


def test_average_preserves_null_mean_monte_carlo():
    rng = np.random.default_rng(10)
    draws = 10_000
    k = 5
    # dependent e-values: same indicator stream scored at different p_alt
    configs = [EValueConfig(0.9, p, 0.05) for p in (0.5, 0.6, 0.7, 0.8, 0.85)]
    means = np.empty(draws)
    for i in range(draws):
        ind = rng.random() < 0.9
        means[i] = average_evalues([lr_evalue(int(ind), c) for c in configs])
    se = means.std(ddof=1) / math.sqrt(draws)
    assert means.mean() <= 1.0 + 3.0 * se


def test_gaussian_monitor_all_hits_never_alarms():
    state = MartingaleState()
    for t in range(200):
        state = monitor_step_gaussian(state, 0.0, 1.0, 0.0, CFG)
    assert not state.alarmed
    assert state.first_crossing is None
    assert state.e_value == pytest.approx((0.8 / 0.9) ** 200, rel=1e-9)


def test_gaussian_monitor_all_misses_crosses_at_five():
    state = MartingaleState()
    for t in range(1, 8):
        state = monitor_step_gaussian(state, 0.0, 1.0, 100.0, CFG)
        if t == 4:
            assert not state.alarmed  # 2^4 = 16 < 20
    assert state.alarmed
    assert state.first_crossing == 5  # 2^5 = 32 > 20
    assert state.e_value == pytest.approx(2.0**7, rel=1e-9)


def test_monitor_keeps_recording_after_alarm():
    state = MartingaleState()
    for _ in range(6):
        state = monitor_step_gaussian(state, 0.0, 1.0, 100.0, CFG)
    assert state.alarmed and state.first_crossing == 5
    later = monitor_step_gaussian(state, 0.0, 1.0, 0.0, CFG)
    assert later.alarmed and later.first_crossing == 5
    assert later.t == 7


def test_martingale_mean_stays_below_one():
    rng = np.random.default_rng(11)
    reps = 4000
    for horizon in (10, 100, 500):
        logs = np.zeros(reps)
        ks = rng.random((reps, horizon)) < 0.9
        a1 = math.log(0.8 / 0.9)
        a0 = math.log(2.0)
        logs = np.where(ks, a1, a0).sum(axis=1)
        es = np.exp(logs)
        se = es.std(ddof=1) / math.sqrt(reps)
        assert es.mean() <= 1.0 + 3.0 * se


def test_anytime_validity_light_monte_carlo():
    # reduced version of the acceptance check: calibrated Gaussian stream
    rng = np.random.default_rng(12)
    reps, horizon = 2000, 200
    alarms = 0
    log20 = math.log(1 / 0.05)
    a1 = math.log(0.8 / 0.9)
    a0 = math.log(2.0)
    for _ in range(reps):
        steps = np.where(rng.random(horizon) < 0.9, a1, a0)
        alarms += np.max(np.cumsum(steps)) > log20
    assert alarms / reps <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / reps)


def test_halfplane_monitor_tie_policy_two_particles():
    w, pts = np.array([0.5, 0.5]), np.array([[0.0, 0.0], [1.0, 1.0]])
    rng = np.random.default_rng(0)
    state = MartingaleState()
    for _ in range(50):
        state = monitor_step_halfplane(state, w, pts, [1.0, 1.0], CFG, rng)
    # outcome equals a particle: indicator is 1 for any direction at lambda=0.9
    assert state.e_value == pytest.approx((0.8 / 0.9) ** 50, rel=1e-9)


def test_halfplane_monitor_deterministic_given_seed():
    rng_cloud = np.random.default_rng(40)
    points = []
    ys = []
    for _ in range(30):
        pts = rng_cloud.normal(size=(64, 2))
        points.append(pts)
        ys.append(pts[rng_cloud.integers(0, 64)])

    def run():
        rng = np.random.default_rng(777)
        st = MartingaleState()
        trace = []
        for pts, y in zip(points, ys):
            st = monitor_step_halfplane(st, np.full(64, 1 / 64), pts, y, CFG, rng)
            trace.append(st.log_e)
        return st, trace

    s1, t1 = run()
    s2, t2 = run()
    assert t1 == t2
    assert s1 == s2


def test_halfplane_monitor_ville_light():
    rng = np.random.default_rng(13)
    reps, horizon, m = 300, 200, 64
    alarms = 0
    for _ in range(reps):
        pts = rng.normal(size=(m, 2))
        mon_rng = np.random.default_rng(rng.integers(2**63))
        st = MartingaleState()
        for _ in range(horizon):
            y = pts[rng.integers(0, m)]
            st = monitor_step_halfplane(st, np.full(m, 1 / m), pts, y, CFG, mon_rng)
        alarms += st.alarmed
    assert alarms / reps <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / reps)


def test_log_accumulation_stays_finite_at_huge_horizons():
    # per-step log increments are bounded for any valid config, so even
    # 1e9 steps cannot overflow the running log
    extreme = EValueConfig(level=1 - 1e-9, p_alt=0.5, alpha=0.05)
    worst = max(abs(math.log((1 - extreme.p_alt) / (1 - extreme.level))),
                abs(math.log(extreme.p_alt / extreme.level)))
    assert math.isfinite(worst * 1e9)
    state = MartingaleState(log_e=worst * 1e9, t=10**9, alarmed=True, first_crossing=1)
    assert math.isfinite(state.log_e)
