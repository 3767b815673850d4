import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calcheck.cli import RecipeConfig, run_monitor
from calcheck.errors import ConfigError
from calcheck.metric import LevelGrid, central, coverage_counts
from calcheck.records import GaussianBatch, ParticleBatch
from calcheck.seqtest import (
    EValueConfig,
    MartingaleState,
    _log_lr,
    monitor_step,
)


CFG = EValueConfig(level=0.9, p_alt=0.8, alpha=0.05)


# ---------------------------------------------------------------------------
# the Gaussian monitor's centered intervals
# ---------------------------------------------------------------------------

def hits(mu, sigma, y, config) -> list[bool]:
    """Whether one monitor step over the records scored each ``y`` inside
    its centered interval: a hit lowers the running log e-value."""
    _, log_e = monitor_step(MartingaleState(), GaussianBatch(mu, sigma, y), config)
    return (np.diff(log_e, prepend=0.0) < 0.0).tolist()


def test_gaussian_interval_standard_normal_68():
    # the centered 68.27% interval is mu -/+ sigma
    cfg = EValueConfig(level=0.6827, p_alt=0.5, alpha=0.05)
    z = np.array([0.999, -0.999, 1.001, -1.001])
    for mu, sigma in ((0.0, 1.0), (5.0, 2.0)):
        assert hits(np.full(4, mu), np.full(4, sigma), mu + z * sigma, cfg) == [
            True, True, False, False]


def test_gaussian_interval_collapses_to_median():
    cfg = EValueConfig(level=1e-12, p_alt=5e-13, alpha=0.05)
    y = [5.0, 5.0 + 1e-5, 5.0 - 1e-5]
    assert hits(np.full(3, 5.0), np.full(3, 2.0), y, cfg) == [True, False, False]


moderate = st.floats(min_value=-1e6, max_value=1e6)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gaussian_monitor_hits_equal_coverage_counts(data):
    # the streaming monitor and the offline coverage count score the same
    # records alike, bit for bit, at any level
    n = data.draw(st.integers(1, 40))
    mu = np.array(data.draw(st.lists(moderate, min_size=n, max_size=n)))
    sigma = np.array(data.draw(st.lists(st.floats(1e-6, 1e6), min_size=n, max_size=n)))
    z = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    batch = GaussianBatch(mu, sigma, mu + z * sigma)
    level = data.draw(st.floats(0.001, 0.999))
    config = RecipeConfig(testing="evalue_monitor", evalue=EValueConfig(level, level / 2, 0.05))
    # a hit halves the e-value and a miss raises it
    emitted = []
    run_monitor(config, [batch], on_row=emitted.append)
    e = [1.0] + [float(line.split(",")[1]) for line in "".join(emitted).splitlines()]
    hits = sum(after < before for before, after in zip(e, e[1:]))
    assert hits == coverage_counts(central(batch), LevelGrid([level])).counts[0]


def test_config_validation():
    with pytest.raises(ConfigError):
        EValueConfig(level=0.9, p_alt=0.9, alpha=0.05)  # p_alt must be < level
    with pytest.raises(ConfigError):
        EValueConfig(level=0.9, p_alt=0.0, alpha=0.05)
    with pytest.raises(ConfigError):
        EValueConfig(level=1.0, p_alt=0.5, alpha=0.05)


def lr_evalue(k: int, config: EValueConfig) -> float:
    return math.exp(_log_lr(k, config))


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


def constant_batch(n: int, y: float) -> GaussianBatch:
    """``n`` standard-normal predictions of the outcome ``y``."""
    return GaussianBatch(np.zeros(n), np.ones(n), np.full(n, y))


def test_gaussian_monitor_all_hits_never_alarms():
    state, log_e = monitor_step(MartingaleState(), constant_batch(200, 0.0), CFG)
    assert not state.alarmed
    assert state.first_crossing is None
    assert state.t == len(log_e) == 200
    assert state.e_value == pytest.approx((0.8 / 0.9) ** 200, rel=1e-9)


def test_gaussian_monitor_all_misses_crosses_at_five():
    state, _ = monitor_step(MartingaleState(), constant_batch(4, 100.0), CFG)
    assert not state.alarmed  # 2^4 = 16 < 20
    state, log_e = monitor_step(state, constant_batch(3, 100.0), CFG)
    assert state.alarmed
    assert state.first_crossing == 5  # 2^5 = 32 > 20
    assert state.e_value == pytest.approx(2.0**7, rel=1e-9)
    assert np.exp(log_e) == pytest.approx([2.0**5, 2.0**6, 2.0**7], rel=1e-9)


def test_monitor_keeps_recording_after_alarm():
    state, _ = monitor_step(MartingaleState(), constant_batch(6, 100.0), CFG)
    assert state.alarmed and state.first_crossing == 5
    later, _ = monitor_step(state, constant_batch(1, 0.0), CFG)
    assert later.alarmed and later.first_crossing == 5
    assert later.t == 7


def test_the_first_crossing_is_the_one_alarm_record():
    # alarmed is read off first_crossing, so no state can be alarmed without
    # a crossing, or hold a crossing without being alarmed
    assert "alarmed" not in {f.name for f in dataclasses.fields(MartingaleState)}
    with pytest.raises(TypeError):
        MartingaleState(alarmed=True)
    assert MartingaleState(first_crossing=3).alarmed
    assert not MartingaleState(log_e=10.0, t=4).alarmed


def sequential(state: MartingaleState, covered, config: EValueConfig):
    """The martingale stepped one indicator at a time: the running log
    e-values and the final (log_e, t, alarmed, first_crossing)."""
    log_e, t, alarmed, crossing = state.log_e, state.t, state.alarmed, state.first_crossing
    logs = []
    for k in covered:
        log_e = log_e + _log_lr(k, config)
        t += 1
        if not alarmed and log_e > config.log_threshold:
            alarmed, crossing = True, t
        logs.append(log_e)
    return logs, (log_e, t, alarmed, crossing)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_batch_steps_equal_sequential_steps_bit_for_bit(data):
    # however a stream is cut into batches, the per-batch step holds the
    # running sums, step count, alarm and first crossing of a one-step-at-a-
    # time martingale, exactly
    covered = data.draw(st.lists(st.booleans(), max_size=300), label="covered")
    cuts = sorted(data.draw(st.lists(st.integers(0, len(covered)), max_size=6), label="cuts"))
    level = data.draw(st.floats(0.01, 0.99))
    config = EValueConfig(level, level * data.draw(st.floats(0.01, 0.99)),
                          data.draw(st.floats(1e-6, 0.5)))
    start = data.draw(st.sampled_from([
        MartingaleState(),
        MartingaleState(log_e=data.draw(st.floats(-50.0, 50.0)), t=data.draw(st.integers(0, 99))),
        MartingaleState(log_e=1.5, t=9, first_crossing=3),
    ]))
    want_logs, want = sequential(start, covered, config)
    state, logs = start, []
    for a, b in zip([0, *cuts], [*cuts, len(covered)]):
        if a == b:
            continue  # ingest yields no empty batch
        # a hit scores the median, a miss an outcome fifty sigmas out
        batch = GaussianBatch(np.zeros(b - a), np.ones(b - a), np.where(covered[a:b], 0.0, 50.0))
        state, log_e = monitor_step(state, batch, config)
        assert len(log_e) == b - a
        logs += log_e.tolist()
    assert logs == want_logs
    assert (state.log_e, state.t, state.alarmed, state.first_crossing) == want


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


def streams(seed):
    """A direction stream and a tie stream, as a monitor run makes them."""
    return np.random.default_rng([seed, 1]), np.random.default_rng([seed, 3])


def test_halfplane_monitor_tie_policy_two_particles():
    # the outcome equals the particle (1, 1) on every direction, so half the
    # mass is tied with it: the PIT is 1/2 + V/2 where (0, 0) projects below
    # it, and V/2 where above, V the tie stream's uniform; the indicator at
    # 0.9 is then Bernoulli(0.9), where weak inequalities always counted it
    n = 400
    w, pts = np.array([0.5, 0.5]), np.array([[0.0, 0.0], [1.0, 1.0]])
    batch = ParticleBatch([w] * n, [pts] * n, [[1.0, 1.0]] * n)
    _, log_e = monitor_step(MartingaleState(), batch, CFG, *streams(0))
    hits = np.diff(log_e, prepend=0.0) < 0.0  # a covered step lowers the e-value
    theta = streams(0)[0].uniform(0.0, np.pi, n)  # each cloud's direction
    u = np.where(np.cos(theta) + np.sin(theta) > 0.0, 0.5, 0.0) + streams(0)[1].random(n) * 0.5
    assert np.array_equal(hits, np.abs(2.0 * u - 1.0) <= CFG.level)
    assert abs(np.count_nonzero(hits) - 0.9 * n) <= 4.0 * math.sqrt(0.09 * n)


def test_halfplane_monitor_deterministic_given_seed():
    rng_cloud = np.random.default_rng(40)
    points = []
    ys = []
    for _ in range(30):
        pts = rng_cloud.normal(size=(64, 2))
        points.append(pts)
        ys.append(pts[rng_cloud.integers(0, 64)])
    batch = ParticleBatch([np.full(64, 1 / 64)] * 30, points, ys)

    def run(cuts):
        # the direction and tie streams run on across batches, cloud by cloud
        rngs = np.random.default_rng(777), np.random.default_rng([777, 3])
        state, trace = MartingaleState(), []
        for a, b in zip([0, *cuts], [*cuts, 30]):
            block = ParticleBatch(batch.w[a:b], batch.pts[a:b], batch.y[a:b])
            state, log_e = monitor_step(state, block, CFG, *rngs)
            trace += log_e.tolist()
        return state, trace

    s1, t1 = run([])
    s2, t2 = run([1, 2, 17])
    assert len(t1) == 30
    assert t1 == t2
    assert s1 == s2


def test_halfplane_monitor_ville_light():
    rng = np.random.default_rng(13)
    reps, horizon, m = 300, 200, 64
    alarms = 0
    for _ in range(reps):
        pts = rng.normal(size=(m, 2))
        seed = int(rng.integers(2**63))
        mon_rngs = np.random.default_rng(seed), np.random.default_rng([seed, 3])
        ys = [pts[rng.integers(0, m)] for _ in range(horizon)]
        batch = ParticleBatch([np.full(m, 1 / m)] * horizon, [pts] * horizon, ys)
        st, _ = monitor_step(MartingaleState(), batch, CFG, *mon_rngs)
        alarms += st.alarmed
    assert alarms / reps <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / reps)


def test_log_accumulation_stays_finite_at_huge_horizons():
    # per-step log increments are bounded for any valid config, so even
    # 1e9 steps cannot overflow the running log
    extreme = EValueConfig(level=1 - 1e-9, p_alt=0.5, alpha=0.05)
    worst = max(abs(math.log((1 - extreme.p_alt) / (1 - extreme.level))),
                abs(math.log(extreme.p_alt / extreme.level)))
    assert math.isfinite(worst * 1e9)
    state = MartingaleState(log_e=worst * 1e9, t=10**9, first_crossing=1)
    assert math.isfinite(state.log_e)
