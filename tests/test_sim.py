import errno
import math
import multiprocessing
import os
import re
import signal
import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calcheck import sim
from calcheck.errors import DataError, WorkerLostError
from calcheck.hyptest import ONE_SIDED, TWO_SIDED, HypothesisSpec, ks_test
from calcheck.metric import LevelGrid, central, coverage_counts, fold, pit
from calcheck.records import MvGaussianBatch, ParticleBatch
from calcheck.seqtest import EValueConfig, MartingaleState, monitor_step
from calcheck.sim import (
    _INIT_SD,
    DRIFT_PER_STEP,
    RobotSimConfig,
    WeatherSimConfig,
    _log_sum_exp,
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
    # NaN passes every range check, so non-finite values are named first
    for key in ("seasonal_amplitude", "noise_sd", "injected_mean_bias", "injected_sd_scale"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{key} must be finite"):
                WeatherSimConfig(**{key: bad})


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
    for key in ("drift_multiplier", "range_noise_sd", "process_noise_sd"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{key} must be finite"):
                RobotSimConfig(**{key: bad})
    with pytest.raises(ValueError, match="beacon_positions must be finite"):
        RobotSimConfig(beacon_positions=((0, 0), (1, 0), (0, math.nan)))


def test_robot_depletion_raises_with_step_number():
    with pytest.raises(DataError, match="step 1"):
        run_robot_sim(RobotSimConfig(seed=0, range_noise_sd=1e-300, n_steps=5))


def test_robot_zero_drift_halfplane_coverage_at_half():
    recs = run_robot_sim(RobotSimConfig(seed=3, drift_multiplier=0.0))
    curve = coverage_counts(central(recs, np.random.default_rng(11), np.random.default_rng(12)),
                            LevelGrid([0.5]))
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
    rngs = np.random.default_rng([3, 2]), np.random.default_rng([3, 3])
    hp = coverage_counts(central(recs, *rngs), grid)
    # each cloud's weighted mean and covariance (weights sum to 1)
    mu = np.array([w @ pts for w, pts in zip(recs.w, recs.pts)])
    cov = np.array([(w[:, None] * (pts - m)).T @ (pts - m)
                    for w, pts, m in zip(recs.w, recs.pts, mu)])
    mm = MvGaussianBatch(mu, (cov + cov.transpose(0, 2, 1)) / 2.0, recs.y)
    mv = coverage_counts(central(mm), grid)
    assert np.max(np.abs(mv.fractions - hp.fractions)) <= 0.05


def reference_robot_sim(config):
    """The filter with its range likelihood on the 3-D (particle, beacon,
    coordinate) differences: ``np.linalg.norm`` over the coordinates,
    ``.sum(axis=1)`` over the beacons, ``.clip`` on resampled indices."""
    rng = np.random.default_rng(config.seed)
    beacons = config.beacons
    center = beacons.mean(axis=0)
    m, q, r = config.n_particles, config.process_noise_sd, config.range_noise_sd
    drift = config.drift_multiplier * DRIFT_PER_STEP
    truth = center + rng.normal(0.0, _INIT_SD, 2)
    particles = center + rng.normal(0.0, _INIT_SD, (m, 2))
    log_w = np.full(m, -np.log(m))
    weights_seq, particles_seq, truths = [], [], []
    for t in range(1, config.n_steps + 1):
        truth = truth + drift + rng.normal(0.0, q, 2)
        particles = particles + rng.normal(0.0, q, (m, 2))
        z = np.linalg.norm(truth - beacons, axis=1) + rng.normal(0.0, r, beacons.shape[0])
        pred = np.linalg.norm(particles[:, None, :] - beacons[None, :, :], axis=2)
        with np.errstate(over="ignore"):
            log_w = log_w - 0.5 * (((z - pred) / r) ** 2).sum(axis=1)
        log_w = log_w - _log_sum_exp(log_w, t)
        weights = np.exp(log_w)
        weights_seq.append(weights)
        particles_seq.append(particles)
        truths.append(truth)
        if 1.0 / float((weights**2).sum()) < m / 2.0:
            positions = (rng.uniform(0.0, 1.0) + np.arange(m)) / m
            particles = particles[np.searchsorted(np.cumsum(weights), positions).clip(0, m - 1)]
            log_w = np.full(m, -np.log(m))
    return ParticleBatch(weights_seq, particles_seq, truths)


@st.composite
def robot_configs(draw):
    k = draw(st.integers(3, 12))
    beacons = draw(st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
                            min_size=k, max_size=k, unique=True))
    try:
        return RobotSimConfig(
            n_particles=draw(st.integers(2, 300)),
            n_steps=draw(st.integers(1, 6)),
            drift_multiplier=draw(st.sampled_from([0.0, 0.5, 1.0, 40.0])),
            beacon_positions=tuple(beacons),
            range_noise_sd=draw(st.sampled_from([1e-300, 0.002, 0.05, 0.28, 3.0])),
            seed=draw(st.integers(0, 2**32)),
        )
    except ValueError:  # collinear beacons
        return draw(st.nothing())


@settings(max_examples=60, deadline=None)
@given(robot_configs())
def test_robot_sim_equals_the_3d_range_reference_bit_for_bit(config):
    # row-wise ranges and the transposed beacon sum must give numpy's
    # reduction order for every beacon count: in sequence below 8, pairwise
    # from 8 up; depletion must stop both at the same step
    try:
        want = reference_robot_sim(config)
    except DataError as exc:
        with pytest.raises(DataError, match=re.escape(str(exc))):
            run_robot_sim(config)
        return
    got = run_robot_sim(config)
    assert got.y.tobytes() == want.y.tobytes()
    for w, pts, w_ref, pts_ref in zip(got.w, got.pts, want.w, want.pts, strict=True):
        assert w.tobytes() == w_ref.tobytes()
        assert pts.tobytes() == pts_ref.tobytes()


# ---------------------------------------------------------------------------
# drift sweep
# ---------------------------------------------------------------------------

MONITOR = EValueConfig(level=0.9, p_alt=0.8, alpha=0.05)


def test_drift_sweep_empty_multipliers():
    assert drift_sweep(RobotSimConfig(seed=0, n_steps=10), (), 2, MONITOR) == ()


def test_drift_sweep_zero_drift_rarely_alarms():
    (entry,) = drift_sweep(RobotSimConfig(seed=0), (0.0,), 20, MONITOR)
    assert entry.alarm_count <= 1  # >= 95% of these seeds stay quiet


def test_drift_sweep_entry_bookkeeping():
    base = RobotSimConfig(seed=0, n_steps=60)
    entries = drift_sweep(base, (0.5, 2.0), 3, MONITOR)
    assert [e.multiplier for e in entries] == [0.5, 2.0]
    for entry in entries:
        assert entry.n_seeds == 3
        assert entry.envelope.shape == (60, 3)
        assert np.all(entry.envelope[:, 0] <= entry.envelope[:, 1])
        assert np.all(entry.envelope[:, 1] <= entry.envelope[:, 2])


def serial_sweep(base, multipliers, n_seeds, monitor):
    """The drift sweep cell by cell in this process, as (multiplier, alarm
    count, median first crossing, envelope) per multiplier: the reference
    the worker processes must reproduce bit for bit."""
    entries = []
    for mult in multipliers:
        log_traces = np.empty((n_seeds, base.n_steps))
        crossings = []
        for s in range(n_seeds):
            cfg = replace(base, drift_multiplier=float(mult), seed=base.seed + s)
            state, log_traces[s] = monitor_step(
                MartingaleState(), run_robot_sim(cfg), monitor,
                np.random.default_rng([cfg.seed, 1]), np.random.default_rng([cfg.seed, 3]))
            if state.alarmed:
                crossings.append(state.first_crossing)
        envelope = np.exp(np.percentile(log_traces, [5.0, 50.0, 95.0], axis=0).T)
        entries.append((float(mult), len(crossings),
                        float(np.median(crossings)) if crossings else None, envelope))
    return entries


def as_tuples(entries):
    return [(e.multiplier, e.alarm_count, e.median_first_crossing, e.envelope)
            for e in entries]


def assert_same_entries(got, want):
    assert len(got) == len(want)
    for (mult, alarms, median, env), (mult_ref, alarms_ref, median_ref, env_ref) in zip(
            got, want):
        assert (mult, alarms, median) == (mult_ref, alarms_ref, median_ref)
        assert env.shape == env_ref.shape and env.tobytes() == env_ref.tobytes()


@pytest.fixture
def pools(monkeypatch):
    """Count the worker pools drift_sweep starts."""
    started = []
    get_context = multiprocessing.get_context

    def counting(method=None):
        started.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", counting)
    return started


SWEEP_BASE = RobotSimConfig(seed=3, n_steps=40, n_particles=100)


@pytest.mark.parametrize(
    "multipliers, n_seeds, cpus, n_pools",
    [
        ((2.0,), 1, 4, 0),                 # one cell runs in this process
        ((0.5, 8.0), 1, 4, 1),             # fewer cells than CPUs
        ((0.5, 8.0), 3, 4, 1),             # 6 cells do not divide among 4 workers
        ((0.0, 1.0, 6.0), 2, 1, 0),        # one CPU: the serial loop
        ((), 2, 4, 0),                     # no cells
    ],
    ids=["one_cell", "fewer_cells_than_cpus", "uneven", "one_cpu", "empty"],
)
def test_drift_sweep_workers_match_the_serial_loop(monkeypatch, pools, multipliers, n_seeds,
                                                   cpus, n_pools):
    monkeypatch.setattr(sim, "_usable_cpus", lambda: cpus)
    got = drift_sweep(SWEEP_BASE, multipliers, n_seeds, MONITOR)
    want = serial_sweep(SWEEP_BASE, multipliers, n_seeds, MONITOR)
    assert_same_entries(as_tuples(got), want)
    # multiplier 8 alarms within 40 steps, so crossings and medians are compared too
    assert all(alarms > 0 for mult, alarms, _, _ in want if mult == 8.0)
    assert pools == ["fork"] * n_pools
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("range_noise_sd", [1e-300, 1e-155])
def test_drift_sweep_worker_error_leaves_no_worker(monkeypatch, pools, range_noise_sd):
    # every cell's weights underflow: at 1e-300 all at step 1, at 1e-155 the
    # first cell at step 6 and later cells sooner; the first cell's error wins
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    base = RobotSimConfig(seed=0, n_steps=60, n_particles=20, range_noise_sd=range_noise_sd)
    with pytest.raises(DataError) as serial:
        serial_sweep(base, (0.5, 4.0), 3, MONITOR)
    with pytest.raises(DataError) as pooled:
        drift_sweep(base, (0.5, 4.0), 3, MONITOR)
    assert str(pooled.value) == str(serial.value)
    assert str(serial.value).startswith(
        "particle depletion at step 1:" if range_noise_sd == 1e-300 else
        "particle depletion at step 6:")
    assert pools == ["fork"]
    assert multiprocessing.active_children() == []


def test_drift_sweep_runs_in_process_when_no_worker_starts(monkeypatch, pools):
    # the first worker forks, the second fails as fork does with no process
    # to spare: the first is stopped and the cells run in this process
    fork = os.fork
    forks = []

    def fork_once():
        forks.append(None)
        if len(forks) > 1:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(sim, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(os, "fork", fork_once)
    got = drift_sweep(SWEEP_BASE, (0.5, 8.0), 2, MONITOR)
    monkeypatch.undo()
    assert len(forks) == 2 and pools == ["fork"]
    assert multiprocessing.active_children() == []
    assert_same_entries(as_tuples(got), serial_sweep(SWEEP_BASE, (0.5, 8.0), 2, MONITOR))


@pytest.mark.parametrize("where", ["other_thread", "daemonic_worker", "no_fork", "not_linux"])
def test_drift_sweep_runs_in_process_where_it_may_not_fork(monkeypatch, pools, where):
    # another thread's locks would be copied mid-use, a daemonic worker may
    # not have children, and fork is used on Linux alone
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 4)
    if where == "daemonic_worker":
        monkeypatch.setattr(multiprocessing, "current_process",
                            lambda: SimpleNamespace(daemon=True))
    elif where == "no_fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    elif where == "not_linux":
        monkeypatch.setattr(sys, "platform", "darwin")
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    if where == "other_thread":
        other.start()
    try:
        got = drift_sweep(SWEEP_BASE, (0.5, 8.0), 2, MONITOR)
    finally:
        stop.set()
        if other.is_alive():
            other.join()
    monkeypatch.undo()
    assert pools == []
    assert_same_entries(as_tuples(got), serial_sweep(SWEEP_BASE, (0.5, 8.0), 2, MONITOR))


def test_drift_sweep_runs_wrapped_layers_in_process(monkeypatch, pools):
    # a tracer's or profiler's wrapper records in this process only, so it
    # must see every cell here
    calls = []
    for name in ("run_robot_sim", "monitor_step_halfplane"):
        def wrapper(*args, _fn=getattr(sim, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(sim, name, wrapper)
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 4)
    got = drift_sweep(SWEEP_BASE, (0.5, 8.0), 2, MONITOR)
    assert pools == []
    assert sorted(calls) == ["monitor_step_halfplane"] * 4 + ["run_robot_sim"] * 4
    monkeypatch.undo()
    assert_same_entries(as_tuples(got), serial_sweep(SWEEP_BASE, (0.5, 8.0), 2, MONITOR))


def cell_killed_at_seed_4(cfg, monitor):
    """A sweep cell whose worker process is killed at seed 4."""
    if cfg.seed == 4:
        assert multiprocessing.parent_process() is not None, "not in a worker"
        os.kill(os.getpid(), signal.SIGKILL)
    return SWEEP_CELL(cfg, monitor)


SWEEP_CELL = sim._sweep_cell


def test_drift_sweep_ends_when_a_worker_dies(monkeypatch, pools):
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(sim, "_sweep_cell", cell_killed_at_seed_4)
    with pytest.raises(WorkerLostError, match="ended without its result"):
        drift_sweep(SWEEP_BASE, (0.5, 8.0), 3, MONITOR)  # seeds 3, 4, 5
    assert pools == ["fork"]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "files, quota",
    [
        ({"cpu.max": "max 100000"}, math.inf),
        ({"cpu.max": "150000 100000"}, 1.5),
        ({"cpu.max": "max 100000", "a/cpu.max": "400000 100000",
          "a/b/cpu.max": "200000 100000"}, 2.0),         # the tightest on the path
        ({"a/b/cpu.max": "max 100000", "a/cpu.max": "50000 100000"}, 0.5),
        ({}, math.inf),                                      # no cpu.max (cgroup v1)
    ],
)
def test_cpu_quota_is_the_tightest_cpu_max_on_the_cgroup_path(tmp_path, files, quota):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text + "\n")
    cgroup = tmp_path / "cgroup"
    cgroup.write_text("1:cpu:/\n0::/a/b\n")
    assert sim._cpu_quota(str(tmp_path), str(cgroup)) == quota
    assert sim._cpu_quota(str(tmp_path), str(tmp_path / "missing")) == math.inf


@pytest.mark.parametrize("quota, cpus", [(math.inf, 8), (8.0, 8), (1.5, 2), (0.5, 1)])
def test_usable_cpus_is_capped_by_the_cpu_quota(monkeypatch, quota, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(sim, "_cpu_quota", lambda: quota)
    assert sim._usable_cpus() == cpus
