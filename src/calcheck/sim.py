"""Desk-scale data generators for the two end-to-end experiments.

Weather: a synthetic seasonal daily-temperature series forecast one step
ahead by a sliding-window linear regression, emitting scalar-Gaussian
records.  Bias and dispersion-scale injections manufacture the classic
failure modes on demand.

Robot: a 2D random walk with a small systematic drift, tracked by a
particle filter whose motion model ignores the drift, observing noisy
ranges to fixed beacons.  Each step emits the weighted (post-update,
pre-resampling) cloud against the true position.

Every generator is a deterministic function of its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError
from .records import GaussianBatch, ParticleBatch
from .seqtest import EValueConfig, MartingaleState, monitor_step_halfplane

__all__ = [
    "WeatherSimConfig",
    "RobotSimConfig",
    "DriftSweepEntry",
    "DriftSweepReport",
    "run_weather_sim",
    "run_weather_oracle",
    "run_robot_sim",
    "drift_sweep",
    "BASE_TEMPERATURE",
    "DRIFT_PER_STEP",
]

# Series base level; chosen so default runs land near a 16.9 degree annual
# mean with ~3.2 degree forecast spread, plausible mid-latitude magnitudes.
BASE_TEMPERATURE = 16.9

# Unmodeled drift applied to the ground truth per step at multiplier 1.
DRIFT_PER_STEP = np.array([0.02, 0.01])

# Relative seasonal swing of the day-to-day noise level.  Daily temperature
# noise is genuinely heteroscedastic; without real spread variation, sorting
# records by the *estimated* sigma would mostly sort by estimation error and
# manufacture spurious conditional miscalibration in the low-sigma bin.
NOISE_SEASONALITY = 0.25

_INIT_SD = 0.15  # initial position uncertainty shared by truth and particles
_SEASON_DAYS = 365.25


@dataclass(frozen=True)
class WeatherSimConfig:
    """Synthetic seasonal series plus sliding-window forecaster settings.

    ``n_days`` counts generated days; the first ``window`` days are warm-up,
    so the run emits ``n_days - window`` records.  ``injected_mean_bias``
    (outcome units) and ``injected_sd_scale`` perturb the emitted prediction
    parameters to manufacture miscalibration.
    """

    window: int = 30
    n_days: int = 395
    seasonal_amplitude: float = 8.0
    noise_sd: float = 3.1
    injected_mean_bias: float = 0.0
    injected_sd_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if self.n_days <= self.window:
            raise ValueError("n_days must exceed the warm-up window")
        if self.noise_sd <= 0:
            raise ValueError("noise_sd must be > 0")
        if self.injected_sd_scale <= 0:
            raise ValueError("injected_sd_scale must be > 0")


def _seasonal_series(config: WeatherSimConfig):
    """Daily series, its conditional mean, and its conditional noise level."""
    rng = np.random.default_rng(config.seed)
    t = np.arange(config.n_days)
    phase = 2.0 * np.pi * t / _SEASON_DAYS
    clean = BASE_TEMPERATURE + config.seasonal_amplitude * np.sin(phase)
    sigma = config.noise_sd * (1.0 + NOISE_SEASONALITY * np.cos(phase))
    series = clean + sigma * rng.standard_normal(config.n_days)
    return clean, sigma, series


def run_weather_sim(config: WeatherSimConfig) -> GaussianBatch:
    """Sliding-window regression forecaster on a synthetic seasonal series.

    For each day past the warm-up, ordinary least squares of the trailing
    window on (intercept, time) is extrapolated one step ahead; the
    predicted spread is the in-window residual standard deviation.  The
    configured bias and scale are injected into the emitted parameters.
    """
    _, _, series = _seasonal_series(config)
    w = config.window
    wins = sliding_window_view(series, w)[: config.n_days - w]
    x = np.arange(w, dtype=float)
    xbar = x.mean()
    sxx = float(((x - xbar) ** 2).sum())
    ybar = wins.mean(axis=1)
    slope = (wins * (x - xbar)).sum(axis=1) / sxx
    intercept = ybar - slope * xbar
    mu_hat = intercept + slope * w  # one step beyond the window
    fitted = intercept[:, None] + slope[:, None] * x
    rss = ((wins - fitted) ** 2).sum(axis=1)
    sigma_hat = np.sqrt(rss / (w - 2))
    degenerate = (np.ptp(wins, axis=1) == 0.0) | ~(sigma_hat > 0.0)
    if not np.all(np.isfinite(sigma_hat)) or np.any(degenerate):
        bad = int(np.flatnonzero(degenerate | ~np.isfinite(sigma_hat))[0]) + w
        raise DataError(f"degenerate window ending at day {bad}: zero residual spread")
    return _weather_records(mu_hat, sigma_hat, series, config)


def run_weather_oracle(config: WeatherSimConfig) -> GaussianBatch:
    """Forecaster that reports the series' true conditional distribution.

    Emits the same days as :func:`run_weather_sim` but with the exact
    conditional mean and noise standard deviation, so the records are
    calibrated by construction; the bias/scale injections then install a
    precisely known miscalibration on top of exact dispersion.
    """
    clean, sigma, series = _seasonal_series(config)
    w = config.window
    return _weather_records(clean[w:], sigma[w:], series, config)


def _weather_records(mu, sigma, series, config: WeatherSimConfig) -> GaussianBatch:
    """One record per day past the warm-up, with the injections applied.

    ``mu[i]`` and ``sigma[i]`` forecast day ``window + i``.
    """
    w = config.window
    n = len(mu)
    return GaussianBatch(
        mu=mu + config.injected_mean_bias,
        sigma=sigma * config.injected_sd_scale,
        y=series[w:w + n],
        t=range(w, w + n),
    )


@dataclass(frozen=True)
class RobotSimConfig:
    """Particle-filter localization scenario.

    The ground truth random-walks with ``drift_multiplier`` times the base
    drift vector per step; the filter's motion model omits the drift.  Range
    measurements (one per beacon per step) carry Gaussian noise.
    """

    n_particles: int = 500
    n_steps: int = 500
    drift_multiplier: float = 1.0
    beacon_positions: tuple = ((0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0))
    range_noise_sd: float = 0.28
    process_noise_sd: float = 0.12
    seed: int = 0

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("n_particles must be >= 2")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.drift_multiplier < 0:
            raise ValueError("drift_multiplier must be >= 0")
        if self.range_noise_sd <= 0 or self.process_noise_sd <= 0:
            raise ValueError("noise standard deviations must be > 0")
        beacons = np.asarray(self.beacon_positions, dtype=float)
        if beacons.ndim != 2 or beacons.shape[1] != 2 or beacons.shape[0] < 3:
            raise ValueError("need at least 3 beacons in the plane")
        offsets = beacons[1:] - beacons[0]
        if np.linalg.matrix_rank(offsets, tol=1e-9) < 2:
            raise ValueError("beacons must not be collinear")

    @property
    def beacons(self) -> np.ndarray:
        return np.asarray(self.beacon_positions, dtype=float)


def _systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    m = weights.size
    positions = (rng.uniform(0.0, 1.0) + np.arange(m)) / m
    return np.searchsorted(np.cumsum(weights), positions).clip(0, m - 1)


def _log_sum_exp(log_w: np.ndarray, t: int) -> float:
    """``log(sum(exp(log_w)))`` as ``scipy.special.logsumexp`` computes it,
    bit for bit: the maximal terms are split off the shifted sum and their
    count is added back in log space.  A non-finite maximum means every
    weight underflowed (or overflowed) at step ``t``."""
    top = log_w.max()
    if not np.isfinite(top):
        raise DataError(f"particle depletion at step {t}: all weights underflowed")
    at_top = log_w == top
    terms = np.exp(log_w - top)
    terms[at_top] = 0.0
    ties = np.count_nonzero(at_top)
    return np.log1p(terms.sum() / ties) + np.log(ties) + top


def run_robot_sim(config: RobotSimConfig) -> ParticleBatch:
    """Run the drift-mismatched particle filter and emit one record per step.

    Each record holds the weighted post-update (pre-resampling) particle
    cloud as the prediction and the true position as the outcome.
    Systematic resampling triggers when the effective sample size drops
    below half the particle count.
    """
    rng = np.random.default_rng(config.seed)
    beacons = config.beacons
    center = beacons.mean(axis=0)
    m = config.n_particles
    q = config.process_noise_sd
    r = config.range_noise_sd
    drift = config.drift_multiplier * DRIFT_PER_STEP

    truth = center + rng.normal(0.0, _INIT_SD, 2)
    particles = center + rng.normal(0.0, _INIT_SD, (m, 2))
    log_w = np.full(m, -np.log(m))

    weights_seq, particles_seq, truths = [], [], []
    for t in range(1, config.n_steps + 1):
        truth = truth + drift + rng.normal(0.0, q, 2)
        particles = particles + rng.normal(0.0, q, (m, 2))  # drift-free model

        true_ranges = np.linalg.norm(truth - beacons, axis=1)
        z = true_ranges + rng.normal(0.0, r, beacons.shape[0])
        diffs = particles[:, None, :] - beacons[None, :, :]
        pred_ranges = np.linalg.norm(diffs, axis=2)
        with np.errstate(over="ignore"):  # depletion is detected below
            log_w = log_w - 0.5 * (((z - pred_ranges) / r) ** 2).sum(axis=1)

        log_w = log_w - _log_sum_exp(log_w, t)
        weights = np.exp(log_w)

        weights_seq.append(weights)
        particles_seq.append(particles)
        truths.append(truth)

        ess = 1.0 / float((weights**2).sum())
        if ess < m / 2.0:
            idx = _systematic_resample(weights, rng)
            particles = particles[idx]
            log_w = np.full(m, -np.log(m))
    return ParticleBatch(weights_seq, particles_seq, truths, t=range(1, config.n_steps + 1))


# ---------------------------------------------------------------------------
# drift sweep harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriftSweepEntry:
    """Monitor outcomes for one drift multiplier across seeds."""

    multiplier: float
    n_seeds: int
    alarm_count: int
    median_first_crossing: float | None
    # per-step (5%, 50%, 95%) quantiles of the running e-value across seeds
    envelope: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class DriftSweepReport:
    entries: tuple[DriftSweepEntry, ...]
    monitor: EValueConfig


def drift_sweep(
    base: RobotSimConfig,
    multipliers: Sequence[float],
    n_seeds: int,
    monitor: EValueConfig,
) -> DriftSweepReport:
    """Run the half-plane monitor over a grid of drift magnitudes.

    For each (multiplier, seed) the robot sim is rerun and the monitor's
    martingale is advanced over its whole run in one step call, which
    returns the running log e-value after every step.  Reports
    per-multiplier alarm counts, the median first-crossing time among
    alarmed seeds, and the across-seed 5%/50%/95% envelope of the running
    e-value.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    entries = []
    for mult in multipliers:
        log_traces = np.empty((n_seeds, base.n_steps))
        crossings = []
        for s in range(n_seeds):
            cfg = replace(base, drift_multiplier=float(mult), seed=base.seed + s)
            mon_rng = np.random.default_rng([cfg.seed, 1])  # independent of sim
            state, log_traces[s] = monitor_step_halfplane(
                MartingaleState(), run_robot_sim(cfg), monitor, mon_rng)
            if state.alarmed:
                crossings.append(state.first_crossing)
        envelope = np.exp(
            np.percentile(log_traces, [5.0, 50.0, 95.0], axis=0).T
        )
        entries.append(
            DriftSweepEntry(
                multiplier=float(mult),
                n_seeds=n_seeds,
                alarm_count=len(crossings),
                median_first_crossing=float(np.median(crossings)) if crossings else None,
                envelope=envelope,
            )
        )
    return DriftSweepReport(entries=tuple(entries), monitor=monitor)
