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

import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, WorkerLostError
from .metric import central
from .records import GaussianBatch, ParticleBatch
# The benchmark's tracer (bench/tracing.py) wraps functions by module
# attribute and times the particle monitor step by this name.
from .seqtest import EValueConfig, MartingaleState, monitor_step as monitor_step_halfplane

__all__ = [
    "WeatherSimConfig",
    "RobotSimConfig",
    "DriftSweepEntry",
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


def _require_finite(config) -> None:
    """Reject a NaN or infinite ``float`` field by name: NaN passes every
    range check below, and either would otherwise surface as a data error."""
    for f in fields(config):
        if f.type == "float" and not np.isfinite(getattr(config, f.name)):
            raise ValueError(f"{f.name} must be finite")


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
        _require_finite(self)
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
        _require_finite(self)
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
        if not np.all(np.isfinite(beacons)):
            raise ValueError("beacon_positions must be finite")
        offsets = beacons[1:] - beacons[0]
        if np.linalg.matrix_rank(offsets, tol=1e-9) < 2:
            raise ValueError("beacons must not be collinear")

    @property
    def beacons(self) -> np.ndarray:
        return np.asarray(self.beacon_positions, dtype=float)


def _systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    m = weights.size
    positions = (rng.uniform(0.0, 1.0) + np.arange(m)) / m
    # searchsorted returns no negative index, so only the top needs a bound
    return np.minimum(np.searchsorted(np.cumsum(weights), positions), m - 1)


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
    bx, by = beacons[:, :1], beacons[:, 1:]  # (k, 1) columns
    center = beacons.mean(axis=0)
    m = config.n_particles
    q = config.process_noise_sd
    r = config.range_noise_sd
    drift = config.drift_multiplier * DRIFT_PER_STEP

    truth = center + rng.normal(0.0, _INIT_SD, 2)
    particles = center + rng.normal(0.0, _INIT_SD, (m, 2))
    flat = np.full(m, -np.log(m))  # never written in place, so shared
    log_w = flat

    weights_seq, particles_seq, truths = [], [], []
    for t in range(1, config.n_steps + 1):
        truth = truth + drift + rng.normal(0.0, q, 2)
        particles = particles + rng.normal(0.0, q, (m, 2))  # drift-free model

        # Ranges coordinate by coordinate, one (beacon, particle) row per
        # beacon: sqrt(dx*dx + dy*dy) is np.linalg.norm's two-term sum bit
        # for bit, without numpy's slow reductions over a length-2 axis.
        true_ranges = np.sqrt((truth[0] - bx) ** 2 + (truth[1] - by) ** 2)
        z = true_ranges + rng.normal(0.0, r, (len(beacons), 1))
        dx = particles[:, 0] - bx
        dy = particles[:, 1] - by
        with np.errstate(over="ignore"):  # depletion is detected below
            res = (z - np.sqrt(dx * dx + dy * dy)) / r
            sq = res * res
            # summed over beacons on the C-contiguous (particle, beacon)
            # layout, the order .sum(axis=1) gives it: in sequence below 8
            # beacons and pairwise from 8 up
            log_w = log_w - 0.5 * np.ascontiguousarray(sq.T).sum(axis=1)

        log_w = log_w - _log_sum_exp(log_w, t)
        weights = np.exp(log_w)

        weights_seq.append(weights)
        particles_seq.append(particles)
        truths.append(truth)

        ess = 1.0 / float((weights**2).sum())
        if ess < m / 2.0:
            idx = _systematic_resample(weights, rng)
            particles = particles[idx]
            log_w = flat
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


def _cpu_quota(cgroup_root: str = "/sys/fs/cgroup",
               cgroup_file: str = "/proc/self/cgroup") -> float:
    """CPUs this process's cgroup v2 CPU quota grants: the tightest
    ``cpu.max`` over its cgroup and the cgroups above it, or inf where none
    is set or readable (no quota, cgroup v1, another platform)."""
    try:
        with open(cgroup_file) as handle:
            path = next(line[3:].strip() for line in handle if line.startswith("0::"))
    except (OSError, StopIteration):
        return math.inf
    parts = [part for part in path.split("/") if part]
    quota = math.inf
    for depth in range(len(parts) + 1):
        try:
            with open(os.path.join(cgroup_root, *parts[:depth], "cpu.max")) as handle:
                limit, period = handle.read().split()
            if limit != "max":
                quota = min(quota, int(limit) / int(period))
        except (OSError, ValueError):
            continue
    return quota


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count, capped by a cgroup v2 CPU quota
    rounded up."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    quota = _cpu_quota()
    return max(1, math.ceil(quota)) if quota < cpus else cpus


def _sweep_cell(cfg: RobotSimConfig, monitor: EValueConfig) -> tuple[MartingaleState, np.ndarray]:
    """One (multiplier, seed) cell of the sweep: the robot sim, then the
    half-plane monitor over its whole run on the cell's own stream.  Returns
    the final state and the running log e-value after every step."""
    # the direction and tie streams, independent of the sim's
    mon_rng, ties = np.random.default_rng([cfg.seed, 1]), np.random.default_rng([cfg.seed, 3])
    sample = central(run_robot_sim(cfg), mon_rng, ties)
    return monitor_step_halfplane(MartingaleState(), sample, monitor)


# The cell's layers as this module defines and imports them.  A wrapper put
# on either module attribute (a tracer's or a profiler's) keeps what it
# records in this process, so the sweep then runs its cells here.
_CELL_LAYERS = (run_robot_sim, monitor_step_halfplane)


def _map_cells(run_cell, cells: list, workers: int) -> list:
    """``run_cell`` over ``cells``, in order, on up to ``workers`` forked
    worker processes.

    Fork, not spawn: a forked worker starts with calcheck and numpy already
    imported, where a spawned one would pay that import before its first
    cell.  Workers are forked only on Linux, from a process that may have
    children (not a daemonic worker) and runs no other Python thread, whose
    locks the fork would copy mid-use.  Otherwise, on one worker, and when a
    worker cannot be started (fork's ``EAGAIN``), the cells run in this
    process.  ``map`` returns the results in cell order and raises the first
    failing cell's error in that order, as the serial loop does.  A worker
    that dies (a signal, the out-of-memory killer) ends the call with
    :class:`WorkerLostError`.  Workers ignore SIGINT, so a Ctrl-C interrupts
    this process alone; the pool is shut down on every exit, so no worker
    outlives the call.
    """
    if workers <= 1 or not sys.platform.startswith("linux"):
        return list(map(run_cell, cells))
    import multiprocessing  # here, so importing calcheck starts nothing
    import signal
    import threading
    import warnings
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    if (multiprocessing.current_process().daemon or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return list(map(run_cell, cells))
    known = set(multiprocessing.active_children())
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork while any thread lives; the only
            # ones left are native, such as OpenBLAS's, which handles forks
            warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks",
                                    DeprecationWarning)
            pool = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN))
            results = pool.map(run_cell, cells)  # the first cell forks every worker
    except OSError:  # no process to spare: stop those that started, run the cells here
        for proc in set(multiprocessing.active_children()) - known:
            proc.terminate()
            proc.join()
        return list(map(run_cell, cells))
    try:
        return list(results)
    except BrokenProcessPool:
        raise WorkerLostError(
            "a drift sweep worker process ended without its result "
            "(killed by a signal or out of memory)") from None
    finally:
        pool.shutdown(cancel_futures=True)


def drift_sweep(
    base: RobotSimConfig,
    multipliers: Sequence[float],
    n_seeds: int,
    monitor: EValueConfig,
) -> tuple[DriftSweepEntry, ...]:
    """Run the half-plane monitor over a grid of drift magnitudes.

    For each (multiplier, seed) the robot sim is rerun and the monitor's
    martingale is advanced over its whole run in one step call, which
    returns the running log e-value after every step.  Reports
    per-multiplier alarm counts, the median first-crossing time among
    alarmed seeds, and the across-seed 5%/50%/95% envelope of the running
    e-value, as one entry per multiplier in the order given.

    The cells share no state, so they run in forked worker processes, one
    per usable CPU (the affinity mask, capped by a cgroup v2 CPU quota; at
    most one per cell).  They run in this process on one CPU, where fork is
    not safe or not available (see ``_map_cells``), when no worker can be
    started, and when ``run_robot_sim`` or ``monitor_step_halfplane`` has
    been wrapped on this module, so the wrapper sees every cell.  Each cell
    draws from its own seeded streams, so the entries are identical to a
    serial run's; a cell's error is raised as the serial loop would raise
    it, from the first failing cell in grid order.  A worker that dies
    raises :class:`WorkerLostError`, and no worker outlives the call.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    cells = [replace(base, drift_multiplier=float(mult), seed=base.seed + s)
             for mult in multipliers for s in range(n_seeds)]
    workers = 1 if (run_robot_sim, monitor_step_halfplane) != _CELL_LAYERS else min(
        len(cells), _usable_cpus())
    results = _map_cells(partial(_sweep_cell, monitor=monitor), cells, workers)
    entries = []
    for i, mult in enumerate(multipliers):
        states, log_traces = zip(*results[i * n_seeds:(i + 1) * n_seeds])
        crossings = [state.first_crossing for state in states if state.alarmed]
        envelope = np.exp(
            np.percentile(np.stack(log_traces), [5.0, 50.0, 95.0], axis=0).T
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
    return tuple(entries)
