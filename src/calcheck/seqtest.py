"""Online testing: likelihood-ratio e-values and anytime-valid monitors.

An e-value is a nonnegative statistic with null expectation at most 1; its
running product is a test martingale that may be inspected at every step,
with Type-I error controlled by Ville's inequality.  The monitors here
multiply one likelihood-ratio e-value per incoming prediction/outcome pair
and raise an alarm at the first crossing of ``1/alpha``.

The running product is held in log space: an all-miss stream doubles the
product every step, which would overflow floating point near one thousand
steps if stored directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError
from .metric import halfplane_indicator

__all__ = [
    "EValueConfig",
    "MartingaleState",
    "lr_evalue",
    "average_evalues",
    "gaussian_interval",
    "monitor_step_gaussian",
    "monitor_step_halfplane",
]


@dataclass(frozen=True)
class EValueConfig:
    """Level, over-confidence alternative, and alarm significance.

    ``p_alt`` must sit below the coverage level: the alternative is that
    intervals cover less often than claimed.  It has no canonical default;
    ``level - 0.1`` is a reasonable sensitivity knob, and a misspecified
    alternative delays detection but never breaks validity.
    """

    level: float
    p_alt: float
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise ConfigError(f"level must lie in (0, 1), got {self.level}")
        if not 0.0 < self.p_alt < self.level:
            raise ConfigError(
                f"p_alt must lie in (0, level), got {self.p_alt} at level {self.level}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")

    @property
    def log_threshold(self) -> float:
        """ln(1/alpha), the alarm line in log space."""
        return -math.log(self.alpha)


@dataclass(frozen=True)
class MartingaleState:
    """Immutable snapshot of a running test martingale.

    ``alarmed`` latches at the first step where the product exceeds
    ``1/alpha`` and ``first_crossing`` records that step; the trajectory
    keeps accumulating afterwards for diagnostics, but the decision contract
    is the first crossing.
    """

    log_e: float = 0.0
    t: int = 0
    alarmed: bool = False
    first_crossing: int | None = None

    @property
    def e_value(self) -> float:
        return math.exp(self.log_e)

    def advanced(self, log_step: float, config: EValueConfig) -> "MartingaleState":
        """Next state after multiplying by one per-step e-value."""
        log_e = self.log_e + log_step
        t = self.t + 1
        if not self.alarmed and log_e > config.log_threshold:
            return MartingaleState(log_e=log_e, t=t, alarmed=True, first_crossing=t)
        return MartingaleState(
            log_e=log_e, t=t, alarmed=self.alarmed, first_crossing=self.first_crossing
        )


def lr_evalue(k: int, config: EValueConfig) -> float:
    """Single-observation likelihood ratio for a coverage indicator.

    ``(p_alt/level)^k * ((1-p_alt)/(1-level))^(1-k)``; its null expectation
    is exactly 1 for every valid configuration.
    """
    if k not in (0, 1):
        raise ValueError(f"indicator must be 0 or 1, got {k}")
    if k:
        return config.p_alt / config.level
    return (1.0 - config.p_alt) / (1.0 - config.level)


def _log_lr(k: int, config: EValueConfig) -> float:
    if k:
        return math.log(config.p_alt) - math.log(config.level)
    return math.log1p(-config.p_alt) - math.log1p(-config.level)


def average_evalues(es) -> float:
    """Arithmetic mean of e-values, itself a valid e-value regardless of
    dependence between the inputs."""
    arr = np.asarray(es, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one e-value")
    if np.any(arr < 0.0):
        raise ValueError("e-values must be nonnegative")
    return float(arr.mean())


def gaussian_interval(mu: float, sigma: float, level: float) -> tuple[float, float]:
    """Centered interval of ``N(mu, sigma^2)`` carrying probability mass ``level``.

    Returns the ``(1-level)/2`` and ``(1+level)/2`` quantiles, the interval
    placed symmetrically (in probability) around the median.
    """
    if not (0.0 < level < 1.0 and sigma > 0.0):
        raise ValueError(f"need 0 < level < 1 and sigma > 0, got {level} and {sigma}")
    return (float(mu + sigma * ndtri((1.0 - level) / 2.0)),
            float(mu + sigma * ndtri((1.0 + level) / 2.0)))


def monitor_step_gaussian(
    state: MartingaleState,
    mu: float,
    sigma: float,
    y: float,
    config: EValueConfig,
) -> MartingaleState:
    """One step of the scalar-Gaussian coverage monitor.

    Forms the centered interval of ``N(mu, sigma^2)`` at the configured
    level, scores the coverage indicator (weak inequalities at the
    endpoints), and multiplies the running martingale by the
    likelihood-ratio e-value of that indicator.
    """
    y = float(y)
    if not math.isfinite(y):
        raise ValueError("outcome must be finite")
    lo, hi = gaussian_interval(mu, sigma, config.level)
    k = 1 if lo <= y <= hi else 0
    return state.advanced(_log_lr(k, config), config)


def monitor_step_halfplane(
    state: MartingaleState,
    w: np.ndarray,
    pts: np.ndarray,
    y,
    config: EValueConfig,
    rng: np.random.Generator,
) -> MartingaleState:
    """One step of the half-plane particle monitor on the cloud of weights
    ``w`` ``(m,)`` and points ``pts`` ``(m, d)``.

    Scores the coverage indicator of :func:`calcheck.metric.halfplane_indicator`
    at the configured level, on a fresh direction drawn from ``rng``, and
    feeds it to the martingale.
    """
    k = 1 if halfplane_indicator(w, pts, y, config.level, rng) else 0
    return state.advanced(_log_lr(k, config), config)
