"""Online testing: likelihood-ratio e-values and anytime-valid monitors.

An e-value is a nonnegative statistic with null expectation at most 1; its
running product is a test martingale that may be inspected at every step,
with Type-I error controlled by Ville's inequality.  The monitor here
multiplies one likelihood-ratio e-value per incoming prediction/outcome pair
and raises an alarm at the first crossing of ``1/alpha``.  One step,
:func:`monitor_step`, serves every prediction family: it scores each
record by the coverage rule (:func:`calcheck.metric.covered`) on its
central PIT, so scalar Gaussian, multivariate Gaussian and particle-cloud
streams are monitored alike.

The running product is held in log space: an all-miss stream doubles the
product every step, which would overflow floating point near one thousand
steps if stored directly.  A step advances the martingale over a whole
record batch at once and returns the running log e-value after each
record, so a stream read in blocks is monitored one block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .metric import central, covered
from .records import RecordBatch

__all__ = [
    "EValueConfig",
    "MartingaleState",
    "monitor_step",
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

    ``first_crossing`` records the first step where the product exceeds
    ``1/alpha``, and the state is ``alarmed`` from then on; the trajectory
    keeps accumulating afterwards for diagnostics, but the decision contract
    is the first crossing.
    """

    log_e: float = 0.0
    t: int = 0
    first_crossing: int | None = None

    @property
    def alarmed(self) -> bool:
        return self.first_crossing is not None

    @property
    def e_value(self) -> float:
        return math.exp(self.log_e)


def _log_lr(k: int, config: EValueConfig) -> float:
    """Log of the likelihood-ratio e-value of one coverage indicator ``k``,
    ``(p_alt/level)^k * ((1-p_alt)/(1-level))^(1-k)``, whose null
    expectation is exactly 1 for every valid configuration."""
    if k:
        return math.log(config.p_alt) - math.log(config.level)
    return math.log1p(-config.p_alt) - math.log1p(-config.level)


def monitor_step(
    state: MartingaleState,
    batch: RecordBatch,
    config: EValueConfig,
    rng: np.random.Generator | None = None,
    ties: np.random.Generator | None = None,
) -> tuple[MartingaleState, np.ndarray]:
    """Advance the coverage monitor over a batch of records of any family.

    Scores each record by the coverage rule :func:`calcheck.metric.covered`
    on its :func:`~calcheck.metric.central` PIT at the configured level, the
    rule :func:`calcheck.metric.coverage_counts` counts by, and multiplies
    the running martingale by the likelihood-ratio e-value of each
    indicator in record order.  Particle clouds need ``rng`` and ``ties``:
    each cloud's half-plane indicator is drawn on a fresh direction from
    ``rng``, and a tie with its particles is broken by a uniform from
    ``ties``, cloud by cloud in record order, so a block step equals
    sequential steps; the other families read neither.  Returns the state
    after the batch and the running log e-value after each of its records.

    ``np.add.accumulate`` over ``[log_e, *steps]`` adds the steps one at a
    time, left to right, so every entry is the sum a step-by-step loop would
    hold, bit for bit; adding the carried ``log_e`` to a cumulative sum of
    the steps would round differently.
    """
    hits = covered(central(batch, rng, ties), np.array([config.level]))[:, 0]
    steps = np.where(hits, _log_lr(1, config), _log_lr(0, config))
    log_e = np.add.accumulate(np.concatenate(([state.log_e], steps)))
    first_crossing = state.first_crossing
    if first_crossing is None:
        above = np.flatnonzero(log_e[1:] > config.log_threshold)
        if above.size:
            first_crossing = state.t + int(above[0]) + 1
    new = MartingaleState(
        log_e=float(log_e[-1]),
        t=state.t + len(steps),
        first_crossing=first_crossing,
    )
    return new, log_e[1:]
