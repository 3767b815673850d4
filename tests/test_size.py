"""Recipe-level size checks: how often a whole recipe, as a user runs it,
rejects records that are calibrated by construction.

These are Monte Carlo runs over hundreds of seeds, marked ``slow`` and
left out of the default run; run them with ``python -m pytest -m slow``.
A recipe's rejection rate must stay within alpha plus three binomial
standard errors of its repetitions.
"""

import math

import pytest

from calcheck.cli import RecipeConfig, run_check, run_monitor
from calcheck.seqtest import EValueConfig
from calcheck.sim import WeatherSimConfig, run_weather_oracle

ALPHA = 0.05
REPS = 400


def size_bound(alpha: float, reps: int) -> float:
    return alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / reps)


@pytest.mark.slow
@pytest.mark.parametrize("testing", ["binom_bonferroni", "binom_holm"])
def test_two_sided_binomial_recipe_holds_its_size_on_the_weather_oracle(testing):
    # the oracle forecasts each day's true distribution, so every level's
    # coverage count is exactly Binomial(n, level)
    config = RecipeConfig(model="gaussian", metric="coverage", testing=testing, alpha=ALPHA)
    rejections = sum(
        run_check(config, run_weather_oracle(WeatherSimConfig(seed=seed))).report["decision"]
        == "reject"
        for seed in range(REPS)
    )
    assert rejections / REPS <= size_bound(ALPHA, REPS)


@pytest.mark.slow
def test_gaussian_monitor_holds_its_size_on_the_weather_oracle_to_horizon_ten_thousand():
    # Ville's bound caps the chance that a calibrated stream ever alarms at
    # alpha, at every horizon; the recipe is monitor's default on Gaussians
    config = RecipeConfig(model="gaussian", metric="coverage", testing="evalue_monitor",
                          evalue=EValueConfig(level=0.9, p_alt=0.8, alpha=ALPHA))
    window = WeatherSimConfig().window
    alarms = 0
    for seed in range(REPS):
        records = run_weather_oracle(WeatherSimConfig(seed=seed, n_days=10_000 + window))
        assert len(records) == 10_000
        alarms += run_monitor(config, [records]).report["decision"] == "reject"
    assert alarms / REPS <= size_bound(ALPHA, REPS)
