"""Recipe-level size checks: how often a whole recipe, as a user runs it,
rejects records that are calibrated by construction.

These are Monte Carlo runs over hundreds of seeds, marked ``slow`` and
left out of the default run; run them with ``python -m pytest -m slow``.
A recipe's rejection rate must stay within alpha plus three binomial
standard errors of its repetitions.
"""

import math

import numpy as np
import pytest

from calcheck.cli import RecipeConfig, run_check, run_monitor
from calcheck.hyptest import ONE_SIDED, TWO_SIDED, HypothesisSpec
from calcheck.records import MvGaussianBatch, ParticleBatch
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
        run_check(config, [run_weather_oracle(WeatherSimConfig(seed=seed))]).report["decision"]
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


PARTICLE_COUNTS = [2, 5, 20, 100, 500]


def discrete_clouds(seed: int, n: int, m: int) -> ParticleBatch:
    """``n`` weighted 2-D clouds of ``m`` particles, a quarter of them point
    masses, each outcome a particle of its own cloud drawn by weight: the
    clouds are discrete and calibrated by construction."""
    rng = np.random.default_rng([seed, m])
    w = rng.dirichlet(np.ones(m), size=n)
    pts = rng.normal(size=(n, m, 2))
    points = rng.random(n) < 0.25
    pts[points] = pts[points, :1]
    drawn = np.minimum((w.cumsum(axis=1) < rng.random((n, 1))).sum(axis=1), m - 1)
    return ParticleBatch(list(w), list(pts), pts[np.arange(n), drawn])


@pytest.mark.slow
@pytest.mark.parametrize("m", PARTICLE_COUNTS)
@pytest.mark.parametrize("testing, hypothesis", [
    ("binom_bonferroni", HypothesisSpec()),
    ("binom_bonferroni", HypothesisSpec(ONE_SIDED, 0.02)),
    ("binom_bonferroni", HypothesisSpec(ONE_SIDED)),
    ("binom_holm", HypothesisSpec()),
], ids=["two_sided", "one_sided_tolerance", "one_sided", "holm_two_sided"])
def test_binomial_check_holds_its_size_on_discrete_clouds(testing, hypothesis, m):
    # each outcome's projected PIT is uniform, atoms and all, so every
    # level's half-plane count is exactly Binomial(n, level)
    config = RecipeConfig(model="particles", metric="halfplane", testing=testing, alpha=ALPHA,
                          hypothesis=hypothesis)
    rejections = sum(run_check(config, [discrete_clouds(seed, 200, m)]).report["decision"]
                     == "reject" for seed in range(REPS))
    assert rejections / REPS <= size_bound(ALPHA, REPS)


@pytest.mark.slow
@pytest.mark.parametrize("m", PARTICLE_COUNTS)
@pytest.mark.parametrize("metric, sided", [("pit_ks", TWO_SIDED), ("folded_ks", ONE_SIDED)])
def test_ks_check_holds_its_size_on_discrete_clouds(metric, sided, m):
    # the projected PIT itself is exactly Uniform(0, 1), so the KS band of
    # the PIT, or of the folded PIT, holds its size
    config = RecipeConfig(model="particles", metric=metric, testing="ks", alpha=ALPHA,
                          hypothesis=HypothesisSpec(sided))
    rejections = sum(run_check(config, [discrete_clouds(seed, 200, m)]).report["decision"]
                     == "reject" for seed in range(REPS))
    assert rejections / REPS <= size_bound(ALPHA, REPS)


@pytest.mark.slow
@pytest.mark.parametrize("m", PARTICLE_COUNTS)
def test_halfplane_monitor_holds_its_size_on_discrete_clouds(m):
    config = RecipeConfig(model="particles", metric="halfplane", testing="evalue_monitor",
                          evalue=EValueConfig(level=0.9, p_alt=0.8, alpha=ALPHA))
    alarms = sum(run_monitor(config, [discrete_clouds(seed, 300, m)]).report["decision"]
                 == "reject" for seed in range(REPS))
    assert alarms / REPS <= size_bound(ALPHA, REPS)


def mv_gaussians(seed: int, n: int, d: int, inflate: float) -> MvGaussianBatch:
    """``n`` calibrated ``d``-dimensional Gaussians, random means and
    covariances, whose covariances are then multiplied by ``inflate``."""
    rng = np.random.default_rng([seed, d])
    a = rng.normal(size=(n, d, d))
    cov = a @ a.transpose(0, 2, 1) + 0.5 * np.eye(d)
    mu = rng.normal(size=(n, d))
    y = mu + (np.linalg.cholesky(cov) @ rng.standard_normal((n, d, 1)))[:, :, 0]
    return MvGaussianBatch(mu, cov * inflate, y)


@pytest.mark.slow
@pytest.mark.parametrize("inflate", [1.0, 16.0])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("metric, testing", [("coverage", "binom_bonferroni"),
                                             ("folded_ks", "ks")])
def test_one_sided_check_holds_its_size_on_calibrated_and_cautious_mv_gaussians(
        metric, testing, d, inflate):
    # a one-sided recipe rejects over-confidence only: calibrated
    # ellipsoids, and ones whose covariance is 16 times too large, are
    # rejected at most at the size bound
    config = RecipeConfig(model="mv_gaussian", metric=metric, testing=testing, alpha=ALPHA,
                          hypothesis=HypothesisSpec(ONE_SIDED))
    rejections = sum(run_check(config, [mv_gaussians(seed, 200, d, inflate)]).report["decision"]
                     == "reject" for seed in range(REPS))
    assert rejections / REPS <= size_bound(ALPHA, REPS)


# Two-sided recipes and the default monitor, which test calibration itself
MV_RECIPES = {
    "binomial": dict(metric="coverage", testing="binom_bonferroni"),
    "bins3": dict(metric="coverage", testing="binom_bonferroni", bins=3),
    "pit_ks": dict(metric="pit_ks", testing="ks"),
    "monitor": dict(metric="coverage", testing="evalue_monitor",
                    evalue=EValueConfig(level=0.9, p_alt=0.8, alpha=ALPHA)),
}


@pytest.mark.slow
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("name", MV_RECIPES)
def test_recipe_holds_its_size_on_calibrated_mv_gaussians(name, d):
    # each ellipsoid's central PIT is exactly uniform on calibrated records
    config = RecipeConfig(model="mv_gaussian", alpha=ALPHA, **MV_RECIPES[name])
    run = ((lambda batch: run_monitor(config, [batch])) if name == "monitor"
           else (lambda batch: run_check(config, [batch])))
    rejections = sum(run(mv_gaussians(seed, 200, d, 1.0)).report["decision"] == "reject"
                     for seed in range(REPS))
    assert rejections / REPS <= size_bound(ALPHA, REPS)


# The one-sided recipes of the paper's claim (a), and, for the size tier,
# the two-sided PIT test and variance binning, Binomial, one-sided KS and
# two-sided KS, on scalar Gaussians
ONE_SIDED_RECIPES = {
    "binomial": dict(metric="coverage", testing="binom_bonferroni",
                     hypothesis=HypothesisSpec(ONE_SIDED)),
    "holm_tolerance": dict(metric="coverage", testing="binom_holm",
                           hypothesis=HypothesisSpec(ONE_SIDED, 0.02)),
    "folded_ks": dict(metric="folded_ks", testing="ks", hypothesis=HypothesisSpec(ONE_SIDED)),
}
SIZE_RECIPES = {**ONE_SIDED_RECIPES, "pit_ks": dict(metric="pit_ks", testing="ks"),
                "bins3": dict(bins=3),
                "bins3_folded_ks": dict(**ONE_SIDED_RECIPES["folded_ks"], bins=3),
                "bins3_pit_ks": dict(metric="pit_ks", testing="ks", bins=3)}
# rejections of REPS overconfident oracles, sigma x 0.8, measured when the
# power floors were set
MEASURED_POWER = {"binomial": 397, "holm_tolerance": 376, "folded_ks": 398}


def oracle_rejections(recipe: dict, sd_scale: float) -> int:
    """How many of REPS weather oracles, 365 records each, their forecast
    spread scaled by ``sd_scale``, the recipe rejects."""
    config = RecipeConfig(model="gaussian", alpha=ALPHA, **recipe)
    return sum(run_check(config, [run_weather_oracle(WeatherSimConfig(
        seed=seed, injected_sd_scale=sd_scale))]).report["decision"] == "reject"
        for seed in range(REPS))


@pytest.mark.slow
@pytest.mark.parametrize("name", SIZE_RECIPES)
def test_gaussian_recipe_holds_its_size_on_the_weather_oracle(name):
    assert oracle_rejections(SIZE_RECIPES[name], 1.0) / REPS <= size_bound(ALPHA, REPS)


@pytest.mark.slow
@pytest.mark.parametrize("name", ONE_SIDED_RECIPES)
def test_one_sided_recipe_lets_cautious_gaussians_through(name):
    # a forecast spread 1.3 times too wide is cautious, not wrong: claim (a)
    assert oracle_rejections(ONE_SIDED_RECIPES[name], 1.3) / REPS <= size_bound(ALPHA, REPS)


@pytest.mark.slow
@pytest.mark.parametrize("name", ONE_SIDED_RECIPES)
def test_one_sided_recipe_rejects_overconfident_gaussians(name):
    # a spread 0.8 times the truth is rejected at least at the measured
    # rate less three binomial standard errors
    rate = MEASURED_POWER[name] / REPS
    floor = rate - 3.0 * math.sqrt(rate * (1.0 - rate) / REPS)
    assert oracle_rejections(ONE_SIDED_RECIPES[name], 0.8) / REPS >= floor
