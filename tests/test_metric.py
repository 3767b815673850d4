import math

import numpy as np
import pytest

from calcheck.errors import DataError, UnsupportedMetricError
from calcheck.metric import (
    CoverageCurve,
    LevelGrid,
    PitSample,
    coverage_counts,
    fold,
    pit,
    variance_bin,
)
from calcheck.hyptest import ONE_SIDED, HypothesisSpec, ks_statistic, ks_critical
from calcheck.records import GaussianBatch, MvGaussianBatch, ParticleBatch


def gaussian_records(mus, sigmas, ys):
    return GaussianBatch(np.atleast_1d(mus), np.atleast_1d(sigmas), np.atleast_1d(ys))


def one_cloud_batch():
    return ParticleBatch([[0.5, 0.5]], [[[0.0], [1.0]]], [[0.5]])


def test_level_grid_default_and_validation():
    grid = LevelGrid.default()
    assert grid.k == 10
    assert np.allclose(
        grid.levels, [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95]
    )
    with pytest.raises(ValueError):
        LevelGrid([0.5, 0.5])
    with pytest.raises(ValueError):
        LevelGrid([0.0, 0.5])


# ---------------------------------------------------------------------------
# PIT and folding
# ---------------------------------------------------------------------------

def test_pit_at_median_is_half():
    recs = gaussian_records([3.0], [2.0], [3.0])
    assert pit(recs).values[0] == 0.5


def test_pit_standard_normal_table_value():
    recs = gaussian_records([0.0], [1.0], [1.6449])
    assert pit(recs).values[0] == pytest.approx(0.95, abs=1e-4)


def test_pit_mv_gaussian_chi2_reduction():
    radius = math.sqrt(2.0 * math.log(2.0))
    recs = MvGaussianBatch(mu=[[0.0, 0.0]], cov=[np.eye(2)], y=[[radius, 0.0]])
    assert pit(recs).values[0] == pytest.approx(0.5, rel=1e-12)


def test_pit_undefined_for_particles():
    with pytest.raises(UnsupportedMetricError):
        pit(one_cloud_batch())


def test_pit_empty_errors():
    with pytest.raises(DataError):
        pit(gaussian_records([], [], []))


def test_fold_values_and_double_fold_error():
    s = PitSample(values=[0.5, 0.0, 1.0, 0.975])
    f = fold(s)
    assert f.folded
    assert np.allclose(f.values, [0.0, 1.0, 1.0, 0.95])
    with pytest.raises(ValueError):
        fold(f)


def test_fold_preserves_uniformity():
    # KS on folded uniforms at alpha=0.01 should pass nearly always
    rng = np.random.default_rng(123)
    spec = HypothesisSpec()
    passes = 0
    reps = 100
    for _ in range(reps):
        u = rng.uniform(size=100_000)
        folded = fold(PitSample(values=u))
        d = ks_statistic(folded, spec)
        passes += d <= ks_critical(100_000, 0.01)
    assert passes >= 98


# ---------------------------------------------------------------------------
# coverage counts
# ---------------------------------------------------------------------------

def test_coverage_all_medians_hit_every_level():
    n = 20
    recs = gaussian_records(np.zeros(n), np.ones(n), np.zeros(n))
    curve = coverage_counts(recs, LevelGrid.default())
    assert np.all(curve.counts == n)


def test_coverage_hand_counted_at_95():
    recs = gaussian_records([0.0] * 3, [1.0] * 3, [0.0, 0.5, 3.0])
    curve = coverage_counts(recs, LevelGrid([0.95]))
    assert curve.counts[0] == 2  # qtl(0.975) ~ 1.96 so only 3.0 falls outside


def test_coverage_matches_folded_ecdf_bit_for_bit():
    rng = np.random.default_rng(21)
    grid = LevelGrid.default()
    for _ in range(50):
        n = int(rng.integers(1, 200))
        recs = gaussian_records(
            rng.normal(size=n), rng.uniform(0.5, 2.0, size=n), rng.normal(size=n)
        )
        curve = coverage_counts(recs, grid)
        folded = fold(pit(recs))
        for k, lam in enumerate(grid.levels):
            assert curve.counts[k] / curve.n == np.mean(folded.values <= lam)


def test_coverage_calibrated_monte_carlo():
    rng = np.random.default_rng(77)
    n = 100_000
    mus = rng.normal(size=n)
    sigmas = rng.uniform(0.5, 2.0, size=n)
    ys = mus + sigmas * rng.standard_normal(n)
    recs = gaussian_records(mus, sigmas, ys)
    grid = LevelGrid.default()
    curve = coverage_counts(recs, grid)
    for lam, frac in zip(grid.levels, curve.fractions):
        assert abs(frac - lam) <= 3.0 * math.sqrt(lam * (1 - lam) / n)


def test_coverage_curve_monotonicity_guard():
    with pytest.raises(ValueError):
        CoverageCurve(levels=LevelGrid([0.1, 0.9]), counts=[2, 1], n=2)


def test_coverage_rejects_particles():
    with pytest.raises(UnsupportedMetricError):
        coverage_counts(one_cloud_batch(), LevelGrid.default())


def test_brownian_bridge_covariance_light():
    # reduced-size version of the acceptance check
    rng = np.random.default_rng(4)
    reps, n = 3000, 200
    u = rng.uniform(size=(reps, n))
    v = np.abs(2.0 * u - 1.0)
    for s, t in ((0.3, 0.3), (0.3, 0.7), (0.5, 0.9)):
        cs = (v <= s).mean(axis=1)
        ct = (v <= t).mean(axis=1)
        emp = np.cov(cs, ct)[0, 1]
        theory = (min(s, t) - s * t) / n
        assert emp == pytest.approx(theory, rel=0.2)


# ---------------------------------------------------------------------------
# variance binning
# ---------------------------------------------------------------------------

def test_variance_bin_equal_sizes_366():
    recs = gaussian_records(
        np.zeros(366), np.linspace(1.0, 2.0, 366), np.zeros(366)
    )
    bins = variance_bin(recs, 3)
    sizes = [len(bins.bin_indices(b)) for b in range(3)]
    assert sizes == [122, 122, 122]


def test_variance_bin_tie_stability():
    recs = gaussian_records(np.zeros(10), np.ones(10), np.zeros(10))
    bins = variance_bin(recs, 3)
    sizes = [len(bins.bin_indices(b)) for b in range(3)]
    assert max(sizes) - min(sizes) <= 1
    # ties broken by record order: first records land in the lower bins
    assert bins.assignments[0] == 0
    assert bins.assignments[-1] == 2


def test_variance_bin_single_bin_is_whole_sample():
    recs = gaussian_records(np.zeros(5), np.arange(1.0, 6.0), np.zeros(5))
    bins = variance_bin(recs, 1)
    assert len(bins.bin_indices(0)) == 5


def test_variance_bin_rejects_more_bins_than_records():
    recs = gaussian_records(np.zeros(3), np.ones(3), np.zeros(3))
    with pytest.raises(ValueError):
        variance_bin(recs, 4)


def test_variance_bin_mv_uses_log_det_ordering():
    recs = MvGaussianBatch(
        mu=np.zeros((3, 2)), cov=[s * np.eye(2) for s in (3.0, 1.0, 2.0)], y=np.zeros((3, 2))
    )
    bins = variance_bin(recs, 3)
    assert list(bins.assignments) == [2, 0, 1]


def test_coverage_counts_ellipsoid_center_and_chi2_boundary():
    # chi2_2 quantile at 0.5 is 2 ln 2 from cdf(x) = 1 - exp(-x/2)
    radius = math.sqrt(2.0 * math.log(2.0))
    recs = MvGaussianBatch(mu=np.zeros((3, 2)), cov=[np.eye(2)] * 3,
                           y=[[0.0, 0.0], [radius, 0.0], [math.sqrt(10.0), 0.0]])
    curve = coverage_counts(recs, LevelGrid([0.5, 0.999]))
    # the center and the boundary point lie in the 0.5 ellipsoid, the far point only at 0.999
    assert curve.counts.tolist() == [2, 3]


# ---------------------------------------------------------------------------
# half-plane coverage
# ---------------------------------------------------------------------------

def test_halfplane_coverage_calibrated_and_monotone():
    rng = np.random.default_rng(17)
    grid = LevelGrid.default()
    m = 300
    pts, ys = [], []
    for _ in range(400):
        pts.append(rng.normal(size=(m, 2)))
        ys.append(pts[-1][rng.integers(0, m)])
    records = ParticleBatch([np.full(m, 1.0 / m)] * len(pts), pts, ys)
    curve = coverage_counts(records, grid, np.random.default_rng(99))
    assert np.all(np.diff(curve.counts) >= 0)
    for lam, frac in zip(grid.levels, curve.fractions):
        se = math.sqrt(lam * (1 - lam) / len(records))
        assert abs(frac - lam) <= 4.0 * se + 2.0 / 300
