"""Per-family distribution math as the record batches and the metric compute
it: parameter checks, squared Mahalanobis distances through the chi-square CDF,
and weighted quantiles of particle clouds."""

import math

import numpy as np
import pytest

from calcheck.errors import InvalidDistributionError
from calcheck.metric import weighted_quantile
from calcheck.records import GaussianBatch, MvGaussianBatch, ParticleBatch, chi2_cdf


# ---------------------------------------------------------------------------
# parameter checks
# ---------------------------------------------------------------------------

def test_gaussian_requires_positive_sigma():
    for sigma in (0.0, -1.0):
        with pytest.raises(InvalidDistributionError, match="sigma must be > 0"):
            GaussianBatch(mu=[0.0, 0.0], sigma=[1.0, sigma], y=[0.0, 0.0])


def test_mv_gaussian_rejects_asymmetric_and_indefinite():
    with pytest.raises(InvalidDistributionError, match="symmetric"):
        MvGaussianBatch(mu=[[0, 0]], cov=[[[1.0, 0.5], [0.2, 1.0]]], y=[[0, 0]])
    with pytest.raises(InvalidDistributionError, match="jitter retry failed"):
        MvGaussianBatch(mu=[[0, 0]], cov=[[[1.0, 2.0], [2.0, 1.0]]], y=[[0, 0]])


def test_particle_weights_renormalized_within_tolerance():
    batch = ParticleBatch([[0.5, 0.499999999]], [np.zeros((2, 1))], [[0.0]])  # sums to 0.999999999
    assert batch.w[0].sum() == pytest.approx(1.0, abs=1e-15)
    exact = np.array([0.25, 0.75])
    assert ParticleBatch([exact], [np.zeros((2, 1))], [[0.0]]).w[0].tobytes() == exact.tobytes()
    for w, pts, error in (([0.5, 0.4], np.zeros((2, 1)), "weights sum to"),
                          ([1.0], np.zeros((1, 1)), "at least 2 particles"),
                          ([1.5, -0.5], np.zeros((2, 1)), "nonnegative"),
                          ([0.5, 0.5], [[0.0], [np.nan]], "finite"),
                          ([0.5, 0.5], np.zeros((3, 1)), "do not match")):
        with pytest.raises(InvalidDistributionError, match=error):
            ParticleBatch([w], [pts], [[0.0]])


def test_record_checks_outcome_dimension():
    with pytest.raises(InvalidDistributionError, match="dimension 1, prediction expects 2"):
        MvGaussianBatch(mu=[[0, 0]], cov=[np.eye(2)], y=[[1.0]])
    with pytest.raises(InvalidDistributionError, match="dimension 1, prediction expects 2"):
        ParticleBatch([[0.5, 0.5]], [np.zeros((2, 2))], [[1.0]])
    recs = GaussianBatch(mu=[0.0], sigma=[1.0], y=[2.5])
    assert recs.y.shape == (1, 1)
    assert recs.y[0, 0] == 2.5


# ---------------------------------------------------------------------------
# multivariate PIT: the squared Mahalanobis distance through chi2_cdf
# ---------------------------------------------------------------------------

def mv_pit(mu, cov, y) -> float:
    return float(MvGaussianBatch([mu], [cov], [y]).pit_values()[0])


def test_chi2_helpers_match_closed_form_d2():
    xs = np.array([0.1, 1.0, 2.0 * math.log(2.0), 5.0])
    assert np.allclose(chi2_cdf(xs, 2), 1.0 - np.exp(-xs / 2.0), atol=1e-12)


def test_mahalanobis_zero_at_mean():
    assert mv_pit([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]], [1.0, -2.0]) == 0.0


def test_mahalanobis_identity_cov_is_squared_norm():
    assert mv_pit([0.0, 0.0], np.eye(2), [3.0, 4.0]) == pytest.approx(
        float(chi2_cdf(25.0, 2)), rel=1e-12)


def test_mahalanobis_diagonal_cov():
    assert mv_pit([0.0, 0.0], np.diag([4.0, 1.0]), [2.0, 1.0]) == pytest.approx(
        float(chi2_cdf(2.0, 2)), rel=1e-12)


def test_mahalanobis_affine_invariance():
    rng = np.random.default_rng(7)
    for _ in range(25):
        d = rng.integers(2, 5)
        a = rng.normal(size=(d, d)) + d * np.eye(d)
        mu = rng.normal(size=d)
        m = rng.normal(size=(d, d))
        cov = m @ m.T + 0.5 * np.eye(d)
        y = mu + rng.normal(size=d)
        base = mv_pit(mu, cov, y)
        mapped = mv_pit(a @ mu, a @ cov @ a.T, a @ y)
        assert mapped == pytest.approx(base, abs=1e-8, rel=1e-8)


# ---------------------------------------------------------------------------
# weighted quantiles
# ---------------------------------------------------------------------------

def test_weighted_quantile_equal_weights_median():
    assert weighted_quantile([0.25] * 4, [1.0, 2.0, 3.0, 4.0], 0.5) == 2.0


def test_weighted_quantile_degenerate_single_value():
    for q in (0.01, 0.5, 0.99):
        assert weighted_quantile([1.0], [7.3], q) == 7.3


def test_weighted_quantile_skewed_weights():
    assert weighted_quantile([0.9, 0.1], [0.0, 100.0], 0.95) == 100.0


def test_halfplane_interval_at_the_level_one_ulp_below_one():
    # (1 + lambda) / 2 rounds to 1 there, outside weighted_quantile's domain
    lam = np.nextafter(1.0, 0.0)
    assert (1.0 + lam) / 2.0 == 1.0
    cloud = ParticleBatch([[0.25, 0.5, 0.25]], [[[0.0], [1.0], [2.0]]], [[2.0]])
    assert cloud.covered(np.array([0.5, lam]), np.random.default_rng(0)).tolist() == [
        [False, True]]


def test_weighted_quantile_empty_errors():
    with pytest.raises(ValueError):
        weighted_quantile([], [], 0.5)


def test_weighted_quantile_matches_order_statistic():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        values = rng.normal(size=n)
        q = float(rng.uniform(0.01, 0.99))
        got = weighted_quantile(np.full(n, 1.0 / n), values, q)
        expected = np.sort(values)[math.ceil(q * n) - 1]
        assert got == expected


def test_weighted_quantile_array_matches_scalar_calls():
    rng = np.random.default_rng(12)
    weights = rng.dirichlet(np.ones(30))
    values = np.round(rng.normal(size=30), 1)  # ties exercise the policy
    q = np.array([[0.05, 0.25], [0.5, 0.999]])
    got = weighted_quantile(weights, values, q)
    assert got.shape == q.shape
    for idx in np.ndindex(q.shape):
        assert got[idx] == weighted_quantile(weights, values, float(q[idx]))
    with pytest.raises(ValueError):
        weighted_quantile(weights, values, [0.5, 1.0])
