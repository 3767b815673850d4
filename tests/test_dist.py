import math

import numpy as np
import pytest

from calcheck.dist import (
    GaussianPrediction,
    MvGaussianPrediction,
    ParametricPrediction,
    ParticleCloudPrediction,
    centered_interval,
    chi2_cdf,
    chi2_qtl,
    ellipsoid_contains,
    exponential_prediction,
    gamma_prediction,
    mahalanobis_sq,
    moment_match_gaussian,
    project_particles,
    scalar_cdf,
    student_t_prediction,
    weighted_quantile,
)
from calcheck.errors import InvalidDistributionError
from calcheck.records import GaussianBatch, MvGaussianBatch


def equal_cloud(points):
    pts = np.asarray(points, dtype=float)
    return ParticleCloudPrediction(weights=np.full(len(pts), 1.0 / len(pts)), points=pts)


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------

def test_gaussian_requires_positive_sigma():
    with pytest.raises(InvalidDistributionError):
        GaussianPrediction(mu=0.0, sigma=0.0)
    with pytest.raises(InvalidDistributionError):
        GaussianPrediction(mu=0.0, sigma=-1.0)


def test_mv_gaussian_rejects_asymmetric_and_indefinite():
    with pytest.raises(InvalidDistributionError):
        MvGaussianPrediction(mu=[0, 0], cov=[[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(InvalidDistributionError):
        MvGaussianPrediction(mu=[0, 0], cov=[[1.0, 2.0], [2.0, 1.0]])


def test_particle_weights_renormalized_within_tolerance():
    w = np.array([0.5, 0.499999999])  # sums to 0.999999999
    cloud = ParticleCloudPrediction(weights=w, points=np.zeros((2, 1)))
    assert cloud.weights.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(InvalidDistributionError):
        ParticleCloudPrediction(weights=[0.5, 0.4], points=np.zeros((2, 1)))
    with pytest.raises(InvalidDistributionError):
        ParticleCloudPrediction(weights=[1.0], points=np.zeros((1, 1)))


def test_record_checks_outcome_dimension():
    with pytest.raises(InvalidDistributionError, match="dimension 1, prediction expects 2"):
        MvGaussianBatch(mu=[[0, 0]], cov=[np.eye(2)], y=[[1.0]])
    recs = GaussianBatch(mu=[0.0], sigma=[1.0], y=[2.5])
    assert recs.y.shape == (1, 1)
    assert recs.y[0, 0] == 2.5


# ---------------------------------------------------------------------------
# centered intervals
# ---------------------------------------------------------------------------

def test_centered_interval_standard_normal_68():
    lo, hi = centered_interval(GaussianPrediction(0.0, 1.0), 0.6827)
    assert lo == pytest.approx(-1.0, abs=5e-4)
    assert hi == pytest.approx(1.0, abs=5e-4)


def test_centered_interval_collapses_to_median():
    lo, hi = centered_interval(GaussianPrediction(5.0, 2.0), 1e-12)
    assert lo == pytest.approx(5.0, abs=1e-5)
    assert hi == pytest.approx(5.0, abs=1e-5)


def test_centered_interval_exponential_closed_form():
    pred = exponential_prediction(rate=1.0)
    lo, hi = centered_interval(pred, 0.5)
    assert lo == pytest.approx(-math.log(0.75), rel=1e-12)
    assert hi == pytest.approx(-math.log(0.25), rel=1e-12)


def test_centered_interval_rejects_bad_level():
    with pytest.raises(ValueError):
        centered_interval(GaussianPrediction(0, 1), 0.0)
    with pytest.raises(ValueError):
        centered_interval(GaussianPrediction(0, 1), 1.0)


def test_interval_mass_matches_level_for_builtin_families():
    preds = [
        exponential_prediction(rate=0.7),
        gamma_prediction(shape=3.0, scale=2.0),
        student_t_prediction(df=5, loc=1.0, scale=2.0),
    ]
    for pred in preds:
        for level in (0.1, 0.5, 0.6827, 0.95):
            lo, hi = centered_interval(pred, level)
            mass = float(pred.cdf(hi) - pred.cdf(lo))
            assert mass == pytest.approx(level, abs=1e-9)


def test_cdf_qtl_roundtrip_on_grid():
    grid = np.linspace(1e-4, 1 - 1e-4, 1000)
    preds = [
        exponential_prediction(rate=2.0),
        gamma_prediction(shape=2.5, scale=0.5),
        student_t_prediction(df=7),
    ]
    for pred in preds:
        u = np.array([float(pred.cdf(pred.qtl(q))) for q in grid])
        assert np.max(np.abs(u - grid)) < 1e-9


# ---------------------------------------------------------------------------
# Mahalanobis / ellipsoids
# ---------------------------------------------------------------------------

def test_mahalanobis_zero_at_mean():
    pred = MvGaussianPrediction(mu=[1.0, -2.0], cov=[[2.0, 0.3], [0.3, 1.0]])
    assert mahalanobis_sq(pred, [1.0, -2.0]) == 0.0


def test_mahalanobis_identity_cov_is_squared_norm():
    pred = MvGaussianPrediction(mu=[0.0, 0.0], cov=np.eye(2))
    assert mahalanobis_sq(pred, [3.0, 4.0]) == pytest.approx(25.0, rel=1e-12)


def test_mahalanobis_diagonal_cov():
    pred = MvGaussianPrediction(mu=[0.0, 0.0], cov=np.diag([4.0, 1.0]))
    assert mahalanobis_sq(pred, [2.0, 1.0]) == pytest.approx(2.0, rel=1e-12)


def test_mahalanobis_affine_invariance():
    rng = np.random.default_rng(7)
    for _ in range(25):
        d = rng.integers(2, 5)
        a = rng.normal(size=(d, d)) + d * np.eye(d)
        mu = rng.normal(size=d)
        m = rng.normal(size=(d, d))
        cov = m @ m.T + 0.5 * np.eye(d)
        y = mu + rng.normal(size=d)
        base = mahalanobis_sq(MvGaussianPrediction(mu=mu, cov=cov), y)
        mapped = mahalanobis_sq(
            MvGaussianPrediction(mu=a @ mu, cov=a @ cov @ a.T), a @ y
        )
        assert mapped == pytest.approx(base, abs=1e-8, rel=1e-8)


def test_ellipsoid_contains_center_and_chi2_boundary():
    pred = MvGaussianPrediction(mu=[0.0, 0.0], cov=np.eye(2))
    assert ellipsoid_contains(pred, [0.0, 0.0], 0.999)
    # chi2_2 quantile at 0.5 is 2 ln 2 from cdf(x) = 1 - exp(-x/2)
    radius = math.sqrt(2.0 * math.log(2.0))
    assert ellipsoid_contains(pred, [radius, 0.0], 0.5)
    assert not ellipsoid_contains(pred, [math.sqrt(10.0), 0.0], 0.5)


def test_chi2_helpers_match_closed_form_d2():
    xs = np.array([0.1, 1.0, 2.0 * math.log(2.0), 5.0])
    assert np.allclose(chi2_cdf(xs, 2), 1.0 - np.exp(-xs / 2.0), atol=1e-12)
    assert chi2_qtl(0.5, 2) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# weighted quantiles and projections
# ---------------------------------------------------------------------------

def test_weighted_quantile_equal_weights_median():
    assert weighted_quantile([0.25] * 4, [1.0, 2.0, 3.0, 4.0], 0.5) == 2.0


def test_weighted_quantile_degenerate_single_value():
    for q in (0.01, 0.5, 0.99):
        assert weighted_quantile([1.0], [7.3], q) == 7.3


def test_weighted_quantile_skewed_weights():
    assert weighted_quantile([0.9, 0.1], [0.0, 100.0], 0.95) == 100.0


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


def test_project_particles_axis_and_inner_product():
    cloud = ParticleCloudPrediction(
        weights=[0.5, 0.5], points=[[3.0, 4.0], [1.0, -1.0]]
    )
    w, z = project_particles(cloud, [1.0, 0.0])
    assert np.array_equal(z, [3.0, 1.0])
    assert w.sum() == 1.0  # total weight preserved exactly
    _, z2 = project_particles(cloud, [0.6, 0.8])
    assert z2[0] == pytest.approx(5.0, rel=1e-12)


def test_project_particles_opposite_pair_cancels():
    v = np.array([2.0, -1.5])
    cloud = equal_cloud([v, -v])
    rng = np.random.default_rng(3)
    d = rng.normal(size=2)
    d /= np.linalg.norm(d)
    w, z = project_particles(cloud, d)
    assert float(w @ z) == pytest.approx(0.0, abs=1e-12)


def test_project_particles_requires_unit_direction():
    cloud = equal_cloud([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        project_particles(cloud, [1.0, 1.0])
    with pytest.raises(ValueError):
        project_particles(cloud, [1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# moment matching
# ---------------------------------------------------------------------------

def test_moment_match_hand_example_with_regularization():
    cloud = equal_cloud([[0.0, 0.0], [2.0, 0.0]])
    fit = moment_match_gaussian(cloud)
    assert np.allclose(fit.mu, [1.0, 0.0])
    assert fit.cov[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert fit.cov[1, 1] == pytest.approx(0.0, abs=1e-12)
    # zero-variance axis is only usable thanks to the jitter retry
    assert mahalanobis_sq(fit, [1.0, 0.0]) == 0.0


def test_moment_match_recovers_generating_moments():
    rng = np.random.default_rng(5)
    mu = np.array([1.0, -2.0])
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    draws = rng.multivariate_normal(mu, cov, size=100_000)
    fit = moment_match_gaussian(equal_cloud(draws))
    assert np.allclose(fit.mu, mu, atol=0.05 * np.sqrt(np.diag(cov)).max())
    assert np.allclose(fit.cov, cov, rtol=0.05, atol=0.05)


def test_moment_match_symmetric_cloud_small_cross_term():
    rng = np.random.default_rng(9)
    draws = rng.normal(size=(100_000, 2)) * np.array([1.0, 3.0])
    fit = moment_match_gaussian(equal_cloud(draws))
    assert abs(fit.cov[0, 1]) < 0.05


def test_moment_match_identical_particles_errors():
    cloud = equal_cloud([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(InvalidDistributionError):
        moment_match_gaussian(cloud)


def test_scalar_cdf_rejects_clouds():
    from calcheck.errors import UnsupportedMetricError

    cloud = equal_cloud([[0.0], [1.0]])
    with pytest.raises(UnsupportedMetricError):
        scalar_cdf(cloud, 0.5)
