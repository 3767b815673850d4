"""Per-family distribution math as the record batches and the metric compute
it: parameter checks, squared Mahalanobis distances through the chi-square CDF,
and weighted quantiles of particle clouds, scored a stack of clouds at a time
and checked against a one-cloud-at-a-time oracle."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calcheck import records
from calcheck.errors import InvalidDistributionError
from calcheck.metric import random_direction, weighted_quantile
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


def test_halfplane_indicator_scales_clouds_whose_projections_would_overflow():
    # finite points near the float maximum project to inf unless scaled; the
    # interval test is scale-free, so the cloud scores as its copy at 2**-600
    pts = np.array([[1.5e308, 1.5e308], [-1.5e308, 1e308]])
    levels = np.array([0.1, 0.5, 0.9])
    for seed in range(20):
        for y in ([0.0, 1.2e308], [1.5e308, 1.5e308], [-1e308, -1e308]):
            big = ParticleBatch([[0.5, 0.5]], [pts], [y])
            small = ParticleBatch([[0.5, 0.5]], [pts * 2.0**-600], [np.multiply(y, 2.0**-600)])
            assert np.array_equal(big.covered(levels, np.random.default_rng(seed)),
                                  small.covered(levels, np.random.default_rng(seed)))


def oracle_quantile(weights, values, q):
    """The weighted quantile of one cloud from a stable sort, as it was
    computed before clouds were stacked."""
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    idx = np.minimum(np.searchsorted(cum, q * cum[-1], side="left"), values.size - 1)
    return values[order[idx]]


def oracle_indicator(w, pts, y, levels, rng):
    """One cloud's half-plane indicators, one direction: the per-cloud path
    that stacked coverage replaced, kept as the oracle it must match."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d = random_direction(pts.shape[1], rng)
    k = np.frexp(max(np.abs(pts).max(), np.abs(y).max()))[1]
    if k > 500:
        pts, y = pts * np.ldexp(1.0, -k), y * np.ldexp(1.0, -k)
    q = np.minimum(np.array([1.0 - levels, 1.0 + levels]) / 2.0, np.nextafter(1.0, 0.0))
    lo, hi = oracle_quantile(w, pts @ d, q)
    zy = float(y @ d)
    return (lo <= zy) & (zy <= hi)


CLOUD_KINDS = ("spread", "point_mass", "tied", "signed_zeros", "huge")


def cloud(rng, kind: str, m: int, dim: int):
    """Weights, points and an outcome of one cloud of ``kind``."""
    w = rng.dirichlet(np.ones(m))
    if kind == "point_mass":
        pts = np.ones((m, dim))
    elif kind == "tied":
        pts = rng.integers(-1, 2, size=(m, dim)).astype(float)
    elif kind == "signed_zeros":
        pts = np.where(rng.random((m, dim)) < 0.5, 0.0, -0.0)
    elif kind == "huge":
        pts = rng.uniform(-1.0, 1.0, size=(m, dim)) * 1.5e308
    else:
        pts = rng.normal(size=(m, dim))
    # the outcome is now and then a particle, tied with its projection
    y = pts[rng.integers(m)] if rng.random() < 0.5 else pts[0] + rng.normal(size=dim)
    return w, pts, y


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3),
       st.lists(st.tuples(st.sampled_from(CLOUD_KINDS), st.sampled_from([2, 3, 7, 40])),
                min_size=1, max_size=6),
       st.lists(st.integers(1, 8), min_size=6, max_size=6),
       st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                min_size=1, max_size=6, unique=True),
       st.booleans(), st.sampled_from([records.STACK_PARTICLES, 20]), st.integers(0, 2**32 - 1))
def test_stacked_coverage_matches_the_per_cloud_oracle(dim, runs, counts, levels, top,
                                                       stack, seed):
    # runs of equal-size clouds, ragged between runs and cut into stacks of
    # at most `stack` particles, score bit for bit as one cloud at a time on
    # one direction each, and leave the generator where the oracle leaves it
    data = np.random.default_rng(seed)
    clouds = [cloud(data, kind, m, dim) for (kind, m), count in zip(runs, counts)
              for _ in range(count)]
    w, pts, y = zip(*clouds)
    batch = ParticleBatch(w, pts, y)
    levels = np.array(sorted(levels) + [np.nextafter(1.0, 0.0)] * top)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(records, "STACK_PARTICLES", stack):
        got = batch.covered(levels, got_rng)
    want = [oracle_indicator(wi, pi, yi, levels, want_rng)
            for wi, pi, yi in zip(batch.w, batch.pts, batch.y)]
    assert np.array_equal(got, np.array(want).reshape(len(batch), levels.size))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_stacked_coverage_cuts_a_long_run_into_stacks():
    # 9 clouds of 2,000 particles hold more than one stack's particles; the
    # run is cut after every STACK_PARTICLES // 2000 clouds
    rng = np.random.default_rng(3)
    w, pts, y = zip(*(cloud(rng, "spread", 2000, 2) for _ in range(9)))
    batch, levels = ParticleBatch(w, pts, y), np.array([0.1, 0.5, 0.9])
    assert 9 * 2000 > records.STACK_PARTICLES >= 2000
    got_rng, want_rng = np.random.default_rng(4), np.random.default_rng(4)
    got = batch.covered(levels, got_rng)
    want = [oracle_indicator(*cloud_, levels, want_rng) for cloud_ in zip(w, pts, y)]
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_weighted_quantile_answers_each_row_of_a_stack():
    # each row of a stack, tied or not, is answered bit for bit as the
    # stable-sort oracle answers it alone; signed zeros, equal but told apart
    # by their bits, show which of its tied values a row returns
    rng = np.random.default_rng(13)
    m = 300
    values = np.where(rng.random((6, m)) < 0.5, 0.0, -0.0)
    values[:, :m // 4] = rng.integers(-3, 3, size=(6, m // 4))
    values[0] = rng.normal(size=m)  # distinct: the default sort's order stands
    weights = rng.dirichlet(np.ones(m), size=6)
    q = np.array([[0.05, 0.3], [0.5, 0.7]])
    got = weighted_quantile(weights, values, q)
    assert got.shape == (6, 2, 2)
    for row in range(6):
        want = oracle_quantile(weights[row], values[row], q).tobytes()
        assert got[row].tobytes() == want
        assert weighted_quantile(weights[row], values[row], q).tobytes() == want


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
