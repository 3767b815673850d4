"""Per-family distribution math as the record batches and the metric compute
it: parameter checks, squared Mahalanobis distances through the chi-square CDF,
and the randomized projected PIT of particle clouds, scored all at once and
checked against a one-cloud-at-a-time oracle."""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calcheck import metric
from calcheck.errors import InvalidDistributionError, UnsupportedMetricError
from calcheck.metric import random_direction
from calcheck.records import GaussianBatch, MvGaussianBatch, ParticleBatch, chi2_cdf


# ---------------------------------------------------------------------------
# parameter checks
# ---------------------------------------------------------------------------

def test_gaussian_requires_positive_sigma():
    for sigma in (0.0, -1.0):
        with pytest.raises(InvalidDistributionError, match="sigma must be > 0"):
            GaussianBatch(mu=[0.0, 0.0], sigma=[1.0, sigma], y=[0.0, 0.0])


def test_mv_gaussian_rejects_asymmetric_and_indefinite():
    # entries whose difference overflows are refused without a warning
    for cov in ([[1.0, 0.5], [0.2, 1.0]], [[1.0, 1e308], [-1e308, 1.0]]):
        with pytest.raises(InvalidDistributionError, match="symmetric"):
            MvGaussianBatch(mu=[[0, 0]], cov=[cov], y=[[0, 0]])
    # so is an indefinite one whose jitter passes the float range
    for cov in ([[1.0, 2.0], [2.0, 1.0]], [[-1e19, 0.0], [0.0, sys.float_info.max]]):
        with pytest.raises(InvalidDistributionError, match="jitter retry failed"):
            MvGaussianBatch(mu=[[0, 0]], cov=[cov], y=[[0, 0]])


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
# the randomized projected PIT of particle clouds
# ---------------------------------------------------------------------------

def streams(seed):
    """A direction stream and a tie stream, as a run makes them."""
    return np.random.default_rng([seed, 1]), np.random.default_rng([seed, 3])


def covered(batch, levels, *rngs):
    """The coverage rule on the batch's central PIT, drawn on ``rngs``."""
    return metric.covered(metric.central(batch, *rngs), levels)


def test_halfplane_interval_at_the_level_one_ulp_below_one():
    # the outcome ties with the cloud's top particle, so its PIT is uniform
    # on [0.75, 1]: its folded PIT is above 0.5 and, but for V = 1, below
    # the largest level under 1
    lam = np.nextafter(1.0, 0.0)
    cloud = ParticleBatch([[0.25, 0.5, 0.25]], [[[0.0], [1.0], [2.0]]], [[2.0]])
    assert covered(cloud, np.array([0.5, lam]), *streams(0)).tolist() == [[False, True]]


def test_halfplane_indicator_scales_clouds_whose_projections_would_overflow():
    # finite points near the float maximum project to inf unless scaled; the
    # PIT is scale-free, so the cloud scores as its copy at 2**-600
    pts = np.array([[1.5e308, 1.5e308], [-1.5e308, 1e308]])
    levels = np.array([0.1, 0.5, 0.9])
    for seed in range(20):
        for y in ([0.0, 1.2e308], [1.5e308, 1.5e308], [-1e308, -1e308]):
            big = ParticleBatch([[0.5, 0.5]], [pts], [y])
            small = ParticleBatch([[0.5, 0.5]], [pts * 2.0**-600], [np.multiply(y, 2.0**-600)])
            assert np.array_equal(covered(big, levels, *streams(seed)),
                                  covered(small, levels, *streams(seed)))


def test_particle_coverage_needs_both_streams():
    cloud = ParticleBatch([[0.5, 0.5]], [[[0.0], [1.0]]], [[0.5]])
    for rngs in ((), (np.random.default_rng(0),), (None, np.random.default_rng(0))):
        with pytest.raises(UnsupportedMetricError, match="a direction and a tie stream"):
            covered(cloud, np.array([0.5]), *rngs)


def projected_pit(w, pts, y, seed=0):
    """:func:`metric.projected_pit`'s PIT values of the clouds ``(w, pts)``
    at the outcomes ``y``, and the tie stream it drew from."""
    rng, ties = streams(seed)
    w = [np.asarray(wi, dtype=float) for wi in w]
    pts = [np.asarray(p, dtype=float) for p in pts]
    return metric.projected_pit(w, pts, np.asarray(y, dtype=float), rng, ties), ties


def test_projected_pit_of_a_tie_free_cloud_is_its_weight_below():
    # in one dimension the direction is +1, so the PIT is the weight of the
    # particles below the outcome over the total, however the weights scale
    for w in ([0.125, 0.25, 0.625], [1.0, 2.0, 5.0]):
        y = [[-1.0], [0.5], [1.5], [3.0]]
        u, ties = projected_pit([w] * 4, [[[0.0], [1.0], [2.0]]] * 4, y)
        assert u.tolist() == [0.0, 0.125, 0.375, 1.0]
        assert ties.bit_generator.state == streams(0)[1].bit_generator.state


def test_projected_pit_of_equal_weights_is_the_outcome_rank():
    rng = np.random.default_rng(5)
    pts = [rng.normal(size=(8, 1)) for _ in range(50)]
    y = rng.normal(size=(50, 1))
    u, _ = projected_pit([np.full(8, 0.125)] * 50, pts, y)
    assert u.tolist() == [np.count_nonzero(p[:, 0] < yi[0]) / 8 for p, yi in zip(pts, y)]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_projected_pit_of_a_point_mass_is_the_tie_uniform(dim):
    # every particle sits at the outcome: no mass below, all of it at the
    # outcome, so the PIT is the cloud's uniform from the tie stream
    rng = np.random.default_rng(dim)
    w = [rng.dirichlet(np.ones(m)) for m in (2, 5, 20)]
    y = rng.normal(size=(3, dim))
    u, _ = projected_pit(w, [np.tile(yi, (len(wi), 1)) for wi, yi in zip(w, y)], y, seed=dim)
    assert u.tolist() == streams(dim)[1].random(3).tolist()


def test_projected_pit_splits_an_atom_by_the_tie_uniform_in_record_order():
    # the middle atom holds half the mass: the PIT is uniform on [0.25, 0.75];
    # only the tied clouds draw, the first tie the first uniform
    w, pts = [0.25] * 4, [[0.0], [1.0], [1.0], [2.0]]
    u, _ = projected_pit([w] * 4, [pts] * 4, [[0.5], [1.0], [3.0], [1.0]], seed=2)
    v = streams(2)[1].random(2)
    assert u.tolist() == [0.25, 0.25 + v[0] * 0.5, 1.0, 0.25 + v[1] * 0.5]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(2, 30), st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.data())
def test_an_outcome_at_a_particle_projects_onto_it_bit_for_bit(dim, m, n, seed, data):
    # the outcome is one of its cloud's particles, which may repeat; on every
    # direction it projects to that particle's float, so every cloud ties
    # and draws one uniform from the tie stream
    coords = st.floats(-1e300, 1e300, allow_subnormal=True)
    pts = [np.array(data.draw(st.lists(st.lists(coords, min_size=dim, max_size=dim),
                                       min_size=m, max_size=m))) for _ in range(n)]
    at = [data.draw(st.integers(0, m - 1)) for _ in range(n)]
    y = np.array([p[j] for p, j in zip(pts, at)])
    d = random_direction(dim, np.random.default_rng(seed), n)
    z = metric._project(np.concatenate(pts), np.repeat(d, m, axis=0)).reshape(n, m)
    zy = metric._project(y, d)
    assert z[np.arange(n), at].tobytes() == zy.tobytes()
    rng, ties = streams(seed)
    metric.projected_pit([np.full(m, 1.0 / m)] * n, pts, y, rng, ties)
    want = streams(seed)[1]
    want.random(n)
    assert ties.bit_generator.state == want.bit_generator.state


def one_direction(dim: int, rng):
    """One cloud's direction, drawn alone: +1, an angle uniform on (0, pi),
    or a standard Gaussian vector over its norm."""
    if dim == 1:
        return np.ones(1)
    if dim == 2:
        theta = rng.uniform(0.0, np.pi)
        return np.array([np.cos(theta), np.sin(theta)])
    g = rng.standard_normal(dim)
    return g / np.linalg.norm(g)


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_directions_drawn_at_once_are_the_ones_drawn_one_at_a_time(dim):
    # the same floats, and the generator left in the same state
    for n in (0, 1, 7, 5000):
        rng, alone = np.random.default_rng([dim, n]), np.random.default_rng([dim, n])
        d = random_direction(dim, rng, n)
        want = np.array([one_direction(dim, alone) for _ in range(n)]).reshape(n, dim)
        assert d.shape == (n, dim) and d.tobytes() == want.tobytes()
        assert rng.bit_generator.state == alone.bit_generator.state


def cloud_sum(x):
    """A cloud's sum as ``np.add.reduceat`` takes a segment: its first term
    plus numpy's pairwise sum of the rest."""
    return x[0] + x[1:].sum()


def oracle_indicator(w, pts, y, levels, rng, ties):
    """One cloud's half-plane indicators by the randomized projected PIT,
    on one direction from ``rng`` and, at a tie, one uniform from ``ties``:
    the rule, written for one cloud alone."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d = one_direction(pts.shape[1], rng)
    k = np.frexp(max(np.abs(pts).max(), np.abs(y).max()))[1]
    if k > 500:
        pts, y = pts * np.ldexp(1.0, -k), y * np.ldexp(1.0, -k)
    z, zy = pts[:, 0] * d[0], y[0] * d[0]
    for i in range(1, d.size):
        z, zy = z + pts[:, i] * d[i], zy + y[i] * d[i]
    total = cloud_sum(w)
    below = cloud_sum(np.where(z < zy, w, 0.0)) / total
    at = cloud_sum(np.where(z == zy, w, 0.0)) / total
    u = min(below + (ties.random() * at if at > 0.0 else 0.0), 1.0)
    return np.abs(2.0 * u - 1.0) <= levels


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
       st.booleans(), st.sampled_from([metric.CHUNK_PARTICLES, 20]),
       st.lists(st.integers(1, 47), max_size=4), st.integers(0, 2**32 - 1))
def test_stacked_coverage_matches_the_per_cloud_oracle(dim, runs, counts, levels, top,
                                                       chunk, cuts, seed):
    # clouds of mixed sizes, scored in chunks of about `chunk` particles,
    # score bit for bit as one cloud at a time on one direction and one tie
    # draw each, and leave both generators where the oracle leaves them; so
    # do the batch's blocks, scored in turn on the same two streams
    data = np.random.default_rng(seed)
    clouds = [cloud(data, kind, m, dim) for (kind, m), count in zip(runs, counts)
              for _ in range(count)]
    w, pts, y = zip(*clouds)
    batch = ParticleBatch(w, pts, y)
    levels = np.array(sorted(levels) + [np.nextafter(1.0, 0.0)] * top)
    got_rngs, want_rngs, block_rngs = streams(seed), streams(seed), streams(seed)
    ends = sorted({0, len(batch), *(c for c in cuts if c < len(batch))})
    with mock.patch.object(metric, "CHUNK_PARTICLES", chunk):
        got = covered(batch, levels, *got_rngs)
        blocks = [covered(ParticleBatch(batch.w[a:b], batch.pts[a:b], batch.y[a:b]), levels,
                          *block_rngs) for a, b in zip(ends, ends[1:])]
    want = [oracle_indicator(wi, pi, yi, levels, *want_rngs)
            for wi, pi, yi in zip(batch.w, batch.pts, batch.y)]
    assert np.array_equal(got, np.array(want).reshape(len(batch), levels.size))
    for got_rng, want_rng in zip(got_rngs, want_rngs):
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert np.array_equal(np.concatenate(blocks), got)
    for block_rng, got_rng in zip(block_rngs, got_rngs):
        assert block_rng.bit_generator.state == got_rng.bit_generator.state


def test_large_clouds_match_the_per_cloud_oracle():
    # clouds of 2,000 particles, past numpy's pairwise-summation blocks, and
    # more of them than one chunk holds
    rng = np.random.default_rng(3)
    w, pts, y = zip(*(cloud(rng, kind, 2000, 2) for kind in CLOUD_KINDS for _ in range(2)))
    batch, levels = ParticleBatch(w, pts, y), np.array([0.1, 0.5, 0.9])
    assert 10 * 2000 > metric.CHUNK_PARTICLES
    got_rngs, want_rngs = streams(4), streams(4)
    got = covered(batch, levels, *got_rngs)
    want = [oracle_indicator(*cloud_, levels, *want_rngs)
            for cloud_ in zip(batch.w, batch.pts, batch.y)]
    assert np.array_equal(got, want)
    for got_rng, want_rng in zip(got_rngs, want_rngs):
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_a_tie_free_batch_draws_nothing_from_the_tie_stream():
    rng = np.random.default_rng(3)
    w, pts, y = zip(*(cloud(rng, "spread", m, 2) for m in (2, 500, 7) for _ in range(20)))
    batch = ParticleBatch(w, pts, [yi + 0.5 for yi in y])  # off every particle
    directions, ties = streams(4)
    covered(batch, np.array([0.1, 0.5, 0.9]), directions, ties)
    assert ties.bit_generator.state == streams(4)[1].bit_generator.state
    assert directions.bit_generator.state != streams(4)[0].bit_generator.state
