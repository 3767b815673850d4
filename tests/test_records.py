"""Record batches: the Cholesky jitter retry on hand-picked covariances, then
property tests of the Mahalanobis distances, the JSON round trip, the parse of
one record line, and the coverage path, over random batches of every family."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from calcheck.cli import parse_records, write_records
from calcheck.errors import DataError, InvalidDistributionError
from calcheck.metric import LevelGrid, coverage_counts, fold, pit
from calcheck.records import GaussianBatch, MvGaussianBatch, ParticleBatch
from calcheck.seqtest import EValueConfig, MartingaleState, monitor_step


# ---------------------------------------------------------------------------
# Cholesky jitter retry
# ---------------------------------------------------------------------------

def test_mv_gaussian_batch_jitter_retry_builds_rank_deficient_cov():
    # the moment-matched covariance of the cloud {(0, 0), (2, 0)}: zero
    # variance along the second axis, usable only through the jitter retry
    cov = np.array([[[1.0, 0.0], [0.0, 0.0]], [[2.0, 0.3], [0.3, 1.0]]])
    batch = MvGaussianBatch(mu=[[1.0, 0.0], [0.0, 0.0]], cov=cov, y=[[1.0, 0.0], [0.0, 0.0]])
    assert np.all(np.isfinite(batch.chol))
    assert batch.pit_values().tolist() == [0.0, 0.0]
    # the second covariance needs no jitter: its factor is numpy's own
    assert np.array_equal(batch.chol[1], np.linalg.cholesky(cov[1]))


def test_mv_gaussian_batch_all_zero_cov_raises():
    # the covariance of a cloud of identical particles
    with pytest.raises(InvalidDistributionError, match="jitter retry failed"):
        MvGaussianBatch(mu=[[1.0, 1.0]], cov=[np.zeros((2, 2))], y=[[1.0, 1.0]])


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

SETTINGS = settings(max_examples=60, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
moderate = st.floats(min_value=-1e6, max_value=1e6)
time_index = st.one_of(st.none(), st.integers(-10**12, 10**12))


@st.composite
def gaussian_batches(draw, values=finite, spreads=positive):
    n = draw(st.integers(1, 30))
    column = st.lists(values, min_size=n, max_size=n)
    return GaussianBatch(draw(column), draw(st.lists(spreads, min_size=n, max_size=n)),
                         draw(column), draw(st.lists(time_index, min_size=n, max_size=n)))


@st.composite
def mv_gaussian_batches(draw):
    n, d = draw(st.integers(1, 10)), draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, d, d)) * draw(st.floats(1e-3, 1e3))
    cov = a @ a.transpose(0, 2, 1) + np.eye(d)
    return MvGaussianBatch(rng.normal(size=(n, d)) * 1e3, (cov + cov.transpose(0, 2, 1)) / 2,
                           rng.normal(size=(n, d)),
                           draw(st.lists(time_index, min_size=n, max_size=n)))


@st.composite
def particle_batches(draw):
    n, d = draw(st.integers(1, 10)), draw(st.integers(1, 3))
    weights, points = [], []
    for m in draw(st.lists(st.integers(2, 6), min_size=n, max_size=n)):  # ragged clouds
        w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)))
        weights.append(w / w.sum())
        points.append(np.array(draw(st.lists(finite, min_size=m * d, max_size=m * d)))
                      .reshape(m, d))
    y = np.array(draw(st.lists(finite, min_size=n * d, max_size=n * d))).reshape(n, d)
    return ParticleBatch(weights, points, y, draw(st.lists(time_index, min_size=n, max_size=n)))


def float_arrays(batch):
    if isinstance(batch, ParticleBatch):
        return [*batch.w, *batch.pts, batch.y]
    return [col for name, col in vars(batch).items() if name != "t"]


@SETTINGS
@given(st.one_of(gaussian_batches(), mv_gaussian_batches(), particle_batches()))
def test_write_then_parse_round_trips_bit_for_bit(tmp_path_factory, batch):
    path = tmp_path_factory.mktemp("rt") / "records.jsonl"
    write_records(batch, path)
    back = parse_records(path, batch.kind)
    assert type(back) is type(batch) and back.t == batch.t
    for a, b in zip(float_arrays(batch), float_arrays(back), strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@SETTINGS
@given(gaussian_batches(moderate, st.floats(1e-6, 1e6)),
       st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                min_size=1, max_size=12, unique=True))
def test_gaussian_coverage_counts_are_the_folded_pit_ecdf(batch, levels):
    grid = LevelGrid(sorted(levels))
    curve = coverage_counts(batch, grid)
    folded = fold(pit(batch))
    for count, lam in zip(curve.counts, grid.levels):
        assert count == np.count_nonzero(folded.values <= lam)
        assert count / curve.n == np.mean(folded.values <= lam)


@SETTINGS
@given(st.one_of(gaussian_batches(moderate, st.floats(1e-6, 1e6)), mv_gaussian_batches(),
                 particle_batches()),
       st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                min_size=1, max_size=12, unique=True),
       st.floats(0.001, 0.999), st.integers(0, 2**32 - 1))
def test_check_and_monitor_read_one_coverage_indicator(batch, levels, lam, seed):
    # coverage counts, each level's column alone, and a monitor step all
    # score the same sets; particle clouds draw one direction per record
    # whatever the number of levels, so equal seeds give equal draws
    def rng():
        return np.random.default_rng(seed)

    grid = LevelGrid(sorted(levels))
    covered = batch.covered(grid.levels, rng())
    assert covered.shape == (len(batch), grid.k) and covered.dtype == bool
    assert np.array_equal(coverage_counts(batch, grid, rng()).counts,
                          np.count_nonzero(covered, axis=0))
    for j in range(grid.k):
        assert np.array_equal(covered[:, j], batch.covered(grid.levels[j:j + 1], rng())[:, 0])
    config = EValueConfig(lam, lam / 2, 0.05)
    _, log_e = monitor_step(MartingaleState(), batch, config, rng())
    hits = np.diff(log_e, prepend=0.0) < 0.0  # a covered step halves the e-value
    assert np.array_equal(hits, batch.covered(np.array([lam]), rng())[:, 0])
    assert np.count_nonzero(hits) == coverage_counts(batch, LevelGrid([lam]), rng()).counts[0]


@SETTINGS
@given(st.integers(1, 8), st.integers(1, 20), st.integers(0, 2**32 - 1),
       st.floats(-6.0, 6.0), st.floats(-12.0, 2.0), st.floats(-3.0, 8.0))
def test_mv_gaussian_distances_equal_per_record_triangular_solves(d, n, seed, scale, load,
                                                                   spread):
    # covariances of rank below d plus a diagonal load down to 1e-12 of their
    # scale are ill-conditioned; the batched forward substitution behind the
    # chi-square PIT must still give each record's solve_triangular and z @ z
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, d, rng.integers(1, d + 1))) * 10.0 ** (scale / 2)
    cov = a @ a.transpose(0, 2, 1) + 10.0 ** (scale + load) * np.eye(d)
    batch = MvGaussianBatch(rng.normal(size=(n, d)), cov, rng.normal(size=(n, d)) * 10.0**spread)
    with mock.patch("calcheck.records.chi2_cdf", lambda m, dof: m):
        got = batch.pit_values()
    want = np.array([float(z @ z) for z in (solve_triangular(c, r, lower=True)
                                            for c, r in zip(batch.chol, batch.y - batch.mu))])
    assert got.tobytes() == want.tobytes()


def test_mv_gaussian_distance_beyond_the_float_range_scores_pit_one():
    # residuals of 1e200 standard deviations: one overflows z @ z, one the
    # solve of a tiny covariance (then 0 * inf in the next row), one y - mu
    # itself; each scores PIT 1 without a warning, and a plain record beside
    # them keeps the distance it has alone
    batch = MvGaussianBatch(
        mu=[[0, 0], [0, 0], [-1e308, 0], [0, 0]],
        cov=[np.eye(2), 1e-300 * np.eye(2), [[1, 0.5], [0.5, 1]], np.eye(2)],
        y=[[1e200, 1e200], [1e200, 0], [1e308, 1e308], [0.5, 0.2]])
    got = batch.pit_values()
    assert got[:3].tolist() == [1.0, 1.0, 1.0]
    assert got[3] == MvGaussianBatch([[0, 0]], [np.eye(2)], [[0.5, 0.2]]).pit_values()[0]


json_number = st.one_of(st.floats(), st.integers(-10**6, 10**6))


@SETTINGS
@given(st.fixed_dictionaries(
    {"mu": json_number, "sigma": json_number,
     "y": st.one_of(json_number, st.lists(st.floats(), min_size=1, max_size=1))},
    optional={"t": time_index}))
def test_gaussian_line_parses_as_the_constructor_builds_it(obj):
    # the one-line parse that names a bad line in a failed block must accept
    # the lines the constructor accepts and build the same batch
    try:
        want = GaussianBatch([obj["mu"]], [obj["sigma"]], [obj["y"]], [obj.get("t")])
    except InvalidDistributionError as exc:
        with pytest.raises(DataError) as info:
            GaussianBatch.from_obj(obj, 7)
        assert str(info.value) == f"line 7: {exc}"
        return
    got = GaussianBatch.from_obj(obj, 7)
    assert got.t == want.t and list(vars(got)) == list(vars(want))
    for a, b in zip(float_arrays(want), float_arrays(got), strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("slack", [0.0, 1e-10, -3e-10])
def test_filter_batch_equals_checked_batch_bit_for_bit(slack):
    # the simulator's constructor skips the shape, finiteness and sign checks
    # but keeps the weight-sum test and its renormalisation
    rng = np.random.default_rng(3)
    w = [(lambda v: v / v.sum() * (1.0 + slack))(rng.uniform(0.1, 1.0, m)) for m in (2, 5, 9)]
    pts = [rng.normal(size=(len(wi), 2)) for wi in w]
    y = rng.normal(size=(3, 2))
    checked = ParticleBatch(w, pts, y, t=range(1, 4))
    trusted = ParticleBatch.from_filter(w, pts, y, t=range(1, 4))
    assert list(vars(trusted)) == list(vars(checked))
    for name in ("w", "pts"):
        assert [a.tobytes() for a in getattr(trusted, name)] == [
            a.tobytes() for a in getattr(checked, name)]
    assert trusted.y.tobytes() == checked.y.tobytes() and trusted.t == checked.t == [1, 2, 3]
    with pytest.raises(InvalidDistributionError, match="weights sum to"):
        ParticleBatch.from_filter([w[0] * 1.01], pts[:1], y[:1])
