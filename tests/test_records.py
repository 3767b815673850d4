"""Record batches: the Cholesky jitter retry on hand-picked covariances, then
property tests of the Mahalanobis distances, the JSON round trip, the parse of
one record line, and the coverage path, over random batches of every family."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from calcheck.cli import parse_records, write_records
from calcheck.errors import DataError, InvalidDistributionError
from calcheck.metric import LevelGrid, central, coverage_counts, covered, fold, pit
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


EDGE_POSITIVE = st.sampled_from([5e-324, 1e-05, 1e16, 1.7976931348623157e308])
EDGE = st.one_of(st.just(-0.0), EDGE_POSITIVE, EDGE_POSITIVE.map(float.__neg__))
# each weight vector sums to 1 exactly, so no cloud is renormalised
EDGE_WEIGHTS = st.sampled_from([[-0.0, 1.0], [5e-324, 1.0], [0.5, 0.25, 0.25], [1e-05, 0.99999]])


@st.composite
def edge_batches(draw):
    """A batch of any family whose values are drawn mostly from the floats
    whose text is most likely to differ between formatters, and whose time
    indices are all absent, all set or mixed, the ends of their range among
    them."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    values, spreads = st.one_of(EDGE, finite), st.one_of(EDGE_POSITIVE, positive)

    def column(strategy, size=n):
        return draw(st.lists(strategy, min_size=size, max_size=size))

    ends = st.sampled_from([-2**63, 2**64 - 1])
    t = draw(st.sampled_from([st.none(), st.one_of(ends, st.integers(-2**63, 2**64 - 1)),
                              st.one_of(st.none(), ends, st.integers(-2**63, 2**64 - 1))]))
    kind = draw(st.sampled_from(["gaussian", "mv_gaussian", "particles"]))
    if kind == "gaussian":
        return GaussianBatch(column(values), column(spreads), column(values), column(t))
    y = np.array(column(values, n * d)).reshape(n, d)
    if kind == "mv_gaussian":
        # diagonal covariances with signed zeros off the diagonal
        cov = np.array(column(st.sampled_from([0.0, -0.0]), n * d * d)).reshape(n, d, d)
        cov[:, np.arange(d), np.arange(d)] = np.array(column(spreads, n * d)).reshape(n, d)
        return MvGaussianBatch(np.array(column(values, n * d)).reshape(n, d), cov, y, column(t))
    weights = column(EDGE_WEIGHTS)
    points = [np.array(column(values, len(w) * d)).reshape(len(w), d) for w in weights]
    return ParticleBatch(weights, points, y, column(t))


@SETTINGS
@given(st.one_of(edge_batches(), gaussian_batches()))
@example(GaussianBatch([-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308],
                       [5e-324, 1e-05, 1e16, 1.7976931348623157e308, 1.0],
                       [1e16, -0.0, -1.7976931348623157e308, 1e-05, -5e-324],
                       [None, 2**64 - 1, 3, None, -2**63]))
def test_written_lines_are_json_dumps_of_each_record(tmp_path_factory, batch):
    # each line is what json.dumps of the record's dict writes, keys in file
    # order and t where set, and the file reads back bit for bit; the
    # Gaussian batches draw from all finite floats
    want = []
    for i, t in enumerate(batch.t):
        obj = dict(zip(batch.keys, (c[0] for c in batch._json_columns(slice(i, i + 1)))))
        if t is not None:
            obj["t"] = t
        want.append(json.dumps(obj) + "\n")
    path = tmp_path_factory.mktemp("lines") / "records.jsonl"
    write_records(batch, path)
    assert path.read_text().splitlines(keepends=True) == want
    back = parse_records(path, batch.kind)
    assert type(back) is type(batch) and back.t == batch.t
    assert [type(t) for t in back.t] == [type(t) for t in batch.t]
    for a, b in zip(float_arrays(batch), float_arrays(back), strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("t", [2**64, -2**63 - 1, 2**70])
def test_time_index_beyond_64_bits_is_refused(t):
    # orjson reads such a t back as a float, which no t may be, so no batch
    # holds one; the ends of the range stay, as ints or as numpy integers
    ends = [2**64 - 1, -2**63, np.uint64(2**64 - 1), np.int64(-2**63)]
    kept = GaussianBatch([0.0] * 4, [1.0] * 4, [0.0] * 4, ends).t
    assert kept == [2**64 - 1, -2**63] * 2 and {type(v) for v in kept} == {int}
    with pytest.raises(InvalidDistributionError,
                       match=f"^time index must be a 64-bit integer or null, got {t}$"):
        GaussianBatch([0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [None, t])


@SETTINGS
@given(st.one_of(gaussian_batches(moderate, st.floats(1e-6, 1e6)), mv_gaussian_batches()),
       st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                min_size=1, max_size=12, unique=True))
def test_gaussian_coverage_counts_are_the_folded_pit_ecdf(batch, levels):
    # the central PIT folds a scalar Gaussian's PIT and takes a multivariate
    # Gaussian's chi-square PIT as it is; coverage counts its ECDF
    grid = LevelGrid(sorted(levels))
    folded = central(batch)
    curve = coverage_counts(folded, grid)
    want = pit(batch) if isinstance(batch, MvGaussianBatch) else fold(pit(batch))
    assert folded.folded and np.array_equal(folded.values, want.values)
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
    # and at most one tie draw per record whatever the number of levels, so
    # equal seeds give equal draws
    def rngs():
        return np.random.default_rng(seed), np.random.default_rng([seed, 3])

    grid = LevelGrid(sorted(levels))
    inside = covered(central(batch, *rngs()), grid.levels)
    assert inside.shape == (len(batch), grid.k) and inside.dtype == bool
    assert np.array_equal(coverage_counts(central(batch, *rngs()), grid).counts,
                          np.count_nonzero(inside, axis=0))
    for j in range(grid.k):
        assert np.array_equal(inside[:, j],
                              covered(central(batch, *rngs()), grid.levels[j:j + 1])[:, 0])
    config = EValueConfig(lam, lam / 2, 0.05)
    _, log_e = monitor_step(MartingaleState(), batch, config, *rngs())
    hits = np.diff(log_e, prepend=0.0) < 0.0  # a covered step halves the e-value
    assert np.array_equal(hits, covered(central(batch, *rngs()), np.array([lam]))[:, 0])
    assert (np.count_nonzero(hits)
            == coverage_counts(central(batch, *rngs()), LevelGrid([lam])).counts[0])


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


def checked_cloud(w, pts):
    """One cloud checked alone, the reference the batch check must match:
    shapes, particle count, finiteness and signs, then the weight sum, and
    the renormalisation of a sum more than 1e-12 from 1."""
    w, pts = np.asarray(w, dtype=float), np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if w.ndim != 1 or pts.ndim != 2 or w.shape[0] != pts.shape[0]:
        raise InvalidDistributionError(f"weights {w.shape} do not match points {pts.shape}")
    if w.shape[0] < 2:
        raise InvalidDistributionError("need at least 2 particles")
    if not np.all(np.isfinite(w)) or not np.all(np.isfinite(pts)):
        raise InvalidDistributionError("particles must be finite")
    if np.any(w < 0):
        raise InvalidDistributionError("weights must be nonnegative")
    with np.errstate(over="ignore"):
        total = float(w.sum())
    if abs(total - 1.0) > 1e-9 * (1.0 + 1e-6):
        raise InvalidDistributionError(f"weights sum to {total!r}, outside 1 +/- 1e-09")
    return (w / total if abs(total - 1.0) > 1e-12 else w), pts


@pytest.mark.parametrize("slack", [0.0, 1e-10, -3e-10])
def test_batch_check_equals_the_per_cloud_oracle_bit_for_bit(slack):
    # clouds of mixed sizes, 2-D arrays and 1-D point lists, whose weights
    # sum to 1 within the slack: the batch holds the oracle's clouds
    rng = np.random.default_rng(3)
    for dim in (1, 2):
        w = [(lambda v: v / v.sum() * (1.0 + slack))(rng.uniform(0.1, 1.0, m))
             for m in (2, 5, 9, 500)]
        pts = [rng.normal(size=(len(wi), dim)) for wi in w]
        if dim == 1:
            pts = [p[:, 0].tolist() for p in pts]
        y = rng.normal(size=(4, dim))
        batch = ParticleBatch(w, pts, y, t=range(1, 5))
        want = [checked_cloud(wi, pi) for wi, pi in zip(w, pts)]
        assert list(vars(batch)) == ["w", "pts", "y", "t"] and batch.t == [1, 2, 3, 4]
        for got, col in ((batch.w, 0), (batch.pts, 1)):
            assert [(a.shape, a.tobytes()) for a in got] == [
                (cloud[col].shape, cloud[col].tobytes()) for cloud in want]
        assert batch.y.tobytes() == y.tobytes()


BAD_CLOUDS = [
    ([0.5, 0.5], np.zeros((3, 1))),
    ([[0.5, 0.5]], np.zeros((2, 1))),
    ([0.5, 0.5], np.zeros((2, 1, 1))),
    ([1.0], np.zeros((1, 1))),
    ([0.5, 0.5], [[0.0], [np.nan]]),
    ([np.inf, 0.5], [[0.0], [1.0]]),
    ([np.nan, 0.5], [[0.0], [1.0]]),
    ([1.5, -0.5], [[0.0], [np.inf]]),
    ([0.6, 0.6], [[-np.inf], [0.0]]),
    ([1.5, -0.5], [[0.0], [1.0]]),
    ([0.5, 0.4], [[0.0], [1.0]]),
    ([0.5, 0.5 + 1.1e-9], [[0.0], [1.0]]),
    ([1e308, 1e308], [[0.0], [1.0]]),
    ([np.inf, -np.inf], [[0.0], [1.0]]),
]


@pytest.mark.parametrize("w, pts", BAD_CLOUDS)
def test_a_bad_cloud_is_refused_as_the_per_cloud_oracle_refuses_it(w, pts):
    # alone, after a good cloud, and after more good clouds than one group
    # of the batch check: it words the refusal of the first check the cloud
    # fails as a cloud checked alone does
    with pytest.raises(InvalidDistributionError) as want:
        checked_cloud(w, pts)
    for k in (0, 1, 70):
        batch = [[0.5, 0.5]] * k + [w], [[0.0, 1.0]] * k + [pts], [[0.0]] * (k + 1)
        with pytest.raises(InvalidDistributionError) as got:
            ParticleBatch(*batch)
        assert str(got.value) == str(want.value)
