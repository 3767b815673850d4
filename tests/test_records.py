"""Record batches: the Cholesky jitter retry on hand-picked covariances, then
property tests of the JSON round trip, the parse of one record line, and the
coverage path, over random batches of every family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calcheck.cli import parse_records, write_records
from calcheck.errors import DataError, InvalidDistributionError
from calcheck.metric import LevelGrid, coverage_counts, fold, pit
from calcheck.records import GaussianBatch, MvGaussianBatch, ParticleBatch
from calcheck.seqtest import (
    EValueConfig,
    MartingaleState,
    monitor_step_gaussian,
    monitor_step_halfplane,
)


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
def particle_batches(draw, values=finite):
    n, d = draw(st.integers(1, 10)), draw(st.integers(1, 3))
    weights, points = [], []
    for m in draw(st.lists(st.integers(2, 6), min_size=n, max_size=n)):  # ragged clouds
        w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)))
        weights.append(w / w.sum())
        points.append(np.array(draw(st.lists(values, min_size=m * d, max_size=m * d)))
                      .reshape(m, d))
    y = np.array(draw(st.lists(values, min_size=n * d, max_size=n * d))).reshape(n, d)
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
                 particle_batches(moderate)),
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
    if isinstance(batch, ParticleBatch):
        _, log_e = monitor_step_halfplane(MartingaleState(), batch, config, rng())
    else:
        _, log_e = monitor_step_gaussian(MartingaleState(), batch, config)
    hits = np.diff(log_e, prepend=0.0) < 0.0  # a covered step halves the e-value
    assert np.array_equal(hits, batch.covered(np.array([lam]), rng())[:, 0])
    assert np.count_nonzero(hits) == coverage_counts(batch, LevelGrid([lam]), rng()).counts[0]


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
