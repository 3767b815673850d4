"""The metric slot: record batches in, test-ready statistics out.

Transforms a record batch (:mod:`calcheck.records`) into the quantities the
hypothesis tests consume: coverage counts over a level grid, PIT samples
(raw and folded), variance bins for conditional checks, and the half-plane
coverage indicator for particle clouds, whose centered projected intervals
come from :func:`weighted_quantile`.  What differs by prediction family
comes from the batch; the statistics here are the same for every family.

Particle clouds are scored a stack at a time: :func:`halfplane_indicator`
takes ``n`` clouds of one particle count and :func:`weighted_quantile`
answers each row of a stack, so numpy's per-call overhead is paid once per
stack, not once per cloud.  Each cloud's indicators are bit for bit those
it would get alone, and the directions are drawn one cloud at a time in
record order, so the generator ends where a cloud-by-cloud loop leaves it.

Coverage counts sum the batch's own coverage indicator,
:meth:`~calcheck.records.RecordBatch.covered`, which the online monitor
reads too, so the offline and online tests score the same sets.  For scalar
Gaussians that indicator is the folded PIT ``<= lambda``, so the empirical
coverage curve and the folded-PIT ECDF are the same object bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "LevelGrid",
    "PitSample",
    "CoverageCurve",
    "VarianceBins",
    "coverage_counts",
    "pit",
    "fold",
    "variance_bin",
    "weighted_quantile",
    "halfplane_indicator",
    "random_direction",
]


@dataclass(frozen=True, eq=False)
class LevelGrid:
    """Strictly increasing grid of coverage levels in the open unit interval."""

    levels: np.ndarray

    def __post_init__(self):
        lv = np.atleast_1d(np.asarray(self.levels, dtype=float))
        if lv.ndim != 1 or lv.size == 0:
            raise ValueError("level grid must be a nonempty flat list")
        # written so that NaN, which fails every comparison, fails both
        if not np.all((lv > 0.0) & (lv < 1.0)):
            raise ValueError("levels must lie strictly inside (0, 1)")
        if not np.all(np.diff(lv) > 0.0):
            raise ValueError("levels must be strictly increasing")
        object.__setattr__(self, "levels", lv)

    @classmethod
    def default(cls) -> "LevelGrid":
        """The standard grid {0.05, 0.15, ..., 0.95}."""
        return cls(np.arange(10) / 10.0 + 0.05)

    @property
    def k(self) -> int:
        return self.levels.size


@dataclass(frozen=True, eq=False)
class PitSample:
    """A batch of probability integral transform values in [0, 1].

    ``folded`` records whether the values have been mapped through
    ``v = |2u - 1|``.
    """

    values: np.ndarray
    folded: bool = False

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if v.size == 0:
            raise DataError("PIT sample must be nonempty")
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise ValueError("PIT values must lie in [0, 1]")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class CoverageCurve:
    """Empirical coverage counts over a level grid.

    Counts must be monotone in the level (centered sets are nested); this is
    asserted at construction so any non-monotone provider surfaces early.
    """

    levels: LevelGrid
    counts: np.ndarray
    n: int

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.counts, dtype=int))
        if c.shape != (self.levels.k,):
            raise ValueError("one count per grid level required")
        if np.any(c < 0) or np.any(c > self.n):
            raise ValueError("counts must lie in [0, n]")
        if np.any(np.diff(c) < 0):
            raise ValueError("coverage counts must be non-decreasing in the level")
        object.__setattr__(self, "counts", c)

    @property
    def fractions(self) -> np.ndarray:
        return self.counts / self.n


@dataclass(frozen=True, eq=False)
class VarianceBins:
    """Partition of a record batch by predicted uncertainty.

    ``parts[b]`` holds bin ``b``'s record positions in record order, ready for
    ``take``; ``bin_edges`` holds the interior uncertainty values where
    consecutive bins split.
    """

    bin_edges: np.ndarray
    parts: tuple

    def __post_init__(self):
        edges = np.atleast_1d(np.asarray(self.bin_edges, dtype=float))
        if edges.size and np.any(np.diff(edges) < 0):
            raise ValueError("bin edges must be sorted")
        object.__setattr__(self, "bin_edges", edges)


# ---------------------------------------------------------------------------
# PIT
# ---------------------------------------------------------------------------

def pit(records) -> PitSample:
    """Probability integral transform of a record batch.

    Scalar predictions use their own CDF at the outcome; multivariate
    Gaussians reduce through the squared Mahalanobis distance, whose CDF
    under calibration is chi-square with ``d`` degrees of freedom.  Particle
    clouds have no CDF, so their PIT is undefined and raises.
    """
    if not len(records):
        raise DataError("cannot compute the PIT of an empty record list")
    # CDF callables may stray outside [0, 1] by an ulp; clip defensively.
    return PitSample(values=np.clip(records.pit_values(), 0.0, 1.0), folded=False)


def fold(sample: PitSample) -> PitSample:
    """Fold a PIT sample around its midpoint: ``v = |2u - 1|``."""
    if sample.folded:
        raise ValueError("sample is already folded")
    return PitSample(values=np.abs(2.0 * sample.values - 1.0), folded=True)


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def coverage_counts(records, grid: LevelGrid, rng=None) -> CoverageCurve:
    """Observed coverage counts of centered prediction sets over a grid.

    Counts, level by level, the records that the batch's coverage indicator
    :meth:`~calcheck.records.RecordBatch.covered` puts inside the centered
    set: the folded PIT ``<= lambda`` for scalar Gaussians, the chi-square
    PIT (ellipsoid membership) for multivariate Gaussians, and
    :func:`halfplane_indicator` for particle clouds, which need ``rng``.
    """
    if not len(records):
        raise DataError("cannot compute coverage of an empty record list")
    counts = np.count_nonzero(records.covered(grid.levels, rng), axis=0)
    return CoverageCurve(levels=grid, counts=counts, n=len(records))


# ---------------------------------------------------------------------------
# variance binning
# ---------------------------------------------------------------------------

def variance_bin(records, k_bins: int) -> VarianceBins:
    """Partition records into equal-count bins by predicted uncertainty.

    Bin edges sit at the empirical ``j / k_bins`` quantiles of the
    uncertainty values, so bin sizes differ by at most one.  Ties are broken
    by record order (stable sort), sending edge-straddling ties to the lower
    bin, which keeps reports reproducible.  Each bin's part lists its record
    positions in record order, so a bin's batch keeps the input's order.
    """
    if not len(records):
        raise DataError("cannot bin an empty record list")
    if k_bins < 1:
        raise ValueError("k_bins must be >= 1")
    if k_bins > len(records):
        raise DataError(f"k_bins={k_bins} exceeds the number of records {len(records)}")
    values = records.uncertainty()
    order = np.argsort(values, kind="stable")
    chunks = np.array_split(order, k_bins)
    edges = np.array([values[chunk[0]] for chunk in chunks[1:]])
    return VarianceBins(bin_edges=edges, parts=tuple(np.sort(chunk) for chunk in chunks))


# ---------------------------------------------------------------------------
# half-plane coverage for particle clouds
# ---------------------------------------------------------------------------

def random_direction(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random unit direction.

    In one dimension the direction is the constant +1; in two dimensions an
    angle uniform on (0, pi) covers every distinct cut; in higher dimensions
    a normalized standard Gaussian vector is uniform on the sphere.
    """
    if dim == 1:
        return np.ones(1)
    if dim == 2:
        theta = rng.uniform(0.0, np.pi)
        return np.array([np.cos(theta), np.sin(theta)])
    g = rng.standard_normal(dim)
    return g / np.linalg.norm(g)


def weighted_quantile(weights, values, q):
    """Left-continuous generalized inverse of the weighted ECDF, row by row.

    ``values`` and ``weights`` hold samples of shape ``(..., m)``: a flat
    sample is one row, a stack of ``n`` samples is ``(n, m)``.  Each row's
    answer is its smallest value whose cumulative weight reaches ``q``.
    This matches the unweighted empirical quantile convention and keeps the
    coverage indicator conservative at ties.  ``q`` may be an array of
    levels, shared by every row, each row answered from one sort: the result
    has shape ``values.shape[:-1] + q.shape``, a float for a flat sample and
    a scalar ``q``.

    The rows are sorted with the default ``argsort``, and only the rows whose
    sorted values hold a tie (or a NaN) are sorted again, stably: a row of
    distinct values has one sorted order, so every row gets the stable
    order, and tied values sum their weights in record order.  Each row's
    cumulative weights are searched once for all its levels.
    """
    w = np.asarray(weights, dtype=float)
    v = np.asarray(values, dtype=float)
    q = np.asarray(q, dtype=float)
    if v.size == 0:
        raise ValueError("cannot take a quantile of an empty sample")
    if not (q.min() > 0.0 and q.max() < 1.0):
        raise ValueError(f"q must be in (0, 1), got {q}")
    shape, m = v.shape[:-1] + q.shape, v.shape[-1]
    v, w = v.reshape(-1, m), w.reshape(-1, m)
    rows = np.arange(len(v))[:, None]
    order = v.argsort(axis=1)
    s = v[rows, order]
    increasing = s[:, 1:] > s[:, :-1]  # all of a row: no tie and no NaN
    if not increasing.all():
        tied = ~increasing.all(axis=1)
        order[tied] = np.argsort(v[tied], axis=1, kind="stable")
    cum = np.cumsum(w[rows, order], axis=1)
    # guard float roundoff at q ~ 1
    idx = np.minimum([np.searchsorted(c, q * c[-1], side="left") for c in cum], m - 1)
    quantiles = v[rows, order[rows, idx.reshape(len(v), -1)]].reshape(shape)
    return float(quantiles) if quantiles.ndim == 0 else quantiles


def halfplane_indicator(
    w: np.ndarray,
    pts: np.ndarray,
    y: np.ndarray,
    levels,
    rng: np.random.Generator,
) -> np.ndarray:
    """Whether each outcome of a stack of clouds falls in its cloud's
    centered projected intervals.

    The stack is ``n`` clouds of ``m`` particles each: weights ``w`` of shape
    ``(n, m)``, points ``pts`` of shape ``(n, m, d)`` and outcomes ``y`` of
    shape ``(n, d)``; the result is ``(n, k)`` for ``k`` levels.  For each
    cloud, in order, a fresh direction is drawn from ``rng`` independently
    of the outcome; the cloud and its outcome are projected onto it, and
    the outcome's projection is tested against the centered weighted-quantile
    interval at each level, with weak inequalities at the endpoints.  Both
    endpoints at every level come from one :func:`weighted_quantile` call.
    Because the direction never looks at the data, each indicator is
    Bernoulli(level) under calibration when the predictive law is atomless,
    so that an outcome falls on an interval endpoint with probability 0.  A
    cloud's own particles are atoms: an outcome drawn from a calibrated
    cloud can land on one, and the weak inequalities then count it as
    covered.  So on calibrated clouds of few particles the coverage rate
    departs from the level: with 5 equal-weight particles, 20,000 records
    miss it by up to 91 binomial standard errors.  ROADMAP item 9 (a
    randomized projected PIT) would make the indicators exact.  A degenerate
    cloud resolves through the quantile tie policy.

    Every indicator is bit for bit the one a single-cloud stack gives: the
    projections are one batched ``matmul``, which computes each cloud's
    ``pts @ d`` as that product alone does, where ``einsum`` or a sum of
    coordinate products round differently.
    """
    n, _, dim = pts.shape
    if y.shape != (n, dim):
        raise ValueError(f"outcomes have shape {y.shape}, clouds {(n, dim)}")
    d = np.array([random_direction(dim, rng) for _ in range(n)])
    # coordinates beyond 2**500 could overflow their projections; the interval
    # test is invariant under positive scaling, so scale such a cloud and its
    # outcome by an exact power of two, and leave every other cloud untouched
    k = np.frexp(np.maximum(np.abs(pts).max(axis=(1, 2)), np.abs(y).max(axis=1)))[1]
    if (k > 500).any():
        scale = np.ldexp(1.0, np.where(k > 500, -k, 0))  # 1 elsewhere, an exact product
        pts, y = pts * scale[:, None, None], y * scale[:, None]
    levels = np.atleast_1d(levels)
    # (1 + level) / 2 rounds up to 1 at the level one ulp below 1, where the
    # largest float below 1 stands in for it
    q = np.minimum(np.array([1.0 - levels, 1.0 + levels]) / 2.0, np.nextafter(1.0, 0.0))
    ends = weighted_quantile(w, (pts @ d[:, :, None])[:, :, 0], q)
    zy = (y[:, None, :] @ d[:, :, None])[:, 0]  # (n, 1), against each row's k levels
    return (ends[:, 0] <= zy) & (zy <= ends[:, 1])
