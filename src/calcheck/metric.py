"""The metric slot: record batches in, test-ready statistics out.

Scores a record batch (:mod:`calcheck.records`) as PIT samples, raw and
central, which coverage counts over a level grid read, and bins records by
predicted uncertainty for conditional checks.  What differs by
prediction family comes from the batch; the statistics here are the same
for every family.  A particle cloud's PIT, :func:`projected_pit`, draws from
a direction stream and a tie stream that :func:`pit` passes through.

Particle clouds are scored many at a time, however their particle counts
differ: each cloud's PIT is two masked sums of its weights over one flat
array of projected particles, bit for bit what it would get alone, and the
direction and tie draws are made in record order, so both generators end
where a cloud-by-cloud loop leaves them.

Coverage is one rule, :func:`covered`: the :func:`central` PIT ``<= lambda``.
The offline coverage counts and the online monitor both read it, so they
score the same sets, and the coverage curve and the central-PIT ECDF are
one object.  Counts and bins take no records, only one score per record.
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
    "covered",
    "coverage_counts",
    "pit",
    "fold",
    "central",
    "variance_bin",
    "projected_pit",
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

    ``folded`` records whether the values are central PIT values
    (:func:`central`), as the fold ``v = |2u - 1|`` of a PIT is.
    """

    values: np.ndarray
    folded: bool = False

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if v.size == 0:
            raise DataError("PIT sample must be nonempty")
        if (v < 0.0).any() or (v > 1.0).any():  # methods: np.any's wrapper costs more
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
    """Partition of the records by predicted uncertainty.

    ``parts[b]`` holds bin ``b``'s record positions in record order, which
    index the records' scores; ``bin_edges`` holds the interior uncertainty
    values where consecutive bins split.
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

def pit(records, rng=None, ties=None) -> PitSample:
    """Probability integral transform of a record batch, the batch's
    ``pit_values``; particle clouds draw theirs from the direction stream
    ``rng`` and the tie stream ``ties``, which the other families ignore.
    """
    if not len(records):
        raise DataError("cannot compute the PIT of an empty record list")
    # CDF callables may stray outside [0, 1] by an ulp; clip defensively.
    return PitSample(values=np.clip(records.pit_values(rng, ties), 0.0, 1.0), folded=False)


def fold(sample: PitSample) -> PitSample:
    """Fold a PIT sample around its midpoint: ``v = |2u - 1|``."""
    if sample.folded:
        raise ValueError("sample is already folded")
    return PitSample(values=np.abs(2.0 * sample.values - 1.0), folded=True)


def central(records, rng=None, ties=None) -> PitSample:
    """The central PIT of a record batch, each forecast's mass in the
    smallest central region holding the outcome: the :func:`fold` of the
    :func:`pit`, or the PIT itself where the family's is (``pit_is_central``)."""
    sample = pit(records, rng, ties)
    return PitSample(values=sample.values, folded=True) if records.pit_is_central else fold(sample)


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def covered(sample: PitSample, levels: np.ndarray) -> np.ndarray:
    """The coverage rule: whether each outcome lies in its centered set at
    each of ``levels``, as ``(n, k)`` booleans: its central PIT is ``<= lambda``."""
    if not sample.folded:
        raise ValueError("coverage reads the central PIT")
    return sample.values[:, None] <= levels


def coverage_counts(sample: PitSample, grid: LevelGrid) -> CoverageCurve:
    """Observed coverage counts of centered prediction sets over a grid: at
    each level, the records whose central PIT in ``sample`` is :func:`covered`."""
    counts = np.count_nonzero(covered(sample, grid.levels), axis=0)
    return CoverageCurve(levels=grid, counts=counts, n=sample.n)


# ---------------------------------------------------------------------------
# variance binning
# ---------------------------------------------------------------------------

def variance_bin(uncertainty: np.ndarray, k_bins: int) -> VarianceBins:
    """Partition records into equal-count bins by their predicted
    ``uncertainty``, one value per record.

    Bin edges sit at the empirical ``j / k_bins`` quantiles of the
    uncertainty values, so bin sizes differ by at most one.  Ties are broken
    by record order (stable sort), sending edge-straddling ties to the lower
    bin, which keeps reports reproducible.  Each bin's part lists its record
    positions in record order, so a bin's scores keep the input's order.
    """
    if not len(uncertainty):
        raise DataError("cannot bin an empty record list")
    if k_bins < 1:
        raise ValueError("k_bins must be >= 1")
    if k_bins > len(uncertainty):
        raise DataError(f"k_bins={k_bins} exceeds the number of records {len(uncertainty)}")
    order = np.argsort(uncertainty, kind="stable")
    chunks = np.array_split(order, k_bins)
    edges = np.array([uncertainty[chunk[0]] for chunk in chunks[1:]])
    return VarianceBins(bin_edges=edges, parts=tuple(np.sort(chunk) for chunk in chunks))


# ---------------------------------------------------------------------------
# half-plane coverage for particle clouds
# ---------------------------------------------------------------------------

def random_direction(dim: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniform random unit directions as ``(n, dim)``, drawn in one call
    with the values and end state of ``n`` draws of one direction each.

    In one dimension the direction is the constant +1; in two dimensions an
    angle uniform on (0, pi) covers every distinct cut; in higher dimensions
    a normalized standard Gaussian vector is uniform on the sphere.
    """
    if dim == 1:
        return np.ones((n, 1))
    if dim == 2:
        theta = rng.uniform(0.0, np.pi, n)
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    g = rng.standard_normal((n, dim))
    # row by row: norm(g, axis=1) rounds some rows otherwise than norm(row)
    return g / np.array([np.linalg.norm(row) for row in g])[:, None]


def _project(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Each row of ``x`` projected onto the same row of ``d``, both ``(n, dim)``,
    as ``x[:, 0]*d[:, 0] + x[:, 1]*d[:, 1] + ...``: equal rows on equal
    directions project to equal floats, where a matmul's rounding depends on
    the shape of its operands."""
    z = x[:, 0] * d[:, 0]
    for i in range(1, x.shape[1]):
        z += x[:, i] * d[:, i]
    return z


# At most about this many particles are scored at once: the flat arrays of a
# whole check's clouds would raise its peak memory by several of their sizes
CHUNK_PARTICLES = 1 << 14


def projected_pit(w, pts, y: np.ndarray, rng: np.random.Generator,
                  ties: np.random.Generator) -> np.ndarray:
    """The randomized projected PIT of each outcome under its particle cloud.

    ``w`` and ``pts`` hold ``n`` clouds, weights ``(m_i,)`` and points
    ``(m_i, d)`` each, and ``y`` their outcomes ``(n, d)``.  For each cloud,
    in record order, a fresh direction is drawn from ``rng`` independently
    of the outcome, and the particles and the outcome are projected onto it
    (:func:`_project`), so an outcome equal to a particle projects equal to
    it.  Two masked sums of the cloud's weights ``w`` (total ``W``) give
    ``F_lo = sum(w[z < zy]) / W``, the mass strictly below the outcome's
    projection ``zy``, and ``a = sum(w[z == zy]) / W``, the mass at it; the
    PIT is ``u = F_lo + V a`` (Czado, Gneiting & Held, Biometrics 2009).
    ``V`` is uniform, drawn from ``ties`` only for the clouds with ``a > 0``,
    in record order, so a tie-free batch draws nothing from it.  Because the
    direction and ``V`` never look at the outcome, ``u`` is exactly
    Uniform(0, 1) under calibration, atoms and point masses included, and
    the half-plane indicator at level ``lambda``, ``fold(u) <= lambda``, is
    Bernoulli(lambda).

    The clouds are scored a chunk at a time, the clouds whose last particle
    falls in one window of ``CHUNK_PARTICLES``, as one flat array of the
    chunk's particles: each cloud's sums are one ``np.add.reduceat``
    segment, which sums a cloud alone as it sums it among others.  So every
    value is bit for bit the one a one-cloud call gives, and both generators
    end where a cloud-by-cloud loop leaves them.
    """
    counts = np.fromiter(map(len, w), int, len(y))
    ends = [*np.flatnonzero(np.diff(np.cumsum(counts) // CHUNK_PARTICLES)) + 1, len(y)]
    return np.concatenate([_chunk_pit(counts[i:j], w[i:j], pts[i:j], y[i:j], rng, ties)
                           for i, j in zip([0, *ends], ends)])


def _chunk_pit(counts, w, pts, y, rng, ties) -> np.ndarray:
    """:func:`projected_pit` of one chunk of clouds, whose particle counts
    are ``counts``."""
    starts = np.cumsum(counts) - counts
    w, pts = np.concatenate(w), np.concatenate(pts)
    d = random_direction(y.shape[1], rng, len(y))
    # coordinates beyond 2**500 could overflow their projections; the PIT is
    # invariant under positive scaling, so scale such a cloud and its outcome
    # by an exact power of two, and leave every other cloud untouched
    if max(pts.max(), -pts.min(), y.max(), -y.min()) >= 2.0**500:
        k = np.frexp(np.maximum(np.maximum.reduceat(np.abs(pts).max(axis=1), starts),
                                np.abs(y).max(axis=1)))[1]
        scale = np.ldexp(1.0, np.where(k > 500, -k, 0))  # 1 elsewhere, an exact product
        pts, y = pts * np.repeat(scale, counts)[:, None], y * scale[:, None]
    z, zy = _project(pts, np.repeat(d, counts, axis=0)), np.repeat(_project(y, d), counts)
    total = np.add.reduceat(w, starts)
    below = np.add.reduceat(np.where(z < zy, w, 0.0), starts) / total
    at = np.add.reduceat(np.where(z == zy, w, 0.0), starts) / total
    tied, v = np.flatnonzero(at), np.zeros(len(y))
    v[tied] = ties.random(tied.size)
    # the two sums may round to a total above W by an ulp
    return np.minimum(below + v * at, 1.0)
