"""Record batches: the data model, one columnar batch type per prediction family.

A batch holds ``n`` (prediction, outcome) records of one family: outcomes
``y`` of shape ``(n, d)``, the optional per-record time index ``t``, and the
family's parameter columns.  What depends on the family lives on its batch
type: the JSON keys of its record lines, parsing and validation of the
parameters, serialisation, the PIT and whether it is already central, and
the scalar uncertainty that variance bins sort by.  Every family has a
PIT; a cloud's is its randomized projected PIT, which draws from a
direction stream and a tie stream.  Coverage is read from the PIT by
:mod:`calcheck.metric`, not from the batch: a batch is scored once, as it is
read, and dropped.  ``FAMILIES`` maps each model name to its type, so a
batch's family is decided once, when its type is chosen.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import DataError, InvalidDistributionError, UnsupportedMetricError
from .metric import projected_pit
from .special import chi2_cdf, ndtr

__all__ = [
    "RecordBatch",
    "GaussianBatch",
    "MvGaussianBatch",
    "ParticleBatch",
    "FAMILIES",
    "chi2_cdf",
]

# Weight tolerance for particle clouds: the weight vector must sum to 1
# within this absolute slack (up to representation error of the inputs)
# before the exact renormalisation is applied.
WEIGHT_SUM_TOL = 1e-9
# Clouds whose finiteness and signs are checked at once: one copy of a whole
# simulated run's particles raised an in-process drift sweep's peak memory 7%
CHECK_CLOUDS = 64


def check_gaussian(mu, sigma) -> None:
    """Require finite means and standard deviations (scalars or arrays), ``sigma > 0``."""
    # one count when all is well; NaN fails both sigma comparisons
    ok = np.isfinite(mu) & (sigma > 0.0) & (sigma < np.inf)
    if np.count_nonzero(ok) != np.size(ok):
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
            raise InvalidDistributionError("gaussian parameters must be finite")
        bad = np.extract(np.less_equal(sigma, 0.0), sigma)
        raise InvalidDistributionError(f"sigma must be > 0, got {bad[0]}")


def mv_cholesky(mu: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of ``n`` Gaussians, means ``(n, d)`` and
    covariances ``(n, d, d)``.

    Each covariance must be finite, symmetric and positive definite, as
    established by a successful factorization.  One batched factorization
    serves the usual case; when it fails, each covariance is factorized
    alone, and one that fails gets a single jitter of ``1e-10 * trace/d`` on
    its diagonal (near-singular covariances arise naturally from
    moment-matching tight particle clouds); a second failure raises.
    """
    d = mu.shape[-1]
    if mu.ndim != 2 or cov.shape != (len(mu), d, d):
        raise InvalidDistributionError(
            f"mean has length {d} but covariance has shape {cov.shape[1:]}"
        )
    if not np.all(np.isfinite(mu)) or not np.all(np.isfinite(cov)):
        raise InvalidDistributionError("parameters must be finite")
    with np.errstate(over="ignore"):  # finite entries: only their difference can overflow
        if not np.allclose(cov, np.swapaxes(cov, 1, 2), rtol=1e-9, atol=1e-12):
            raise InvalidDistributionError("covariance must be symmetric")
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return np.stack([_jittered_cholesky(c) for c in cov])


def _jittered_cholesky(cov: np.ndarray) -> np.ndarray:
    d = cov.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # a jitter past the float range is refused
        jittered = cov + 1e-10 * np.trace(cov) / d * np.eye(d)
    for c in (cov, jittered):
        try:
            if np.isfinite(c).all():  # cholesky factors inf and nan without complaint
                return np.linalg.cholesky(c)
        except np.linalg.LinAlgError:
            pass
    raise InvalidDistributionError("covariance is singular or indefinite (jitter retry failed)")


def _points(pts) -> np.ndarray:
    """``np.asarray(pts, dtype=float)``, read by ``np.fromiter`` when ``pts``
    is a nonempty list of equal-length lists, as a decoded record line holds:
    that skips asarray's shape discovery and gives the same floats.  Any other
    value, or a cell fromiter refuses, goes through asarray, so every refusal
    keeps asarray's message."""
    if (type(pts) is list and pts and [*map(type, pts)].count(list) == len(pts)
            and len(set(map(len, pts))) == 1):
        m, d = len(pts), len(pts[0])
        try:
            return np.fromiter(chain.from_iterable(pts), float, m * d).reshape(m, d)
        except (TypeError, ValueError, OverflowError):
            pass
    return np.asarray(pts, dtype=float)


# The time indices a record line can hold: orjson reads an integer outside
# them as a float, which no time index may be
TIME_INDICES = range(-2**63, 2**64)


def _time_index(v) -> int:
    """A record's time index: an integer in ``TIME_INDICES``, not a bool or a float."""
    # int(v): range tests a numpy integer by comparing it with each of its values
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool) and int(v) in TIME_INDICES:
        return int(v)
    raise InvalidDistributionError(f"time index must be a 64-bit integer or null, got {v!r}")


class RecordBatch:
    """Records of one prediction family; each subclass is one family.

    Every attribute of a batch holds one entry per record, so :meth:`concat`
    joins them all together.  ``keys`` are the family's JSON fields in
    file order, the outcome ``y`` last; the second key is the one that names
    the family in a record line.  ``_json_columns(rows)`` gives one column
    per key of the records ``rows``, a slice, each value as Python floats
    (lists of them for an array), which ``calcheck.cli.write_records``
    turns into text.  Each family defines ``pit_values(rng, ties)``, the
    PIT :func:`~calcheck.metric.pit` takes, and ``pit_is_central``, whether
    it is already central.
    """

    kind: str
    keys: tuple[str, ...]
    pit_is_central = False

    def _set_outcomes(self, y, t, n: int, dims: set[int]) -> None:
        """Store the outcomes of ``n`` predictions as ``(n, d)``, checked
        against ``dims``, the set of the predictions' dimensions."""
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        if y.ndim != 2 or np.count_nonzero(np.isfinite(y)) != y.size:
            raise InvalidDistributionError("outcome must be a finite 1-D vector")
        if len(y) != n:
            raise InvalidDistributionError(f"{n} predictions for {len(y)} outcomes")
        bad = dims - {y.shape[1]}
        if bad:
            raise InvalidDistributionError(
                f"outcome has dimension {y.shape[1]}, prediction expects {min(bad)}"
            )
        self.y = y
        self.t = [None] * n if t is None else [
            v if v is None or type(v) is int and v in TIME_INDICES else _time_index(v) for v in t]
        if len(self.t) != n:
            raise InvalidDistributionError(f"{len(self.t)} time indices for {n} records")

    def __len__(self) -> int:
        return len(self.y)

    @property
    def dim(self) -> int:
        return self.y.shape[1]

    @classmethod
    def from_objs(cls, objs: list[dict]) -> "RecordBatch":
        """A batch of decoded record lines, one column per key, ``t`` where set."""
        return cls(*([obj[key] for obj in objs] for key in cls.keys),
                   t=[obj.get("t") for obj in objs])

    @classmethod
    def from_obj(cls, obj, line_no: int) -> "RecordBatch":
        """A one-record batch from the decoded record line ``line_no``, which
        ingest builds to find a bad line; a value that is not an object, or
        one that makes no record, raises :class:`DataError` naming it."""
        if type(obj) is not dict:
            raise DataError(f"line {line_no}: expected an object")
        try:
            return cls.from_objs([obj])
        except KeyError as exc:
            error = f"missing field {exc.args[0]!r}"
        except (InvalidDistributionError, TypeError, ValueError, OverflowError) as exc:
            error = str(exc)
        raise DataError(f"line {line_no}: {error}")

    @classmethod
    def concat(cls, batches: list["RecordBatch"]) -> "RecordBatch":
        """The records of ``batches``, of one outcome dimension, as one batch, in order."""
        new = object.__new__(cls)
        for name, col in vars(batches[0]).items():
            cols = [getattr(b, name) for b in batches]
            setattr(new, name, np.concatenate(cols) if isinstance(col, np.ndarray)
                    else [v for c in cols for v in c])
        return new

    def uncertainty(self) -> np.ndarray:
        """One scalar spread per record; a monotone transform is enough for binning."""
        raise UnsupportedMetricError(f"{self.kind} records have no scalar uncertainty to bin by")


class GaussianBatch(RecordBatch):
    """Scalar Gaussians: means ``mu`` and standard deviations ``sigma``, ``(n,)`` each."""

    kind = "gaussian"
    keys = ("mu", "sigma", "y")

    def __init__(self, mu, sigma, y, t=None):
        self.mu = np.asarray(mu, dtype=float)
        self.sigma = np.asarray(sigma, dtype=float)
        if self.mu.ndim != 1 or self.sigma.shape != self.mu.shape:
            raise InvalidDistributionError("mu and sigma must be one number per record")
        check_gaussian(self.mu, self.sigma)
        self._set_outcomes(y, t, len(self.mu), {1})

    def _json_columns(self, rows):
        return self.mu[rows].tolist(), self.sigma[rows].tolist(), self.y[rows, 0].tolist()

    def pit_values(self, rng=None, ties=None):
        """The standard normal CDF of each standardised residual, scipy's
        ``ndtr`` bit for bit (:func:`calcheck.special.ndtr`)."""
        # a residual beyond the float range is +-inf, whose CDF is exactly 0 or 1
        with np.errstate(over="ignore"):
            return ndtr((self.y[:, 0] - self.mu) / self.sigma)

    def uncertainty(self):
        return self.sigma


class MvGaussianBatch(RecordBatch):
    """Multivariate Gaussian predictions: means ``mu (n, d)``, covariances
    ``cov (n, d, d)`` and their lower Cholesky factors ``chol``."""

    kind = "mv_gaussian"
    keys = ("mu", "cov", "y")
    # the chi-square PIT is the mass of the smallest ellipsoid holding y
    pit_is_central = True

    def __init__(self, mu, cov, y, t=None):
        mu = np.asarray(mu, dtype=float)
        self.mu = mu[:, None] if mu.ndim == 1 else mu
        self.cov = np.asarray(cov, dtype=float)
        self.chol = mv_cholesky(self.mu, self.cov)
        self._set_outcomes(y, t, len(self.mu), {self.mu.shape[1]})

    def _json_columns(self, rows):
        return self.mu[rows].tolist(), self.cov[rows].tolist(), self.y[rows].tolist()

    def pit_values(self, rng=None, ties=None):
        """Squared Mahalanobis distances through the chi-square CDF with ``d``
        degrees of freedom, their law under calibration.

        ``z = L^-1 (y - mu)`` by forward substitution over the ``d`` rows, never an
        explicit inverse; batched-matmul dot products match a per-record triangular
        solve and ``z @ z`` bit for bit, where ``einsum`` or ``(z * z).sum`` do not.

        With finite parameters and outcomes, a step overflows only for a residual
        beyond about 1e154 standard deviations, whose distance exceeds the float
        range; it ends as inf, or as NaN from ``inf - inf`` or ``0 * inf``, and
        scores PIT 1.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            chol, z = self.chol, self.y - self.mu  # z[:, i] turns from residual to solution
            for i in range(self.dim):
                z[:, i] = (z[:, i] - (chol[:, None, i, :i] @ z[:, :i, None])[:, 0, 0]) / chol[:, i, i]
            m = (z[:, None, :] @ z[:, :, None])[:, 0, 0]
        return chi2_cdf(np.where(np.isnan(m), np.inf, m), self.dim)

    def uncertainty(self):
        # log det instead of det: a monotone transform leaves quantile bins
        # unchanged and cannot overflow in high dimension.
        return 2.0 * np.log(np.diagonal(self.chol, axis1=1, axis2=2)).sum(axis=1)


class ParticleBatch(RecordBatch):
    """Weighted particle clouds as ragged columns: per record, weights
    ``w[i]`` of shape ``(m_i,)`` and points ``pts[i]`` of shape ``(m_i, d)``;
    clouds may differ in particle count but not in dimension.

    Each cloud needs at least 2 particles, finite, with nonnegative weights
    that sum to 1 within ``WEIGHT_SUM_TOL``; they are then renormalised to
    sum to 1 exactly.  Shapes and sums are checked cloud by cloud, finiteness
    and signs over ``CHECK_CLOUDS`` clouds at a time, before any sum is
    tested, so a one-cloud batch is refused for the first of these it fails."""

    kind = "particles"
    keys = ("w", "pts", "y")

    def __init__(self, w, pts, y, t=None):
        self.w, self.pts = [], []
        for wi, pi in zip(w, pts, strict=True):
            wi, pi = np.asarray(wi, dtype=float), _points(pi)
            if pi.ndim == 1:
                pi = pi[:, None]
            if wi.ndim != 1 or pi.ndim != 2 or wi.shape[0] != pi.shape[0]:
                raise InvalidDistributionError(
                    f"weights {wi.shape} do not match points {pi.shape}")
            if wi.shape[0] < 2:
                raise InvalidDistributionError("need at least 2 particles")
            self.w.append(wi)
            self.pts.append(pi)
        for i in range(0, len(self.w), CHECK_CLOUDS):
            flat = np.concatenate(self.w[i:i + CHECK_CLOUDS])
            if not (np.isfinite(flat).all() and np.isfinite(
                    np.concatenate([pi.ravel() for pi in self.pts[i:i + CHECK_CLOUDS]])).all()):
                raise InvalidDistributionError("particles must be finite")
            if (flat < 0).any():
                raise InvalidDistributionError("weights must be nonnegative")
        with np.errstate(over="ignore"):  # finite weights may sum to inf, refused below
            totals = [float(wi.sum()) for wi in self.w]
        for i, total in enumerate(totals):
            if abs(total - 1.0) > WEIGHT_SUM_TOL * (1.0 + 1e-6):
                raise InvalidDistributionError(
                    f"weights sum to {total!r}, outside 1 +/- {WEIGHT_SUM_TOL}")
            # skip the division when the sum is already 1 to working
            # precision: renormalization stays idempotent, so serialized
            # clouds round-trip bit for bit
            if abs(total - 1.0) > 1e-12:
                self.w[i] = self.w[i] / total
        self._set_outcomes(y, t, len(self.w), {pi.shape[1] for pi in self.pts})

    def _json_columns(self, rows):
        return ([wi.tolist() for wi in self.w[rows]], [pi.tolist() for pi in self.pts[rows]],
                self.y[rows].tolist())

    def pit_values(self, rng=None, ties=None):
        """The randomized projected PIT (:func:`~calcheck.metric.projected_pit`).
        Each cloud takes a fresh direction from ``rng`` and, when the
        outcome's projection ties with particles, a uniform from ``ties``,
        drawn in record order; so a batch scores as its records do one at a
        time, and the streams run on across batches."""
        if rng is None or ties is None:
            raise UnsupportedMetricError(
                "the PIT of particle clouds needs a direction and a tie stream")
        return projected_pit(self.w, self.pts, self.y, rng, ties)


FAMILIES: dict[str, type[RecordBatch]] = {
    cls.kind: cls for cls in (GaussianBatch, MvGaussianBatch, ParticleBatch)
}
