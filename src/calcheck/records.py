"""Record batches: the data model, one columnar batch type per prediction family.

A batch holds ``n`` (prediction, outcome) records of one family: outcomes
``y`` of shape ``(n, d)``, the optional per-record time index ``t``, and the
family's parameter columns.  What depends on the family lives on its batch
type: the JSON keys of its record lines, parsing and validation of the
parameters, serialisation, the PIT, the scalar uncertainty that variance
bins sort by, and the coverage indicator, whether each outcome lies in its
prediction's centered level set, which the offline coverage counts and the
online monitor both read.  ``FAMILIES`` maps each model name to its type,
so a batch's family is decided once, when its type is chosen.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammainc, ndtr

from .errors import DataError, InvalidDistributionError, UnsupportedMetricError
from .metric import fold, halfplane_indicator, pit

__all__ = [
    "RecordBatch",
    "GaussianBatch",
    "MvGaussianBatch",
    "ParticleBatch",
    "FAMILIES",
    "chi2_cdf",
]

# Weight tolerance for particle clouds: the weight vector must sum to 1
# within this absolute slack before the exact renormalisation is applied.
WEIGHT_SUM_TOL = 1e-9


def chi2_cdf(x, d: int):
    """Chi-square CDF with ``d`` degrees of freedom.

    Computed as the regularized lower incomplete gamma function
    ``P(d/2, x/2)``, which is stable to far more digits than any tolerance
    used by the tests built on top of it.
    """
    return gammainc(d / 2.0, np.asarray(x, dtype=float) / 2.0)


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
    if not np.allclose(cov, np.swapaxes(cov, 1, 2), rtol=1e-9, atol=1e-12):
        raise InvalidDistributionError("covariance must be symmetric")
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return np.stack([_jittered_cholesky(c) for c in cov])


def _jittered_cholesky(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        d = cov.shape[0]
        jitter = 1e-10 * np.trace(cov) / d
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(d))
        except np.linalg.LinAlgError:
            raise InvalidDistributionError(
                "covariance is singular or indefinite (jitter retry failed)"
            ) from None


def whitened_sq_norm(chol: np.ndarray, diff: np.ndarray) -> float:
    """``|L^-1 diff|^2`` for a lower Cholesky factor ``L``, by triangular solve,
    never through an explicit matrix inverse."""
    from scipy.linalg import solve_triangular  # only the mv_gaussian path needs scipy.linalg

    z = solve_triangular(chol, diff, lower=True)
    return float(z @ z)


def _checked_cloud(w, pts) -> tuple[np.ndarray, np.ndarray]:
    """One cloud's weights ``(m,)`` and points ``(m, d)``, validated.

    Weights must be nonnegative and sum to 1 within ``WEIGHT_SUM_TOL``; they
    are then renormalised to sum to 1 exactly.  At least 2 particles are
    required.
    """
    w = np.asarray(w, dtype=float)
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if w.ndim != 1 or pts.ndim != 2 or w.shape[0] != pts.shape[0]:
        raise InvalidDistributionError(
            f"weights {w.shape} do not match points {pts.shape}"
        )
    if w.shape[0] < 2:
        raise InvalidDistributionError("need at least 2 particles")
    if not np.all(np.isfinite(w)) or not np.all(np.isfinite(pts)):
        raise InvalidDistributionError("particles must be finite")
    if np.any(w < 0):
        raise InvalidDistributionError("weights must be nonnegative")
    total = float(w.sum())
    # boundary inclusive up to representation error of the inputs
    if abs(total - 1.0) > WEIGHT_SUM_TOL * (1.0 + 1e-6):
        raise InvalidDistributionError(
            f"weights sum to {total!r}, outside 1 +/- {WEIGHT_SUM_TOL}"
        )
    # skip the division when the sum is already 1 to working precision:
    # renormalization stays idempotent, so serialized clouds round-trip
    # bit for bit
    if abs(total - 1.0) > 1e-12:
        w = w / total
    return w, pts


def _time_index(v) -> int:
    """A record's time index, an integer: not a bool, float or string stored as one."""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    raise InvalidDistributionError(f"time index must be an integer or null, got {v!r}")


class RecordBatch:
    """Records of one prediction family; each subclass is one family.

    Every attribute of a batch holds one entry per record, so :meth:`take`
    indexes them all together.  ``keys`` are the family's JSON fields in
    file order, the outcome ``y`` last; the second key is the one that names
    the family in a record line.  :meth:`covered` is the family's one
    coverage indicator.
    """

    kind: str
    keys: tuple[str, ...]

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
        self.t = [None] * n if t is None else [v if v is None or type(v) is int else _time_index(v)
                                               for v in t]
        if len(self.t) != n:
            raise InvalidDistributionError(f"{len(self.t)} time indices for {n} records")

    def __len__(self) -> int:
        return len(self.y)

    @property
    def dim(self) -> int:
        return self.y.shape[1]

    def take(self, idx) -> "RecordBatch":
        """The records at positions ``idx``, in that order, as a batch of this family."""
        new = object.__new__(type(self))
        for name, col in vars(self).items():
            setattr(new, name, col[idx] if isinstance(col, np.ndarray) else [col[i] for i in idx])
        return new

    @classmethod
    def from_obj(cls, obj: dict, line_no: int) -> "RecordBatch":
        """A one-record batch from the decoded record line ``line_no``, which
        ingest builds to find a bad line; it raises :class:`DataError` naming it."""
        try:
            return cls(*([obj[key]] for key in cls.keys), t=[obj.get("t")])
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

    def to_objs(self):
        """The records as JSON-ready dicts, keys in file order, ``t`` where set."""
        for values, t in zip(zip(*self._json_columns()), self.t):
            obj = dict(zip(self.keys, values))
            if t is not None:
                obj["t"] = t
            yield obj

    def pit_values(self) -> np.ndarray:
        """Each prediction's CDF at its outcome (unclipped)."""
        raise UnsupportedMetricError(f"{self.kind} records have no PIT; use half-plane coverage")

    def uncertainty(self) -> np.ndarray:
        """One scalar spread per record; a monotone transform is enough for binning."""
        raise UnsupportedMetricError(f"{self.kind} records have no scalar uncertainty to bin by")

    def covered(self, levels: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        """Whether each outcome lies in its prediction's centered set at each of
        ``levels``, as ``(n, k)`` booleans.  By default the PIT, the mass of the
        smallest centered set holding the outcome, is ``<= lambda``."""
        return pit(self).values[:, None] <= levels


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

    def _json_columns(self):
        return self.mu.tolist(), self.sigma.tolist(), self.y[:, 0].tolist()

    def pit_values(self):
        return ndtr((self.y[:, 0] - self.mu) / self.sigma)

    def uncertainty(self):
        return self.sigma

    def covered(self, levels, rng=None):
        # the centered interval at level lambda holds y exactly when the
        # folded PIT |2 Phi(z) - 1| is <= lambda
        return fold(pit(self)).values[:, None] <= levels


class MvGaussianBatch(RecordBatch):
    """Multivariate Gaussian predictions: means ``mu (n, d)``, covariances
    ``cov (n, d, d)`` and their lower Cholesky factors ``chol``."""

    kind = "mv_gaussian"
    keys = ("mu", "cov", "y")

    def __init__(self, mu, cov, y, t=None):
        mu = np.asarray(mu, dtype=float)
        self.mu = mu[:, None] if mu.ndim == 1 else mu
        self.cov = np.asarray(cov, dtype=float)
        self.chol = mv_cholesky(self.mu, self.cov)
        self._set_outcomes(y, t, len(self.mu), {self.mu.shape[1]})

    def _json_columns(self):
        return self.mu.tolist(), self.cov.tolist(), self.y.tolist()

    def pit_values(self):
        """Squared Mahalanobis distances through the chi-square CDF with ``d``
        degrees of freedom, their law under calibration."""
        m = [whitened_sq_norm(c, r) for c, r in zip(self.chol, self.y - self.mu)]
        return chi2_cdf(np.array(m), self.dim)

    def uncertainty(self):
        # log det instead of det: a monotone transform leaves quantile bins
        # unchanged and cannot overflow in high dimension.
        return 2.0 * np.log(np.diagonal(self.chol, axis1=1, axis2=2)).sum(axis=1)


class ParticleBatch(RecordBatch):
    """Weighted particle clouds as ragged columns: per record, weights
    ``w[i]`` of shape ``(m_i,)`` and points ``pts[i]`` of shape ``(m_i, d)``;
    clouds may differ in particle count but not in dimension."""

    kind = "particles"
    keys = ("w", "pts", "y")

    def __init__(self, w, pts, y, t=None):
        clouds = [_checked_cloud(wi, pi) for wi, pi in zip(w, pts, strict=True)]
        self.w = [wi for wi, _ in clouds]
        self.pts = [pi for _, pi in clouds]
        self._set_outcomes(y, t, len(clouds), {pi.shape[1] for pi in self.pts})

    def _json_columns(self):
        return [wi.tolist() for wi in self.w], [pi.tolist() for pi in self.pts], self.y.tolist()

    def covered(self, levels, rng=None):
        # one halfplane_indicator row per cloud, each on a fresh direction
        if rng is None:
            raise UnsupportedMetricError("half-plane coverage of particle clouds needs an rng")
        return np.array([halfplane_indicator(w, pts, y, levels, rng) for w, pts, y
                         in zip(self.w, self.pts, self.y)], bool).reshape(len(self), len(levels))


FAMILIES: dict[str, type[RecordBatch]] = {
    cls.kind: cls for cls in (GaussianBatch, MvGaussianBatch, ParticleBatch)
}
