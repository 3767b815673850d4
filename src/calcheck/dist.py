"""Prediction models and the geometric primitives derived from them.

One prediction of each family lives here: scalar Gaussians, multivariate
Gaussians, generic parametric distributions given by CDF/quantile callables,
and weighted particle clouds.  The operations derive the objects the metrics
need: centered intervals, coverage ellipsoids, weighted quantiles, and
projections.  Batches of (prediction, outcome) records are columnar arrays
in :mod:`calcheck.records`, validated by the same parameter checks.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammainc, gammaincinv, ndtr, ndtri
from scipy.stats import gamma as _gamma_dist
from scipy.stats import t as _t_dist

from .errors import InvalidDistributionError, UnsupportedMetricError

__all__ = [
    "GaussianPrediction",
    "MvGaussianPrediction",
    "ParametricPrediction",
    "ParticleCloudPrediction",
    "check_gaussian",
    "mv_cholesky",
    "chi2_cdf",
    "chi2_qtl",
    "scalar_cdf",
    "scalar_qtl",
    "student_t_prediction",
    "exponential_prediction",
    "gamma_prediction",
    "centered_interval",
    "gaussian_interval",
    "mahalanobis_sq",
    "whitened_sq_norm",
    "ellipsoid_contains",
    "weighted_quantile",
    "project_particles",
    "moment_match_gaussian",
]

# Weight tolerance for particle clouds: the weight vector must sum to 1
# within this absolute slack before the exact renormalisation is applied.
WEIGHT_SUM_TOL = 1e-9

# Unit-vector tolerance for projections and half-plane directions.
UNIT_NORM_TOL = 1e-9


# ---------------------------------------------------------------------------
# scalar special functions
# ---------------------------------------------------------------------------

def chi2_cdf(x, d: int):
    """Chi-square CDF with ``d`` degrees of freedom.

    Computed as the regularized lower incomplete gamma function
    ``P(d/2, x/2)``, which is stable to far more digits than any tolerance
    used by the tests built on top of it.
    """
    return gammainc(d / 2.0, np.asarray(x, dtype=float) / 2.0)


def chi2_qtl(q, d: int):
    """Chi-square quantile with ``d`` degrees of freedom."""
    return 2.0 * gammaincinv(d / 2.0, q)


# ---------------------------------------------------------------------------
# prediction types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianPrediction:
    """Scalar Gaussian prediction with mean ``mu`` and std dev ``sigma``."""

    mu: float
    sigma: float

    def __post_init__(self):
        check_gaussian(self.mu, self.sigma)


def check_gaussian(mu, sigma) -> None:
    """Require finite means and standard deviations (scalars or arrays), ``sigma > 0``."""
    # one count when all is well; NaN fails both sigma comparisons
    ok = np.isfinite(mu) & (sigma > 0.0) & (sigma < np.inf)
    if np.count_nonzero(ok) != np.size(ok):
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
            raise InvalidDistributionError("gaussian parameters must be finite")
        bad = np.extract(np.less_equal(sigma, 0.0), sigma)
        raise InvalidDistributionError(f"sigma must be > 0, got {bad[0]}")


@dataclass(frozen=True, eq=False)
class MvGaussianPrediction:
    """Multivariate Gaussian prediction.

    ``cov`` must be symmetric positive definite, established by a successful
    Cholesky factorization at construction time.  If the first factorization
    fails, a single jitter of ``1e-10 * trace/d`` is added to the diagonal
    (near-singular covariances arise naturally from moment-matching tight
    particle clouds); a second failure raises.
    """

    mu: np.ndarray
    cov: np.ndarray
    _chol: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        cov = np.asarray(self.cov, dtype=float)
        chol = mv_cholesky(mu[None], cov[None])[0]
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_chol", chol)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


def mv_cholesky(mu: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of ``n`` Gaussians, means ``(n, d)`` and
    covariances ``(n, d, d)``, validated as :class:`MvGaussianPrediction` says.

    One batched factorization serves the usual case; when it fails, each
    covariance is factorized alone with its own one-shot jitter retry.
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


@dataclass(frozen=True)
class ParametricPrediction:
    """Scalar prediction given by a CDF and its generalized-inverse quantile.

    The callables are supplied by the caller or by the built-in families
    (:func:`student_t_prediction`, :func:`exponential_prediction`,
    :func:`gamma_prediction`).  ``cdf`` must be non-decreasing and ``qtl``
    a generalized inverse of it; both are spot-checked by the test suite on
    the built-in families rather than enforced per call.
    """

    cdf: Callable[[float], float]
    qtl: Callable[[float], float]


@dataclass(frozen=True, eq=False)
class ParticleCloudPrediction:
    """Weighted particle cloud ``{(w_j, y_j)}`` in ``p`` dimensions.

    Weights must be nonnegative and sum to 1 within 1e-9; they are then
    renormalised to sum to 1 exactly.  At least 2 particles are required.
    """

    weights: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        pts = np.asarray(self.points, dtype=float)
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
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "points", pts)

    @property
    def n_particles(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


# ---------------------------------------------------------------------------
# built-in parametric families
# ---------------------------------------------------------------------------

def student_t_prediction(df: float, loc: float = 0.0, scale: float = 1.0) -> ParametricPrediction:
    """Student-t family with closed-form CDF/quantile."""
    frozen = _t_dist(df, loc=loc, scale=scale)
    return ParametricPrediction(cdf=frozen.cdf, qtl=frozen.ppf)


def exponential_prediction(rate: float) -> ParametricPrediction:
    """Exponential family parameterized by rate; qtl(q) = -ln(1-q)/rate."""
    if rate <= 0:
        raise InvalidDistributionError("rate must be > 0")

    def cdf(y):
        y = np.asarray(y, dtype=float)
        return np.where(y < 0, 0.0, -np.expm1(-rate * y))

    def qtl(q):
        return -np.log1p(-np.asarray(q, dtype=float)) / rate

    return ParametricPrediction(cdf=cdf, qtl=qtl)


def gamma_prediction(shape: float, scale: float = 1.0) -> ParametricPrediction:
    """Gamma family."""
    frozen = _gamma_dist(shape, scale=scale)
    return ParametricPrediction(cdf=frozen.cdf, qtl=frozen.ppf)


# ---------------------------------------------------------------------------
# scalar CDF / quantile dispatch
# ---------------------------------------------------------------------------

def scalar_cdf(pred: GaussianPrediction | ParametricPrediction, y: float) -> float:
    """CDF of a scalar prediction evaluated at ``y``."""
    if isinstance(pred, GaussianPrediction):
        return float(ndtr((y - pred.mu) / pred.sigma))
    if isinstance(pred, ParametricPrediction):
        return float(pred.cdf(y))
    raise UnsupportedMetricError(
        f"{type(pred).__name__} does not expose a scalar CDF"
    )


def scalar_qtl(pred: GaussianPrediction | ParametricPrediction, q: float) -> float:
    """Quantile of a scalar prediction at probability ``q``."""
    if isinstance(pred, GaussianPrediction):
        return float(pred.mu + pred.sigma * ndtri(q))
    if isinstance(pred, ParametricPrediction):
        return float(pred.qtl(q))
    raise UnsupportedMetricError(
        f"{type(pred).__name__} does not expose a scalar quantile function"
    )


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def centered_interval(
    pred: GaussianPrediction | ParametricPrediction, level: float
) -> tuple[float, float]:
    """Centered prediction interval carrying probability mass ``level``.

    Returns ``(qtl((1-level)/2), qtl((1+level)/2))``, the interval placed
    symmetrically (in probability) around the median.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if isinstance(pred, GaussianPrediction):
        lo, hi = gaussian_interval(pred.mu, pred.sigma, level)
    else:
        lo, hi = scalar_qtl(pred, (1.0 - level) / 2.0), scalar_qtl(pred, (1.0 + level) / 2.0)
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
        raise InvalidDistributionError(
            f"quantile function produced an invalid interval ({lo}, {hi})"
        )
    return lo, hi


def gaussian_interval(mu: float, sigma: float, level: float) -> tuple[float, float]:
    """Centered interval of ``N(mu, sigma^2)`` carrying probability mass ``level``."""
    if not (0.0 < level < 1.0 and sigma > 0.0):
        raise ValueError(f"need 0 < level < 1 and sigma > 0, got {level} and {sigma}")
    return (float(mu + sigma * ndtri((1.0 - level) / 2.0)),
            float(mu + sigma * ndtri((1.0 + level) / 2.0)))


def mahalanobis_sq(pred: MvGaussianPrediction, y) -> float:
    """Squared Mahalanobis distance of ``y`` from the prediction.

    Computed by a triangular solve against the cached Cholesky factor,
    never through an explicit matrix inverse.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != pred.mu.shape:
        raise InvalidDistributionError(
            f"outcome has shape {y.shape}, expected {pred.mu.shape}"
        )
    return whitened_sq_norm(pred._chol, y - pred.mu)


def whitened_sq_norm(chol: np.ndarray, diff: np.ndarray) -> float:
    """``|L^-1 diff|^2`` for a lower Cholesky factor ``L``, by triangular solve."""
    z = solve_triangular(chol, diff, lower=True)
    return float(z @ z)


def ellipsoid_contains(pred: MvGaussianPrediction, y, level: float) -> bool:
    """Membership of ``y`` in the level-``lambda`` coverage ellipsoid."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    return mahalanobis_sq(pred, y) <= float(chi2_qtl(level, pred.dim))


def weighted_quantile(weights, values, q):
    """Left-continuous generalized inverse of the weighted ECDF.

    Returns the smallest sample value whose cumulative weight reaches ``q``.
    This matches the unweighted empirical quantile convention and keeps the
    coverage indicator conservative at ties.  ``q`` may be an array of
    levels, answered from one sort as an array of the same shape.
    """
    w = np.asarray(weights, dtype=float)
    v = np.asarray(values, dtype=float)
    q = np.asarray(q, dtype=float)
    if v.size == 0:
        raise ValueError("cannot take a quantile of an empty sample")
    if not (q.min() > 0.0 and q.max() < 1.0):
        raise ValueError(f"q must be in (0, 1), got {q}")
    order = np.argsort(v, kind="stable")
    cum = np.cumsum(w[order])
    idx = np.searchsorted(cum, q * cum[-1], side="left")
    idx = np.minimum(idx, v.size - 1)  # guard float roundoff at q ~ 1
    quantiles = v[order[idx]]
    return float(quantiles) if quantiles.ndim == 0 else quantiles


def project_particles(pred: ParticleCloudPrediction, direction) -> tuple[np.ndarray, np.ndarray]:
    """Project a particle cloud onto a unit direction.

    Returns ``(weights, <y_j, d>)`` with weights unchanged, so total weight
    is preserved exactly.
    """
    d = np.asarray(direction, dtype=float)
    if d.shape != (pred.dim,):
        raise ValueError(f"direction has shape {d.shape}, expected ({pred.dim},)")
    if abs(float(np.linalg.norm(d)) - 1.0) > UNIT_NORM_TOL:
        raise ValueError("direction must be a unit vector")
    return pred.weights, pred.points @ d


def moment_match_gaussian(pred: ParticleCloudPrediction) -> MvGaussianPrediction:
    """Fit a multivariate Gaussian to a weighted particle cloud.

    Mean and covariance are the weighted moments (weights sum to 1, no
    small-sample correction).  Near-singular covariances are regularized by
    the one-shot jitter policy of :class:`MvGaussianPrediction`; a cloud of
    identical particles has zero covariance and raises.
    """
    w = pred.weights
    pts = pred.points
    mu = w @ pts
    centered = pts - mu
    cov = (w[:, None] * centered).T @ centered
    cov = (cov + cov.T) / 2.0  # enforce exact symmetry against roundoff
    try:
        return MvGaussianPrediction(mu=mu, cov=cov)
    except InvalidDistributionError:
        raise InvalidDistributionError(
            "particle cloud has singular covariance (all particles identical?)"
        ) from None
