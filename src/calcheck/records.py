"""Record batches: one columnar batch type per prediction family.

A batch holds ``n`` (prediction, outcome) records of one family: outcomes
``y`` of shape ``(n, d)``, the optional per-record time index ``t``, and the
family's parameter columns.  What depends on the family lives on its batch
type: the JSON keys of its record lines, parsing and validation,
serialisation, the PIT, the scalar uncertainty that variance bins sort by,
and particle clouds for half-plane coverage.  ``FAMILIES`` maps each model
name to its type, so a batch's family is decided once, when its type is
chosen; the monitor picks its step by the batch's ``kind``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .dist import (
    ParticleCloudPrediction,
    check_gaussian,
    chi2_cdf,
    mv_cholesky,
    whitened_sq_norm,
)
from .errors import DataError, InvalidDistributionError, UnsupportedMetricError

__all__ = [
    "RecordBatch",
    "GaussianBatch",
    "MvGaussianBatch",
    "ParticleBatch",
    "FAMILIES",
]


class RecordBatch:
    """Records of one prediction family; each subclass is one family.

    Every attribute of a batch holds one entry per record, so :meth:`take`
    indexes them all together.  ``keys`` are the family's JSON fields in
    file order, the outcome ``y`` last; the second key is the one that names
    the family in a record line.  ``fold_for_coverage`` says whether the
    family's centered coverage sets are intervals, read off the folded PIT,
    rather than sets whose mass the PIT itself measures.
    """

    kind: str
    keys: tuple[str, ...]
    fold_for_coverage = False

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
        self.t = [None] * n if t is None else [None if v is None else int(v) for v in t]
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
        """A one-record batch from the decoded record line ``line_no``; a bad
        record raises :class:`DataError` naming its line."""
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

    def particle_clouds(self) -> list[ParticleCloudPrediction]:
        raise UnsupportedMetricError("half-plane coverage requires particle-cloud predictions")


class GaussianBatch(RecordBatch):
    """Scalar Gaussians: means ``mu`` and standard deviations ``sigma``, ``(n,)`` each."""

    kind = "gaussian"
    keys = ("mu", "sigma", "y")
    fold_for_coverage = True

    def __init__(self, mu, sigma, y, t=None):
        self.mu = np.asarray(mu, dtype=float)
        self.sigma = np.asarray(sigma, dtype=float)
        if self.mu.ndim != 1 or self.sigma.shape != self.mu.shape:
            raise InvalidDistributionError("mu and sigma must be one number per record")
        check_gaussian(self.mu, self.sigma)
        self._set_outcomes(y, t, len(self.mu), {1})

    @classmethod
    def from_obj(cls, obj, line_no):
        # A line of finite floats and an integer or absent t, as write_records
        # writes them, skips the array checks; any other line goes through
        # the constructor.
        mu, sigma, y, t = map(obj.get, ("mu", "sigma", "y", "t"))
        if not (type(mu) is type(sigma) is type(y) is float and type(t) in (int, type(None))
                and math.isfinite(mu) and math.isfinite(y) and 0.0 < sigma < math.inf):
            return super().from_obj(obj, line_no)
        batch = object.__new__(cls)
        batch.mu, batch.sigma, batch.y = np.array([mu]), np.array([sigma]), np.array([[y]])
        batch.t = [t]
        return batch

    def _json_columns(self):
        return self.mu.tolist(), self.sigma.tolist(), self.y[:, 0].tolist()

    def pit_values(self):
        return ndtr((self.y[:, 0] - self.mu) / self.sigma)

    def uncertainty(self):
        return self.sigma


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
    """Weighted particle clouds, one :class:`ParticleCloudPrediction` per
    record; clouds may differ in particle count but not in dimension."""

    kind = "particles"
    keys = ("w", "pts", "y")

    def __init__(self, w, pts, y, t=None):
        self.clouds = [ParticleCloudPrediction(wi, pi) for wi, pi in zip(w, pts, strict=True)]
        self._set_outcomes(y, t, len(self.clouds), {c.dim for c in self.clouds})

    def _json_columns(self):
        return ([c.weights.tolist() for c in self.clouds],
                [c.points.tolist() for c in self.clouds], self.y.tolist())

    def particle_clouds(self):
        return self.clouds


FAMILIES: dict[str, type[RecordBatch]] = {
    cls.kind: cls for cls in (GaussianBatch, MvGaussianBatch, ParticleBatch)
}
