"""Exception types shared across the package."""


class CalcheckError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDistributionError(CalcheckError, ValueError):
    """Prediction parameters in a record batch violate their family's
    invariants (bad sigma, singular covariance, particle weights that do not
    sum to 1, ...)."""


class UnsupportedMetricError(CalcheckError, TypeError):
    """The requested metric is undefined for the given prediction family, or
    for its arguments (e.g. the scalar uncertainty of a particle cloud, or
    its PIT without a direction and a tie stream)."""


class ConfigError(CalcheckError, ValueError):
    """Recipe configuration is internally inconsistent or unusable.
    Maps to CLI exit code 2."""


class DataError(CalcheckError, ValueError):
    """Input records are malformed, empty, or inconsistent.
    Maps to CLI exit code 3."""


class WorkerLostError(CalcheckError, RuntimeError):
    """A worker process ended before it returned its result (killed by a
    signal or by the out-of-memory killer).  Maps to CLI exit code 70."""
