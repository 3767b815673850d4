"""Exception types shared across the package."""


class CalcheckError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDistributionError(CalcheckError, ValueError):
    """Prediction parameters in a record batch violate their family's
    invariants (bad sigma, singular covariance, particle weights that do not
    sum to 1, ...)."""


class UnsupportedMetricError(CalcheckError, TypeError):
    """The requested metric is undefined for the given prediction family
    (e.g. PIT of a particle cloud)."""


class ConfigError(CalcheckError, ValueError):
    """Recipe configuration is internally inconsistent or unusable.
    Maps to CLI exit code 2."""


class DataError(CalcheckError, ValueError):
    """Input records are malformed, empty, or inconsistent.
    Maps to CLI exit code 3."""
