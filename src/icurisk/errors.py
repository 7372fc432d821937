"""Exception taxonomy shared across the package.

Every error raised deliberately by this package derives from IcuRiskError so
callers (and the CLI) can separate our failures from genuine bugs.
"""


class IcuRiskError(Exception):
    """Base class for all package errors."""


class SchemaError(IcuRiskError):
    """Feature schema is malformed or does not match the data."""


class ConfigError(IcuRiskError):
    """A configuration value is out of range or inconsistent."""


class DataError(IcuRiskError):
    """Input data violates a precondition (shape, values, labels)."""


class OrderingError(IcuRiskError):
    """A pipeline stage was invoked out of order (e.g. scale before impute)."""


class NumericError(IcuRiskError):
    """A run stage hit a floating-point trap, a singular matrix, or a warning
    that a strict warnings filter raised as an error."""


class WorkerError(IcuRiskError, ChildProcessError):
    """A worker process could not be started (its pipe or its fork failed),
    or died before it sent its results, or sent back, by type name and
    message, an item's exception that does not pickle."""
