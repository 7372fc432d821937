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


class ConvergenceError(IcuRiskError):
    """An iterative routine failed to reach its convergence criterion."""


class WorkerError(IcuRiskError, ChildProcessError):
    """A forked worker process died before it sent its results."""
