"""Exception hierarchy shared across the package.

Each class maps to one stable command-line exit code: usage errors 1,
numeric failures 2, undefined metrics 3, file format problems 4.
"""


class PosrankError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(PosrankError):
    """Caller violated a precondition (bad shape, bad id, bad config)."""


class NumericError(PosrankError):
    """A computation produced NaN/Inf or was fed non-finite values."""


class UndefinedMetricError(PosrankError):
    """Metric is mathematically undefined for the given inputs."""


class FormatError(PosrankError):
    """A file does not match its declared schema or version."""
