"""Exception types shared across the package."""


class GradMatchError(Exception):
    """Base class for all errors raised by this package.

    Raised itself for the invalid inputs no caller tells apart: bad knots,
    points off the interval, empty data, a zero-variance sample.
    """


class DegreesOfFreedomError(GradMatchError):
    """Effective parameter count of a knot subset reaches the sample size."""


class BlowupError(GradMatchError):
    """Trajectory norm exceeded the blow-up bound in finite time."""

    def __init__(self, message, escape_time=None):
        super().__init__(message)
        self.escape_time = escape_time


class IdentifiabilityError(GradMatchError):
    """Estimation problem is rank deficient along some parameter directions.

    ``directions`` holds the offending unit vectors in free-parameter space,
    one per row, when the caller could compute them.
    """

    def __init__(self, message, directions=None):
        super().__init__(message)
        self.directions = directions


class IdentifiabilityWarning(UserWarning):
    """Criterion Hessian is numerically singular at the evaluation point."""


class ConfigError(GradMatchError):
    """A usage or configuration problem; the CLI exits 2."""


class ExperimentError(GradMatchError):
    """Too many Monte Carlo replications failed."""
