"""Exception hierarchy shared across the package."""


class CurvswimError(Exception):
    """Base class for all errors raised by this package."""


class ChartDomainError(CurvswimError):
    """A point (or a trajectory) left the valid chart domain of the surface."""


class GaugeConditionError(CurvswimError):
    """A deformation field violates the mass-weighted orthogonality gauge."""


class SingularGramError(CurvswimError):
    """The Killing-field Gram matrix is rank deficient beyond tolerance."""

    def __init__(self, message, rank=None, eigenvalues=None):
        super().__init__(message)
        self.rank = rank
        self.eigenvalues = eigenvalues


class BalanceConvergenceError(CurvswimError):
    """First-moment balancing failed to converge (body too large for the chart)."""


class DegenerateMomentsError(CurvswimError):
    """Second moments degenerate; the requested deformation family is undefined."""


class NonFiniteResultError(CurvswimError):
    """A computed result overflowed to an infinite or NaN value."""


class StrokeError(CurvswimError):
    """Invalid stroke definition (for instance a non-closed control loop)."""


class ConfigError(CurvswimError):
    """Run configuration is malformed or violates the schema."""
