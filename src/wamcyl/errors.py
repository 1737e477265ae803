"""Exception types shared across the package."""


class WamcylError(Exception):
    """Base class for all numerical / domain failures raised by wamcyl."""


class DomainError(WamcylError):
    """A point lies outside the closed cylinder beyond tolerance."""


class RankDeficiencyError(WamcylError):
    """A pivoted QR step found no column above the rank tolerance."""


class SingularMatrixError(WamcylError):
    """Gaussian elimination found no usable pivot."""


class ConvergenceError(WamcylError):
    """The quadrature oracle did not converge within its refinement or point budget."""
