"""Exception types shared across the package."""


class ChargeflowError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(ChargeflowError):
    """Inputs do not live in the space the object was built for."""


class OffManifold(ChargeflowError):
    """Point violates the manifold constraint (e.g. not unit norm)."""


class SingularDiagonal(ChargeflowError):
    """Kernel diverges at zero separation and the query hit it."""


class NegativeCoefficient(ChargeflowError):
    """A series coefficient that must be non-negative is negative."""

    def __init__(self, index, value):
        super().__init__(f"coefficient {index} is negative ({value})")
        self.index = index
        self.value = value


class NonFiniteSample(ChargeflowError):
    """A Monte-Carlo sample (activation overflow), an input point, a weight
    or a charge is inf/nan."""


class GridTooCoarse(ChargeflowError):
    """Radial grid cannot support the requested transform."""


class UnsupportedDimension(ChargeflowError):
    """Operation is only implemented for specific dimensions."""


class EvenDimension(ChargeflowError):
    """Radial eigenfunction recurrence requires odd dimension."""


class QuadratureNotConverged(ChargeflowError):
    """Adaptive quadrature failed to meet its tolerance."""


class NonDifferentiablePoint(ChargeflowError):
    """Configuration sits on a kink or singularity of the kernel."""


class CollisionSingularity(ChargeflowError):
    """Two particles collided at a singular/kinked kernel point."""


class EigenSolveFailure(ChargeflowError):
    """The matrix handed to the eigensolver has non-finite entries."""


class InitializationFailed(ChargeflowError):
    """No trial point achieved a strict loss decrease."""


class DegenerateCluster(ChargeflowError):
    """Electron positions coincide where distinct points are required."""


class NotACriticalPoint(ChargeflowError):
    """First-order optimality conditions violated beyond tolerance."""


class TooCloseToSingularity(ChargeflowError):
    """Pairwise distance below the singular-kernel guard radius."""


class DivergedLoss(ChargeflowError):
    """Training loss became non-finite."""
