"""Exception hierarchy shared across the package."""


class PorcupineError(Exception):
    """Base class for all errors raised by this package."""


class ZeroVector(PorcupineError):
    """A vector that must be non-zero has (numerically) zero norm."""


class ZeroColumn(PorcupineError):
    """A weight column is zero where a non-zero column is required."""


class DuplicateLine(PorcupineError):
    """Two supposedly distinct lines are collinear within tolerance."""


class DimensionMismatch(PorcupineError):
    """Operands live in incompatible dimensions."""


class TooManyCollisions(PorcupineError):
    """Random line drawing kept colliding and ran out of attempts."""


class InfeasibleWeights(PorcupineError):
    """A weight column strays from its assigned line beyond tolerance."""


class ConfigMismatch(PorcupineError):
    """Two porcupine configurations that must agree do not."""


class DomainError(PorcupineError):
    """A scalar argument lies outside the function's domain."""


class NotSymmetric(PorcupineError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class SingularKernel(PorcupineError):
    """A kernel matrix that must be invertible is numerically singular."""


class NegativeMass(PorcupineError):
    """A per-line mass vector has negative entries."""


class PreconditionViolated(PorcupineError):
    """A stated precondition of a bound does not hold for the inputs."""


class ParameterOutOfRange(PorcupineError):
    """A numeric parameter violates its admissible range."""


class SingularStructure(PorcupineError):
    """A structured matrix (alpha*I + beta*ones) is singular."""


class CoverageNotReached(PorcupineError):
    """Greedy net construction exhausted its probe budget before covering."""


class ConfigError(PorcupineError):
    """A training configuration is invalid."""


class Diverged(PorcupineError):
    """Training loss became non-finite."""
