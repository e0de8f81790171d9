"""Exception types shared across the package."""


class CohbreakError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(CohbreakError):
    """Operands act on incompatible Hilbert-space dimensions."""


class InvalidDimensionError(CohbreakError):
    """A dimension argument is outside its admissible range."""


class NotHermitianError(CohbreakError):
    """Matrix fails the Hermiticity tolerance."""


class NotDensityMatrixError(CohbreakError):
    """Matrix is not Hermitian, unit-trace and positive semidefinite."""


class BlochOutOfBallError(CohbreakError):
    """Bloch vector lies outside the unit ball."""


class NotTracePreservingError(CohbreakError):
    """Kraus operators do not sum to the identity under K^dag K."""


class NonFiniteError(CohbreakError, ValueError):
    """Input holds a NaN or infinite entry (malformed input, so a ValueError)."""


class NotPSDError(CohbreakError):
    """Matrix has an eigenvalue below the PSD tolerance."""


class NotPOVMError(CohbreakError):
    """Effects are not all PSD or do not sum to the identity."""


class ParameterOutOfRangeError(CohbreakError):
    """A numeric parameter violates its documented range."""


class NotIncoherentChannelError(CohbreakError):
    """Channel could not be certified incoherent from its Kraus operators."""


class IncoherentInputError(CohbreakError):
    """Operation requires a state with nonzero coherence."""


class HypothesisViolatedError(CohbreakError):
    """Channel does not map the maximally mixed state to a diagonal state."""
