"""Exception types shared across the package."""


class MScatterError(Exception):
    """Base class for all errors raised by mscatter."""


class InvalidInputError(MScatterError, ValueError):
    """Input array is malformed (non-finite entries, wrong shape, bad flag)."""


class DimensionMismatchError(MScatterError, ValueError):
    """Operands live in different dimensions."""


class DomainError(MScatterError, ValueError):
    """Argument outside the domain of a loss function (s < 0, or s = 0 for the
    scale-invariant log loss)."""


class RangeError(MScatterError, OverflowError):
    """Result not representable (matrix exponential overflow, or atom traces
    beyond the normal floating-point range)."""


class NotPositiveDefiniteError(MScatterError, ValueError):
    """A matrix required to be symmetric positive definite is not."""


class UnsupportedOperationError(MScatterError, TypeError):
    """Operation needs structure the loss family does not provide
    (typically a second derivative)."""


class InvalidRegimeError(MScatterError, ValueError):
    """Closed-form asymptotic constants requested outside their valid
    parameter regime."""


class InternalConsistencyError(MScatterError, RuntimeError):
    """A quantity that is positive definite in exact arithmetic failed to be
    so numerically."""
