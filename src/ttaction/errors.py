"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Inputs have inconsistent dimensions or an out-of-range mode index."""


class NumericalError(RuntimeError):
    """Base of the failures of a computation, as opposed to its configuration."""


class CapacityError(NumericalError):
    """A rank search reached its ceiling without meeting the error target.

    Raised by :func:`~ttaction.hovd.compress_derivative`.
    """


class ZeroNormError(NumericalError, ValueError):
    """A relative quantity was requested against a zero reference norm."""


class FormatError(ValueError):
    """A serialized tensor train could not be parsed.

    The byte offset at which parsing failed is stored in ``offset``.
    """

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class VersionError(FormatError):
    """A serialized tensor train uses an unsupported format version."""


class DegenerateRangeError(NumericalError):
    """Sampled range had numerically zero content in a requested direction."""


class InterpolationError(NumericalError):
    """An interpolation system was too ill-conditioned to trust.

    The worst residual over right-hand sides is stored in ``residual``.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class BuildStageError(NumericalError):
    """Wraps a failure inside the core-by-core build with the stage index."""

    def __init__(self, stage, cause):
        super().__init__(f"build failed at stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause


class NonFiniteActionError(NumericalError):
    """An action returned NaN or infinite entries."""


class NewtonError(NumericalError):
    """The nonlinear state solve did not reach tolerance."""


class ConvergenceWarning(UserWarning):
    """An iterative estimate stopped without meeting its tolerance."""
