"""Exception types shared across the package."""


class RepresentationError(ValueError):
    """An operation received a field in the wrong representation."""


class FieldFormatError(ValueError):
    """A field file is malformed: bad magic, header mismatch, or truncated payload."""


class DegenerateInputError(ValueError):
    """A ratio verifier received input with a vanishing denominator."""


class WeightOverflowError(ValueError):
    """A dyadic norm's block weight 2^{js}, or its q-th power, exceeds float64 at
    the top block of the ladder."""


class StabilityError(RuntimeError):
    """Time integration tripped the CFL guard.

    Attributes
    ----------
    time : float or None
        Simulation time at which the guard fired.
    """

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class ResolutionError(ValueError):
    """A grid is too coarse for its input: a multiplier support, or data past the 2/3-rule modes."""
