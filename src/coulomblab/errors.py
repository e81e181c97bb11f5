"""Exception types shared across the package.

Every error that a caller may want to branch on gets its own class; all of
them derive from ValueError or RuntimeError so generic handling still works.
"""


class ConvexityError(ValueError):
    """Sampled function violates discrete convexity."""


class SlopeRangeError(ValueError):
    """Legendre dual variable lies outside the attained slope range."""


class CoincidentChargesError(ValueError):
    """Two point charges closer than the coincidence tolerance."""


class NoOppositeSpeciesError(ValueError):
    """Operation needs both charge species but one is missing."""


class DegenerateSimplexError(ValueError):
    """Simplex with (numerically) zero volume."""


class GridMismatchError(ValueError):
    """Periodic fields live on incompatible grids."""


class SupportError(ValueError):
    """Field is not concentrated away from the periodic boundary."""


class ResolutionError(ValueError):
    """Input field is not band limited well enough for spectral products."""


class TruncationError(RuntimeError):
    """Truncated Fock state lost too much norm."""


class ConvergenceError(RuntimeError):
    """Iterative solver stopped before reaching its tolerance."""
