"""Exception hierarchy shared across the solver modules."""


class PbalError(Exception):
    """Base class for all package-specific errors."""


class DegenerateStateError(PbalError):
    """Particle state violates ordering or mass positivity."""


class MassMismatchError(PbalError):
    """W1 distance requested between measures of different total mass."""


class UnknownScenarioError(PbalError, KeyError):
    """Catalog lookup with an unknown scenario name."""


class ScenarioFormatError(PbalError, ValueError):
    """Malformed scenario file or expression."""


class InitCollisionError(DegenerateStateError):
    """Quantile initialization produced (near-)coincident particles."""


class NumericalFailureError(PbalError):
    """Run left the numerically tractable regime (exit code 3 family)."""


class CollisionExtinctionError(NumericalFailureError):
    """Step control underflowed while guarding ordering / mass positivity."""

    def __init__(self, message, t=None, index=None):
        super().__init__(message)
        self.t = t
        self.index = index


class GridEscapeError(NumericalFailureError):
    """Finite-volume solution reached the boundary of the grid."""
