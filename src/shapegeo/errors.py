"""Exception hierarchy shared across the package."""


class ShapeGeoError(Exception):
    """Base class for all errors raised by shapegeo."""


class NotImmersed(ShapeGeoError):
    """Curve speed drops to (numerical) zero somewhere."""


class SingularGram(ShapeGeoError):
    """Metric Gram matrix is numerically singular at the working resolution."""


class NonConvergence(ShapeGeoError):
    """A solver did not reach the requested tolerance within its budget.

    Geodesic solvers carry the best path found so far in ``self.path`` and
    the final report in ``self.report``; both are None otherwise.
    """

    def __init__(self, message, path=None, report=None):
        super().__init__(message)
        self.path = path
        self.report = report


class DegenerateConfig(ShapeGeoError):
    """Landmark configuration has coincident points or a non-SPD Gram."""


class VanishingField(ShapeGeoError):
    """Vector field on the circle vanishes somewhere; conjugation undefined."""


class StepCollapse(ShapeGeoError):
    """ODE integration produced a non-orientation-preserving circle map."""
