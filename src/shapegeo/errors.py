"""Exception hierarchy shared across the package."""


class ShapeGeoError(Exception):
    """Base class for all errors raised by shapegeo."""


class NotImmersed(ShapeGeoError):
    """Curve speed drops to (numerical) zero somewhere."""


class SingularGram(ShapeGeoError):
    """Metric Gram matrix is numerically singular at the working resolution."""


class NonConvergence(ShapeGeoError):
    """A solver stopped short of its tolerance: a budget ran out or a bisection stalled.

    The flows and the bisection of ``diffeo_flows`` (``invert``,
    ``isolated_periodic_points``, the blow-up exit time) raise it.  The BVP solver
    does not: its ``GeodesicReport`` says whether and why a solve stopped short.
    """


class DegenerateConfig(ShapeGeoError):
    """Landmark configuration has coincident points or a non-SPD Gram."""


class VanishingField(ShapeGeoError):
    """Vector field on the circle vanishes somewhere; conjugation undefined."""


class StepCollapse(ShapeGeoError):
    """A circle map is not orientation preserving: min(1 + f') <= 0 for its
    lift displacement f.  Every ``CircleDiffeo`` checks this when it is built."""
