"""Exception hierarchy shared across the package."""


class ShapeGeoError(Exception):
    """Base class for all errors raised by shapegeo."""


class NotImmersed(ShapeGeoError):
    """Curve speed drops to (numerical) zero somewhere."""


class SingularGram(ShapeGeoError):
    """Metric Gram matrix is numerically singular at the working resolution."""


class NonConvergence(ShapeGeoError):
    """A solver did not reach the requested tolerance within its budget.

    The circle flows, the bisections of ``diffeo_flows`` (``invert``,
    ``isolated_periodic_points``, the blow-up exit time) and
    ``grossman_experiment``'s quadrature raise it.  The BVP solver does not:
    its ``GeodesicReport`` says whether and why a solve stopped short.
    """


class DegenerateConfig(ShapeGeoError):
    """Landmark configuration has coincident points or a non-SPD Gram."""


class VanishingField(ShapeGeoError):
    """Vector field on the circle vanishes somewhere; conjugation undefined."""


class StepCollapse(ShapeGeoError):
    """ODE integration produced a non-orientation-preserving circle map."""
