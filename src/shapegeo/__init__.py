"""shapegeo: a numerical laboratory for weak Riemannian geometry on
curve spaces, landmark spaces and diffeomorphism groups.  numpy is its
only runtime dependency.

Run statistics go to the "shapegeo" logger at DEBUG; it has a NullHandler,
so nothing is printed unless the application configures logging."""

import logging

from . import (
    curves,
    diffeo_flows,
    hilbert_geometry,
    kernel_metrics,
    path_geodesics,
    periodic_core,
)
from .errors import (
    DegenerateConfig,
    NonConvergence,
    NotImmersed,
    ShapeGeoError,
    SingularGram,
    StepCollapse,
    VanishingField,
)

__version__ = "0.1.0"

logging.getLogger("shapegeo").addHandler(logging.NullHandler())

__all__ = [
    "curves",
    "diffeo_flows",
    "hilbert_geometry",
    "kernel_metrics",
    "path_geodesics",
    "periodic_core",
    "ShapeGeoError",
    "NotImmersed",
    "SingularGram",
    "NonConvergence",
    "DegenerateConfig",
    "VanishingField",
    "StepCollapse",
    "__version__",
]
