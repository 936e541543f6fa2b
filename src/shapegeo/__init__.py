"""shapegeo: a numerical laboratory for weak Riemannian geometry on
curve spaces, landmark spaces and diffeomorphism groups."""

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
