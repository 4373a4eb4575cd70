"""Weyl geometries sourced by relativistic perfect fluids.

Construction of the compatible connection induced by a fluid flow on a
Lorentzian chart, transport of the metric and fluid along the gauge orbit
of a log factor ``ln Phi`` (``g -> exp(2 ln Phi) g``, ``A -> A + d ln Phi``),
and numerical verification of the geodesy, conservation, current-invariance
and preferred-frame identities that tie them together.

Importing the package sets the process's allocator policy once: glibc keeps
freed blocks below 32 MiB on the heap (:mod:`weylfluid._allocator`).
"""

from . import _allocator

_allocator._keep_freed_memory()

from .geometry import (
    Chart,
    DerivativeEngine,
    MetricField,
    TensorField,
    covector_field,
    constant_scalar,
    normalize_timelike,
    scalar_field,
    tensor2_field,
    vector_field,
)
from .connections import (
    ConnectionField,
    eps_connection,
    levi_civita,
)
from .fluid import (
    FluidState,
    WeylBundle,
    fluid_connection,
    fluid_covector,
    geodesic_defect,
    stress_energy,
)
from .conservation import (
    SliceSpec,
    current_identity_residual,
    number_on_slice,
    particle_current,
)
from .conformal import (
    FrameFactor,
    conformal_rescale,
    preferred_frame,
)
from .worldlines import (
    WorldlinePath,
    integral_curve,
    integrate_autoparallel,
    integrate_null_geodesic,
    trajectory_compare,
)
from .catalog import CatalogBundle, build, preset_names, verification_matrix

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
