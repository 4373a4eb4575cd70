"""Weyl geometries sourced by relativistic perfect fluids.

Construction of the compatible connection induced by a fluid flow on a
Lorentzian chart, conformal gauge transport of the whole bundle, and
numerical verification of the geodesy, conservation, current-invariance and
preferred-frame identities that tie them together.
"""

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
    VectorDensityField,
    current_identity_residual,
    number_on_slice,
    particle_current,
)
from .conformal import (
    ConformalFactor,
    ConformalWeights,
    FrameFactor,
    conformal_rescale,
    current_invariance_check,
    incompressibility_residual,
    preferred_frame,
    rescaled_stress_energy_check,
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
