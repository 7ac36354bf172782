"""Graphene surface-plasmon quantum state transfer simulator."""

from .material import (
    CONSTANTS,
    Conductivity,
    GrapheneParams,
    LogSingularityError,
    PhysicalConstants,
    QuadratureError,
    conductivity,
    conductivity_full,
    conductivity_lowT,
    conductivity_slope,
    sigma_min,
)
from .dispersion import (
    SppMode,
    UnsupportedModeError,
    effective_wavelength,
    group_velocity,
    propagation_length,
    solve_mode,
    supported_polarization,
    transverse_q0,
    wavenumber,
)
from .quantize import (
    mode_function,
    mode_normalization,
    vector_potential_amplitude,
)
from .qstate import truncation_dimension
from .coupling import (
    CoherentMixture,
    CouplerSpec,
    excite_cat,
    excite_code,
)
from .channel import fidelity_vs_distance, propagate_mixture
from .prism import (
    AtrSolution,
    NotResonant,
    PrismGeometry,
    coupling_from_beta,
    critical_angle,
    matching_frequency,
    overlap_beta,
    prism_mode_normalization,
    reflectance_map,
)
from .qec import (
    QecRunConfig,
    average_fidelity,
    orthogonality_monitor,
)

__version__ = "0.1.0"
