"""Frame analysis of operator orbits on Hardy-space models and grids.

The package computes with truncated orbits (T^n f0): coefficient windows
of circle functions, finite Blaschke products and their model spaces,
the compressed shift and its projected-monomial orbit, frame bounds and
generator recovery for one- and two-sided orbits, separation-certified
normal and perturbed constructions, and discretized multiplication
operators on arc sets.
"""

from .coeffs import CoeffVec, inner_product, multiply
from .blaschke import (
    BlaschkeProduct,
    carleson_delta,
    delta_capacity,
    taylor_coeffs,
    validate_zeros,
)
from .model_space import (
    ModelSpace,
    basis_coordinates,
    build_model_space,
    decay_profile,
    project_model,
    projected_monomial,
)
from .orbits import (
    FrameReport,
    OrbitSpec,
    frame_bounds,
    generator_closure,
    kernel_shift_invariance,
    orbit_columns,
    synthesis_matrix,
    unitarity_defect,
)
from .constructions import (
    NormalOrbitSpec,
    PerturbedPair,
    build_normal_pair,
    certificate_bounds,
    excluded_tau,
    perturb_tau,
)
from .biinfinite import (
    ArcSet,
    TranslatesProfile,
    build_multiplication_pair,
    commutant_multiplier,
    translates_phi,
)
from .errors import NumericalError, ShiftInvarianceError

__version__ = "0.1.0"

__all__ = [
    "CoeffVec",
    "inner_product",
    "multiply",
    "BlaschkeProduct",
    "carleson_delta",
    "delta_capacity",
    "taylor_coeffs",
    "validate_zeros",
    "ModelSpace",
    "basis_coordinates",
    "build_model_space",
    "decay_profile",
    "project_model",
    "projected_monomial",
    "FrameReport",
    "OrbitSpec",
    "frame_bounds",
    "generator_closure",
    "kernel_shift_invariance",
    "orbit_columns",
    "synthesis_matrix",
    "unitarity_defect",
    "NormalOrbitSpec",
    "PerturbedPair",
    "build_normal_pair",
    "certificate_bounds",
    "excluded_tau",
    "perturb_tau",
    "ArcSet",
    "TranslatesProfile",
    "build_multiplication_pair",
    "commutant_multiplier",
    "translates_phi",
    "NumericalError",
    "ShiftInvarianceError",
    "__version__",
]
