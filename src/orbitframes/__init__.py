"""Frame analysis of operator orbits on Hardy-space models and grids.

The package computes with truncated orbits (T^n f0): coefficient windows
of circle functions, finite Blaschke products and their model spaces,
the compressed shift and its projected-monomial orbit, frame bounds and
generator recovery for one- and two-sided orbits, separation-certified
normal and perturbed constructions, and discretized multiplication
operators on arc sets.
"""

from .coeffs import (
    CoeffVec,
    add,
    coeffs_equal,
    conj_reflect,
    inner_product,
    monomial,
    multiply,
    norm,
    project_minus,
    project_plus,
    restrict,
    scale,
    trim,
)
from .blaschke import (
    BlaschkeProduct,
    carleson_delta,
    delta_capacity,
    evaluate,
    taylor_coeffs,
    validate_zeros,
)
from .model_space import (
    ModelSpace,
    basis_coordinates,
    build_model_space,
    decay_profile,
    minimal_polynomial_check,
    orbit,
    project_model,
    projected_monomial,
)
from .orbits import (
    FrameReport,
    OrbitSpec,
    commutant_transport,
    frame_bounds,
    generator_closure,
    kernel_shift_invariance,
    lower_norm_check,
    orbit_columns,
    similarity_transport,
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
    full_circle,
    translates_phi,
)
from .biinfinite import parseval_defect as grid_parseval_defect
from .errors import CommutatorError, NumericalError, ShiftInvarianceError

__version__ = "0.1.0"

__all__ = [
    "CoeffVec",
    "add",
    "coeffs_equal",
    "conj_reflect",
    "inner_product",
    "monomial",
    "multiply",
    "norm",
    "project_minus",
    "project_plus",
    "restrict",
    "scale",
    "trim",
    "BlaschkeProduct",
    "carleson_delta",
    "delta_capacity",
    "evaluate",
    "taylor_coeffs",
    "validate_zeros",
    "ModelSpace",
    "basis_coordinates",
    "build_model_space",
    "decay_profile",
    "minimal_polynomial_check",
    "orbit",
    "project_model",
    "projected_monomial",
    "FrameReport",
    "OrbitSpec",
    "commutant_transport",
    "frame_bounds",
    "generator_closure",
    "kernel_shift_invariance",
    "lower_norm_check",
    "orbit_columns",
    "similarity_transport",
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
    "full_circle",
    "grid_parseval_defect",
    "translates_phi",
    "CommutatorError",
    "NumericalError",
    "ShiftInvarianceError",
    "__version__",
]
