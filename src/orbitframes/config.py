"""The registry of limits and thresholds: every gate of the package reads
its threshold here.  Only the ceiling moves, via ``ORBITFRAMES_MAX_TRUNC``.
"""

from __future__ import annotations

import os

#: Hard ceiling on any truncation window when the env var is unset.
DEFAULT_MAX_TRUNC = 16384
#: Most grid points a ``biinfinite`` arc set may mask: its D x D operators
#: take up to 16 D^2 bytes each (64 MiB at the ceiling).
GRID_MASK_MAX = 2048
#: Margin inside the open unit disk required of every zero.
EPS_DISK = 1e-10
#: Largest ||c| - 1| accepted for the constant of a Blaschke product.
UNIMODULAR_TOL = 1e-12
#: Basis Gram residual the model-space window doubling aims for.
GRAM_TARGET = 1e-10
#: Column norm past which an orbit is declared numerically divergent.
COLUMN_OVERFLOW = 1e12
#: ns per orbit column beyond D^2 in ``frame_bounds``' route rule (one BLAS thread).
FACTOR_COLUMN_NS = 2500
#: ns per doubling step beyond D^3 in the same rule, timed alongside the above.
FACTOR_STEP_NS = 40000
#: Condition ceiling for generators on two-sided index sets.
TWO_SIDED_COND_MAX = 1e12
#: Relative kernel rank cut, and generator_closure's residual and frame-capture limits.
KERNEL_TOL = 1e-10
#: Smallest frame eigenvalue ratio ``unitarity_defect`` accepts as invertible.
SINGULAR_RTOL = 1e-14
#: Relative distance to the excluded perturbation value that is rejected.
EXCLUDED_TAU_RTOL = 1e-12
#: Absolute slack of the report flags that compare measured and certified bounds.
CONTAINMENT_SLACK = 1e-10
#: Modulus at or below which a commutant multiplier sample counts as vanishing.
MULTIPLIER_FLOOR = 1e-8
#: Fraction of the peak below which a periodized profile counts as zero.
SUPPORT_THRESHOLD_REL = 1e-6


def max_truncation() -> int:
    """Truncation ceiling, overridable via ``ORBITFRAMES_MAX_TRUNC``."""
    raw = os.environ.get("ORBITFRAMES_MAX_TRUNC", "")
    if not raw:
        return DEFAULT_MAX_TRUNC
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"ORBITFRAMES_MAX_TRUNC must be an integer, got {raw!r}"
        ) from exc
    if value < 1:
        raise ValueError(f"ORBITFRAMES_MAX_TRUNC must be positive, got {value}")
    return value


def check_size(name: str, value: int) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is in [0, ceiling]."""
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    cap = max_truncation()
    if value > cap:
        raise ValueError(f"{name} = {value} exceeds the ceiling {cap}")
