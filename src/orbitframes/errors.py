"""Exception types shared across the package.

Input problems (bad shapes, values outside documented domains, keys or
types the batch intake rejects) raise plain ``ValueError`` or a subclass
carrying the measured quantity that triggered the rejection.  Failures of the numerics themselves
(ill conditioning, truncation caps, singular operators) raise
``NumericalError`` so callers can tell the two apart.
"""

from __future__ import annotations

__all__ = ["NumericalError", "ShiftInvarianceError"]


class NumericalError(RuntimeError):
    """A computation could not be completed at the requested accuracy."""


class ShiftInvarianceError(ValueError):
    """Synthesis kernel is not shift invariant; no single generator exists.

    ``residual`` is the measured invariance defect of the kernel.
    """

    def __init__(self, residual: float, tol: float):
        self.residual = float(residual)
        self.tol = float(tol)
        super().__init__(
            f"kernel is not shift invariant: residual {residual:.6e} "
            f"exceeds tolerance {tol:.1e}; the columns are not the orbit "
            f"of a single bounded operator at this truncation"
        )
