"""Dense windows of doubly infinite coefficient sequences.

A square-summable sequence is stored as one contiguous complex block
together with the absolute index of its first entry.  Everything outside
the window is zero.  Besides the window type this module keeps the
convolution product and pairing of two windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoeffVec",
    "multiply",
    "inner_product",
]


@dataclass(frozen=True)
class CoeffVec:
    """Finite window of a coefficient sequence.

    ``coeffs[k]`` is the coefficient at absolute index ``lo + k``.  The
    window is explicit: operations that grow the support return a result
    whose window covers everything they produced, with no silent clipping.
    """

    lo: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=np.complex128).reshape(-1)
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "lo", int(self.lo))

    @property
    def hi(self) -> int:
        """Absolute index of the last stored coefficient (lo - 1 if empty)."""
        return self.lo + len(self.coeffs) - 1


def multiply(a: CoeffVec, b: CoeffVec) -> CoeffVec:
    """Convolution product; output window [a.lo + b.lo, a.hi + b.hi]."""
    if len(a.coeffs) == 0 or len(b.coeffs) == 0:
        return CoeffVec(0, [])
    return CoeffVec(a.lo + b.lo, np.convolve(a.coeffs, b.coeffs))


def inner_product(a: CoeffVec, b: CoeffVec) -> complex:
    """Sesquilinear pairing sum_n a_n * conj(b_n) over the overlap."""
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    if hi < lo:
        return 0j
    sa = a.coeffs[lo - a.lo : hi - a.lo + 1]
    sb = b.coeffs[lo - b.lo : hi - b.lo + 1]
    return complex(np.sum(sa * np.conj(sb)))
