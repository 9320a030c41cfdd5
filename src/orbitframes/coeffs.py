"""Dense windows of doubly infinite coefficient sequences.

A square-summable sequence is stored as one contiguous complex block
together with the absolute index of its first entry.  Everything outside
the window is zero.  The splitting operations project onto the analytic
half (indices >= 0) and the co-analytic half (indices <= -1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import EQUAL_TOL

__all__ = [
    "CoeffVec",
    "monomial",
    "inner_product",
    "norm",
    "add",
    "scale",
    "multiply",
    "conj_reflect",
    "project_plus",
    "project_minus",
    "restrict",
    "trim",
    "coeffs_equal",
    "re_im",
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

    def coeff(self, n: int) -> complex:
        """Coefficient at absolute index ``n`` (zero outside the window)."""
        if self.lo <= n <= self.hi:
            return complex(self.coeffs[n - self.lo])
        return 0j

    def __len__(self) -> int:
        return len(self.coeffs)


def monomial(n: int, c: complex = 1.0) -> CoeffVec:
    """The sequence ``c`` at index ``n`` and zero elsewhere."""
    return CoeffVec(n, [c])


def inner_product(a: CoeffVec, b: CoeffVec) -> complex:
    """Sesquilinear pairing sum_n a_n * conj(b_n) over the overlap."""
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    if hi < lo:
        return 0j
    sa = a.coeffs[lo - a.lo : hi - a.lo + 1]
    sb = b.coeffs[lo - b.lo : hi - b.lo + 1]
    return complex(np.sum(sa * np.conj(sb)))


def norm(a: CoeffVec) -> float:
    """Square-sum norm of the window."""
    if len(a.coeffs) == 0:
        return 0.0
    return float(np.linalg.norm(a.coeffs))


def add(a: CoeffVec, b: CoeffVec) -> CoeffVec:
    """Sum on the union window."""
    if len(a.coeffs) == 0:
        return b
    if len(b.coeffs) == 0:
        return a
    lo = min(a.lo, b.lo)
    hi = max(a.hi, b.hi)
    out = np.zeros(hi - lo + 1, dtype=np.complex128)
    out[a.lo - lo : a.hi - lo + 1] += a.coeffs
    out[b.lo - lo : b.hi - lo + 1] += b.coeffs
    return CoeffVec(lo, out)


def scale(a: CoeffVec, c: complex) -> CoeffVec:
    """Scalar multiple."""
    return CoeffVec(a.lo, a.coeffs * c)


def multiply(a: CoeffVec, b: CoeffVec) -> CoeffVec:
    """Convolution product; output window [a.lo + b.lo, a.hi + b.hi]."""
    if len(a.coeffs) == 0 or len(b.coeffs) == 0:
        return CoeffVec(0, [])
    return CoeffVec(a.lo + b.lo, np.convolve(a.coeffs, b.coeffs))


def conj_reflect(a: CoeffVec) -> CoeffVec:
    """Map c_n to conj(c_{-n}).

    On the unit circle this is pointwise complex conjugation of the
    represented function.
    """
    if len(a.coeffs) == 0:
        return a
    return CoeffVec(-a.hi, np.conj(a.coeffs[::-1]))


def project_plus(a: CoeffVec) -> CoeffVec:
    """Keep indices n >= 0."""
    return restrict(a, 0, None)


def project_minus(a: CoeffVec) -> CoeffVec:
    """Keep indices n <= -1."""
    return restrict(a, None, -1)


def restrict(a: CoeffVec, lo: int | None, hi: int | None) -> CoeffVec:
    """Window restriction to [lo, hi] (None leaves a side open)."""
    new_lo = a.lo if lo is None else max(a.lo, lo)
    new_hi = a.hi if hi is None else min(a.hi, hi)
    if new_hi < new_lo:
        return CoeffVec(0, [])
    return CoeffVec(new_lo, a.coeffs[new_lo - a.lo : new_hi - a.lo + 1])


def trim(a: CoeffVec) -> CoeffVec:
    """Drop exactly-zero coefficients at both window ends."""
    nz = np.nonzero(a.coeffs)[0]
    if len(nz) == 0:
        return CoeffVec(0, [])
    return CoeffVec(a.lo + int(nz[0]), a.coeffs[nz[0] : nz[-1] + 1])


def coeffs_equal(a: CoeffVec, b: CoeffVec, tol: float = EQUAL_TOL) -> bool:
    """Index-wise comparison with absolute tolerance over the union window."""
    lo = min(a.lo, b.lo)
    hi = max(a.hi, b.hi)
    if hi < lo:
        return True
    diff = add(a, scale(b, -1.0))
    if len(diff.coeffs) == 0:
        return True
    return float(np.max(np.abs(diff.coeffs))) <= tol


def re_im(a) -> list:
    """Complex array ``a`` as nested lists of [re, im] floats, signed zeros kept."""
    return np.stack([a.real, a.imag], -1).tolist()
