"""Finite products of disk automorphism factors and their separation data.

A finite product ``B(z) = c * prod_j (z - l_j) / (1 - conj(l_j) z)`` with
all ``|l_j| < 1`` and ``|c| = 1`` is inner: unimodular on the unit circle,
vanishing exactly at its zero list (with multiplicity).  The separation
constant of the zero list and the capacity function built from it drive
every frame-bound certificate in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import CoeffVec
from .config import EPS_DISK, POLE_TOL, UNIMODULAR_TOL
from .errors import NumericalError
from .orbits import orbit_columns

__all__ = [
    "validate_zeros",
    "BlaschkeProduct",
    "carleson_delta",
    "delta_capacity",
    "evaluate",
    "taylor_coeffs",
]


def validate_zeros(zeros) -> np.ndarray:
    """Return the zeros as a complex array, all strictly inside the disk.

    Points with ``|l| > 1 - EPS_DISK`` are rejected: the factor expansions
    scale like ``1 / (1 - |l|^2)`` and lose all accuracy at the boundary.
    NaN and infinite entries are rejected by position.
    """
    arr = np.atleast_1d(np.asarray(zeros, dtype=np.complex128)).reshape(-1)
    if arr.size == 0:
        return arr
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"zero {bad[0]} is {arr[bad[0]]}; zeros must be finite")
    radii = np.abs(arr)
    worst = int(np.argmax(radii))
    if radii[worst] > 1.0 - EPS_DISK:
        raise ValueError(
            f"zero {arr[worst]} has modulus {radii[worst]:.17g}; "
            f"all zeros must satisfy |l| <= {1.0 - EPS_DISK:.12g}"
        )
    return arr


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite inner function given by its zero list and a unimodular constant.

    The constant is carried through evaluation and coefficient expansion but
    two products that differ only in the constant describe the same model
    space; equality-sensitive consumers ignore it.
    """

    zeros: np.ndarray
    constant: complex = 1.0 + 0j

    def __post_init__(self) -> None:
        arr = validate_zeros(self.zeros)
        arr.setflags(write=False)
        object.__setattr__(self, "zeros", arr)
        c = complex(self.constant)
        # hypot gives inf where abs(c) raises OverflowError.
        modulus = math.hypot(c.real, c.imag)
        if not abs(modulus - 1.0) <= UNIMODULAR_TOL:
            raise ValueError(f"constant must be unimodular, got |c| = {modulus:.17g}")
        object.__setattr__(self, "constant", c)

    @property
    def degree(self) -> int:
        return len(self.zeros)


def carleson_delta(zeros) -> float:
    """Uniform separation constant of a finite zero list.

    Returns ``inf_j prod_{k != j} |(l_j - l_k) / (1 - conj(l_j) l_k)|``.
    A single zero gives 1 (empty product); a repeated zero gives exactly 0.
    """
    arr = validate_zeros(zeros)
    d = len(arr)
    if d <= 1:
        return 1.0
    diff = arr[:, None] - arr[None, :]
    num = np.abs(diff)
    off_diag = ~np.eye(d, dtype=bool)
    if np.any(num[off_diag] == 0.0):
        return 0.0
    den = np.abs(1.0 - np.conj(arr)[:, None] * arr[None, :])
    ratio = np.where(off_diag, num / den, 1.0)
    return float(np.min(np.prod(ratio, axis=1)))


def delta_capacity(delta: float) -> float:
    """Capacity ``(2 / delta^4) * (1 - 2 log delta)`` of a separation constant.

    Decreasing in delta on (0, 1]; the value at 1 is 2.  A nonpositive
    delta means the zeros are not uniformly separated and no finite
    certificate exists.  Raises ``NumericalError`` when delta is so small
    that the capacity overflows the float range.
    """
    delta = float(delta)
    if not delta > 0.0:
        raise ValueError(
            f"separation constant must be positive, got {delta}; "
            f"delta <= 0 admits no certificate"
        )
    if delta > 1.0:
        raise ValueError(f"separation constant cannot exceed 1, got {delta:.17g}")
    fourth = delta**4
    capacity = (2.0 / fourth) * (1.0 - 2.0 * math.log(delta)) if fourth else math.inf
    if not math.isfinite(capacity):
        raise NumericalError(
            f"capacity of separation constant {delta:.3e} overflows the float "
            f"range; the zeros are too weakly separated for a certificate"
        )
    return capacity


def evaluate(b: BlaschkeProduct, z):
    """Evaluate the product at a point or array of points.

    Raises ``NumericalError`` when a point is within ``POLE_TOL`` of a
    factor pole ``1 / conj(l_j)``.
    """
    z = np.asarray(z, dtype=np.complex128)
    out = np.full(z.shape, b.constant, dtype=np.complex128)
    for lam in b.zeros:
        den = 1.0 - np.conj(lam) * z
        bad = np.abs(den) < POLE_TOL
        if np.any(bad):
            where = z[bad].reshape(-1)[0] if z.shape else complex(z)
            raise NumericalError(
                f"evaluation point {where} is within {POLE_TOL:.1e} of the "
                f"pole of the factor with zero {lam}"
            )
        out = out * (z - lam) / den
    if out.shape == ():
        return complex(out)
    return out


def _weights(zeros: np.ndarray) -> np.ndarray:
    """``sqrt(1 - |l|^2)``, formed as ``sqrt((1 - |l|)(1 + |l|))``: the direct form
    loses up to 1.8e-9 relative at radius 1 - 1e-9, the factored one 1.6e-16."""
    r = np.abs(zeros)
    return np.sqrt((1.0 - r) * (1.0 + r))


def _compressed_shift(zeros: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ``A`` and ``phi`` in the Takenaka-Malmquist basis.

    With ``w = sqrt(1 - |l|^2)`` (``_weights``): ``A[j, j] = l_j``,
    ``A[k, j] = w_j w_k prod_{j<m<k} (-conj l_m)`` for k > j, and
    ``phi_k = w_k prod_{m<k} (-conj l_m)`` (Garcia, Mashreghi and Ross,
    *Introduction to Model Spaces and their Operators*, CUP 2016).
    """
    d = len(zeros)
    w = _weights(zeros)
    c = np.r_[1.0, -np.conj(zeros[: d - 1])]  # c[k] = -conj l_(k-1)
    # One column cumprod: X[k, j] = c[k] for k > j + 1 and 1 elsewhere, so
    # entry (k, j) multiplies c[j + 2..k] in order, as a loop over j would.
    X = np.where(np.tri(d, k=-2, dtype=bool), c[:, None], 1.0)
    A = np.tril(np.outer(w, w) * np.cumprod(X, axis=0), -1)
    np.fill_diagonal(A, zeros)
    phi = w * np.cumprod(c)
    return A, phi


def taylor_coeffs(b: BlaschkeProduct, n_trunc: int) -> CoeffVec:
    """First ``n_trunc + 1`` Taylor coefficients, window [0, n_trunc].

    ``h_0 = c prod_m (-l_m)`` and, as ``(h - h_0) / z`` has model-space
    coordinates ``c v`` with ``v_k = w_k prod_{m>k} (-l_m)``,
    ``h_n = c sum_k v_k conj((A^(n-1) phi)_k)`` for n >= 1: one O(d^2 n) orbit
    of the compressed shift, the ``orbit_columns`` window [0, n_trunc], so an
    ``n_trunc`` past the ceiling is the ``ValueError`` that routine raises.
    The discarded tail is bounded by a constant times
    ``max_j |l_j| ** n_trunc``.
    """
    n_trunc = int(n_trunc)
    if n_trunc < b.degree:
        raise ValueError(
            f"truncation {n_trunc} is below the product degree {b.degree}"
        )
    A, x = _compressed_shift(b.zeros)
    v = _weights(b.zeros) * np.cumprod(np.r_[1.0, -b.zeros[:0:-1]])[::-1]
    acc = np.empty(n_trunc + 1, dtype=np.complex128)
    acc[0] = np.prod(-b.zeros)
    acc[1:] = (v.conj() @ orbit_columns(A, x, n_trunc)).conj()[:-1]
    return CoeffVec(0, acc * b.constant)
