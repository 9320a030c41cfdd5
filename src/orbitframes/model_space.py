"""Model spaces of finite inner functions and their compressed shift.

For a finite product h of degree d the space ``H_h = L2+ minus h L2+`` has
dimension d.  It carries the compression ``A_h`` of the coordinate shift.
In the orthonormal Takenaka-Malmquist basis (one factor of the product
peeled off per basis element) ``A_h`` and the projected constant ``phi``
have an exact closed form, which is what is built here.  The coordinates
and the projection need no series: the projection of ``z^k`` is
``A^k phi``, so coefficient k of basis element j is ``conj((A^k phi)_j)``
and each routine reads one orbit window of phi; no basis array is kept.
That orbit is the prototype frame the rest of the package analyzes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct, _compressed_shift
from .config import GRAM_TARGET, check_size, max_truncation
from .coeffs import CoeffVec
from .errors import NumericalError
from .orbits import orbit_columns

__all__ = [
    "ModelSpace",
    "build_model_space",
    "basis_coordinates",
    "project_model",
    "projected_monomial",
    "decay_profile",
]


def _window(ms: ModelSpace) -> int:
    """The window end ``trunc_n``, refused past the configured ceiling.

    Every routine that materializes coefficients on a window of about
    ``trunc_n`` asks here first.
    """
    cap = max_truncation()
    if ms.trunc_n > cap:
        raise NumericalError(
            f"coefficient window [0, {ms.trunc_n}] exceeds the ceiling {cap} "
            f"(ORBITFRAMES_MAX_TRUNC); zeros too close to the boundary for "
            f"this ceiling"
        )
    return ms.trunc_n


@dataclass(frozen=True)
class ModelSpace:
    """Finite-dimensional model space with its compressed shift.

    ``shift_matrix[k, j]`` is the pairing of the shifted j-th basis element
    against the k-th, so columns are images and the matrix acts on
    coordinate vectors.  ``phi`` holds the coordinates of the projected
    constant.  Both are exact closed forms.  ``trunc_n`` is the coefficient
    window [0, trunc_n] on which projections are materialized, row k of
    ``orbit_columns(shift_matrix, phi, trunc_n).conj()`` holding basis
    element k there; ``gram_residual`` is the exact Gram defect of the basis
    on that window, ``||I - G|| = ||A^(trunc_n + 1)||_2^2``.
    """

    h: BlaschkeProduct
    trunc_n: int
    shift_matrix: np.ndarray
    phi: np.ndarray
    gram_residual: float

    @property
    def dim(self) -> int:
        return self.h.degree


def build_model_space(h: BlaschkeProduct, n_trunc: int | None = None) -> ModelSpace:
    """Construct the model space of ``h`` from its closed form.

    Parameters
    ----------
    h : BlaschkeProduct
        Nonconstant finite product; degree-0 products are rejected (their
        model space is {0}).
    n_trunc : int, optional
        Starting coefficient window, at least ``max(8 * degree, 64)``
        (the default) and at most the configured ceiling.  The window is
        doubled until the basis Gram residual ``||A^(n + 1)||_2^2`` is
        within ``GRAM_TARGET``; each doubling squares a d x d power, so no
        window is allocated here and the result may pass the ceiling.
        Routines that then materialize that window raise
        ``NumericalError``.
    """
    if not isinstance(h, BlaschkeProduct):
        raise TypeError(f"expected a BlaschkeProduct, got {type(h).__name__}")
    d = h.degree
    if d < 1:
        raise ValueError("degree-0 products have a trivial model space")
    floor = max(8 * d, 64)
    if n_trunc is None:
        n_trunc = floor
    else:
        n_trunc = int(n_trunc)
        if n_trunc < floor:
            raise ValueError(
                f"truncation {n_trunc} is below the floor {floor} for degree {d}"
            )
    check_size("truncation n_trunc", n_trunc)

    shift, phi = _compressed_shift(h.zeros)
    for array in (shift, phi):
        array.setflags(write=False)
    n = n_trunc
    power = np.linalg.matrix_power(shift, n)
    while True:
        residual = float(np.linalg.norm(power @ shift, 2)) ** 2
        if residual <= GRAM_TARGET:
            break
        power = power @ power
        n *= 2
    return ModelSpace(
        h=h,
        trunc_n=n,
        shift_matrix=shift,
        phi=phi,
        gram_residual=residual,
    )


def basis_coordinates(ms: ModelSpace, f: CoeffVec) -> np.ndarray:
    """Coordinates ``<f, e_k>`` of a coefficient window in the basis.

    Coefficient n of ``e_k`` is ``conj((A^n phi)_k)``, so the pairing is
    exact on the whole support of ``f`` (negative indices pair with nothing).
    """
    return _coordinates(ms, f, 0)[0]


def _coordinates(ms: ModelSpace, f: CoeffVec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``basis_coordinates(ms, f)`` and the one orbit window of phi it reads,
    over [0, max(n, deg f)], for a caller that also needs [0, n]."""
    if not np.isfinite(f.coeffs).all():
        raise ValueError("f must be finite")
    lo = max(f.lo, 0)
    coeffs = f.coeffs[lo - f.lo :]  # empty when the window lies wholly below 0
    U = orbit_columns(ms.shift_matrix, ms.phi, max(n, f.hi))
    return U[:, lo : lo + coeffs.size] @ coeffs, U


def project_model(ms: ModelSpace, f: CoeffVec) -> CoeffVec:
    """Orthogonal projection of ``f`` onto the model space, on [0, trunc_n].

    ``P f = sum_k <f, e_k> e_k``: the synthesis of ``basis_coordinates``
    with the basis rows, both read from one orbit window of phi over
    [0, max(trunc_n, deg f)].  So negative indices pair with nothing, and
    an ``f`` with no coefficient at an index >= 0 projects to the zero
    window.  The series ``h * P_minus(conj(h) f)`` is the reference the
    tests hold this to.
    """
    n = _window(ms)
    c, U = _coordinates(ms, f, n)
    return CoeffVec(0, (c.conj() @ U[:, : n + 1]).conj())


def projected_monomial(ms: ModelSpace, m: int) -> np.ndarray:
    """Coordinates ``A^m phi`` of the projected monomial ``z^m`` in the basis.

    ``<z^m, e_k>`` is coefficient m of ``conj(e_k)``: column m of phi's orbit.
    """
    n = _window(ms)
    m = int(m)
    if m < 0 or m > n - ms.h.degree:
        raise ValueError(
            f"monomial index {m} outside [0, {n - ms.h.degree}] "
            f"for truncation {n}"
        )
    return orbit_columns(ms.shift_matrix, ms.phi, m)[:, m]


def decay_profile(ms: ModelSpace, n_max: int) -> np.ndarray:
    """Norms ``||A^n phi||`` for n = 0..n_max: the orbit of the projected constant.

    The columns are one ``orbit_columns`` window, doubled when
    d log2(n_max + 1) <= 1.8 (n_max + 1); on compressed shifts either route is
    within 4.3e-16 of the largest norm (see there).
    """
    return np.linalg.norm(orbit_columns(ms.shift_matrix, ms.phi, n_max), axis=0)
