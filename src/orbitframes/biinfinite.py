"""Two-sided orbit models on the unit circle, discretized on uniform grids.

A union of arcs is sampled on the M-th roots of unity; multiplication by
the independent variable restricted to the arcs becomes a unitary
diagonal matrix on the in-mask points, and the constant function becomes
the quadrature-normalized seed.  The full grid reproduces the discrete
Fourier system exactly (one-period sums of the rank-one orbit terms
telescope to the identity), which anchors the zero-defect reference
cases; proper sub-arcs exhibit the overcomplete behavior instead.

Window sums over a symmetric truncation are averaged per period
(factor M / (2 n_max + 1)) so the reported defect decreases with depth
the way the underlying absolutely convergent sums do, rather than
growing with the number of periods the window covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MULTIPLIER_FLOOR, SUPPORT_THRESHOLD_REL, check_size

# synthesis_matrix is unused here, but the module keeps the binding that
# perfbench/test_tracer.py patches to check that tracing reaches every module.
from .orbits import OrbitSpec, synthesis_matrix  # noqa: F401

TWO_PI = 2.0 * math.pi

__all__ = [
    "ArcSet",
    "full_circle",
    "build_multiplication_pair",
    "parseval_defect",
    "TranslatesProfile",
    "translates_phi",
    "commutant_multiplier",
]


@dataclass(frozen=True)
class ArcSet:
    """Disjoint half-open angle arcs [start, end) canonicalized on [0, 2*pi).

    Input arcs may overlap, touch, or wrap past 2*pi (end below start);
    canonicalization splits wrapping arcs, sorts, and merges.  The union
    must have positive measure.
    """

    arcs: tuple

    def __post_init__(self) -> None:
        pieces = []
        for raw in self.arcs:
            start, end = float(raw[0]), float(raw[1])
            if not (math.isfinite(start) and math.isfinite(end)):
                raise ValueError("arc endpoints must be finite")
            if end - start >= TWO_PI:
                pieces = [(0.0, TWO_PI)]
                break
            start = start % TWO_PI
            end = end % TWO_PI
            if end == start:
                continue
            if end < start:
                pieces.append((start, TWO_PI))
                if end > 0.0:
                    pieces.append((0.0, end))
            else:
                pieces.append((start, end))
        if not pieces:
            raise ValueError("arc set has zero measure")
        pieces.sort()
        merged = [pieces[0]]
        for start, end in pieces[1:]:
            last_start, last_end = merged[-1]
            if start <= last_end:
                merged[-1] = (last_start, max(last_end, end))
            else:
                merged.append((start, end))
        object.__setattr__(self, "arcs", tuple(merged))

    @property
    def measure(self) -> float:
        """Normalized arc length, in (0, 1]."""
        return sum(end - start for start, end in self.arcs) / TWO_PI

    def contains(self, angles) -> np.ndarray:
        """Boolean membership of angles (wrapped into [0, 2*pi))."""
        theta = np.asarray(angles, dtype=float) % TWO_PI
        inside = np.zeros(theta.shape, dtype=bool)
        for start, end in self.arcs:
            inside |= (theta >= start) & (theta < end)
        return inside

    def to_json(self) -> list:
        return [[start, end] for start, end in self.arcs]


def full_circle() -> ArcSet:
    return ArcSet(((0.0, TWO_PI),))


def build_multiplication_pair(
    sigma: ArcSet, M: int, n_max: int | None = None
) -> OrbitSpec:
    """Two-sided orbit of multiplication by the variable on the arcs' grid points.

    The arc set is sampled on the M-th roots of unity; the in-mask count
    over M approximates the arc measure to within 2 * (number of arcs) / M
    (one endpoint cell per arc side).  T is the diagonal of in-mask roots
    and the seed is the constant function under quadrature normalization,
    sqrt(1/M) at every masked point.  Depth defaults to one full period
    (n_max = M).
    """
    M = int(M)
    if M < 1:
        raise ValueError("grid size must be at least 1")
    check_size("grid size M", M)
    angles = TWO_PI * np.arange(M) / M
    theta = angles[sigma.contains(angles)]
    if theta.size == 0:
        raise ValueError(
            f"no grid point of size {M} falls inside the arc set; "
            f"refine the grid or widen the arcs"
        )
    T = np.diag(np.exp(1j * theta))
    f0 = np.full(theta.size, math.sqrt(1.0 / M), dtype=np.complex128)
    if n_max is None:
        n_max = M
    return OrbitSpec(T=T, f0=f0, index_set="Z", n_max=int(n_max))


def parseval_defect(pair: OrbitSpec, M: int) -> float:
    """Distance of the per-period averaged frame operator from the identity.

    ``pair`` is the multiplication pair of an arc set on the M-th roots of
    unity.  For the full circle (every grid point masked) with the window
    covering at least one period the sum is taken over exactly one period,
    the pair's own columns T^0 f0 .. T^(M-1) f0, where it telescopes to the
    identity (discrete Fourier orthogonality) and the defect is float
    noise.  Otherwise the symmetric window sum is scaled by
    M / (2 n_max + 1), the per-period average.
    """
    if pair.dim == M and pair.n_max >= M - 1:
        period = pair.columns[:, pair.n_max : pair.n_max + M]
        S = period @ period.conj().T
    else:
        S = (M / (2.0 * pair.n_max + 1.0)) * pair.frame_operator
    return float(np.linalg.norm(S - np.eye(pair.dim), 2))


@dataclass(frozen=True)
class TranslatesProfile:
    """Periodized energy profile of a translate seed and its support.

    ``phi`` is the unit-periodization of sampled |fhat|^2 on the grid
    ``omegas`` of [0, 1); ``support_mask`` marks where phi exceeds the
    reported threshold, ``measure`` that set's fraction, and
    ``ess_inf``/``ess_sup`` the frame bounds of the translate system on
    its span (extremes of phi over the support).
    """

    omegas: np.ndarray
    phi: np.ndarray
    support_mask: np.ndarray
    measure: float
    ess_inf: float
    ess_sup: float
    threshold: float


def translates_phi(fhat_samples, period_count: int) -> TranslatesProfile:
    """Fold |fhat|^2 samples over integer shifts into one unit period.

    ``fhat_samples`` are values of |fhat|^2 on the uniform grid of
    [-period_count, period_count) whose length must be divisible by
    2 * period_count; the sample at -period_count + (b + i/m) lands in
    slot i.  Support is thresholded at ``SUPPORT_THRESHOLD_REL`` * peak.
    """
    period_count = int(period_count)
    if period_count < 1:
        raise ValueError("period_count must be at least 1")
    samples = np.asarray(fhat_samples, dtype=float).reshape(-1)
    if np.any(samples < 0.0):
        raise ValueError("squared-modulus samples must be nonnegative")
    blocks = 2 * period_count
    if samples.size == 0 or samples.size % blocks != 0:
        raise ValueError(
            f"sample count {samples.size} does not tile {blocks} unit intervals"
        )
    m = samples.size // blocks
    with np.errstate(over="ignore"):
        phi = samples.reshape(blocks, m).sum(axis=0)
    if not np.all(np.isfinite(phi)):
        raise ValueError("samples must be finite and fold to a finite profile")
    peak = float(np.max(phi))
    if peak <= 0.0:
        raise ValueError("periodized profile is identically zero")
    threshold = SUPPORT_THRESHOLD_REL * peak
    mask = phi > threshold
    omegas = np.arange(m) / m
    on = phi[mask]
    for arr in (omegas, phi, mask):
        arr.setflags(write=False)
    return TranslatesProfile(
        omegas=omegas,
        phi=phi,
        support_mask=mask,
        measure=float(np.count_nonzero(mask)) / m,
        ess_inf=float(np.min(on)),
        ess_sup=float(np.max(on)),
        threshold=threshold,
    )


def commutant_multiplier(pair: OrbitSpec, psi_samples) -> OrbitSpec:
    """Reseed the grid pair with psi times the constant function.

    ``psi_samples`` gives the multiplier on the masked grid points of
    ``pair`` (in mask order).  Bounded invertibility is what keeps the
    orbit a frame, so any sample with modulus at or below
    ``MULTIPLIER_FLOOR`` is rejected, with the offending grid point
    reported.  The accepted orbit's frame bounds sit inside
    [A min|psi|^2, B max|psi|^2] for the original bounds A, B.
    """
    psi = np.asarray(psi_samples, dtype=np.complex128).reshape(-1)
    if psi.shape[0] != pair.dim:
        raise ValueError(
            f"{psi.shape[0]} multiplier samples for {pair.dim} masked grid points"
        )
    mods = np.abs(psi)
    worst = int(np.argmin(mods))
    if mods[worst] <= MULTIPLIER_FLOOR:
        angle = float(np.angle(pair.T[worst, worst])) % TWO_PI
        raise ValueError(
            f"multiplier vanishes at masked point {worst} (angle {angle:.6f} "
            f"rad): |psi| = {mods[worst]:.3e} <= floor {MULTIPLIER_FLOOR:.0e}"
        )
    return OrbitSpec(T=pair.T, f0=psi * pair.f0, index_set="Z", n_max=pair.n_max)
