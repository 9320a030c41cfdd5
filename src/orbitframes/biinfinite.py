"""Two-sided orbit models on the unit circle, discretized on uniform grids.

A union of arcs is sampled on the M-th roots of unity w^k; multiplication
by the variable on the arcs becomes T = diag(w^(k_j)) over the in-mask
indices k_j, and the constant function the seed M^(-1/2) 1.  The pair
carries its frame operators in closed form and builds no columns.  Write
2 n_max + 1 = q M + r with 0 <= r < M: the window holds every residue mod M
q times and the r residues R = {-n_max, ..., r - 1 - n_max} once more, so
its sum is S_N = q I + (1/M) U_R U_R* with U_R[j, s] = w^(k_j s), s in R,
as distinct indices differ by a nonzero residue and the roots of unity sum
to zero.  The sum over one period p = M / gcd(M, k_1, ..., k_D) is (p/M) I
for the same reason; the pair hands over its ``period`` as p and that
diagonal, which no n_max changes, and its readers apply it when
p <= 2 n_max.  The full grid (p = M) gives exactly I, the discrete
Fourier orthogonality that anchors the zero-defect reference cases; proper
sub-arcs are overcomplete.

The frame bounds come from q and the r x r Gram (1/M) U_R* U_R, whose
eigenvalues, padded with D - r zeros, are those of S_N - q I.  On the full
grid the Gram is I_r, so the spectrum is the window's residue counts; with
r = 1 it is D / M, so the bounds are q and q + D / M (every window of whole
periods plus one index); otherwise, while r < D, one ``eigvalsh`` of the
Gram, and the lower bound is q.  No eigensolver runs for r <= 1, and no
D x D window sum is formed: the Dirichlet kernel (1/M) sum_n w^(n (k_i -
k_j)), the ifft of the residue counts, is built only where something reads
it (a window shorter than its period, whose unitarity defect takes the
Cholesky route, or a reseeding with r > 1).  A reseeded pair with r <= 1 is
a diagonal plus a rank-one term, q diag(|psi|^2) + (psi v)(psi v)*, and its
extremes are roots of the secular equation, found by bisection.  The pairs
keep their diagonal structure, so no grid computation runs an SVD or an
``eigh``: T's condition is max|t| / min|t|, and with T and one period's
sum both diagonal the unitarity defect is max ||t|^2 - 1|, also for every
``window`` of the pair and for a reseeded pair, whose period's sum is
diag(|psi|^2 p/M).  A spec built by hand from the same T and f0 has no
period: it reads its window's boundary, as every two-sided spec does.

Window sums over a symmetric truncation are averaged per period
(factor M / (2 n_max + 1)) so the reported defect decreases with depth
the way the underlying absolutely convergent sums do, rather than
growing with the number of periods the window covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import COLUMN_OVERFLOW, GRID_MASK_MAX, MULTIPLIER_FLOOR, SUPPORT_THRESHOLD_REL
from .config import check_size
from .errors import NumericalError

# synthesis_matrix is unused here, but the module keeps the binding that
# perfbench/test_tracer.py patches to check that tracing reaches every module.
from .orbits import OrbitSpec, diagonal_of, synthesis_matrix  # noqa: F401

TWO_PI = 2.0 * math.pi

__all__ = [
    "ArcSet",
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


def build_multiplication_pair(
    sigma: ArcSet, M: int, n_max: int | None = None
) -> OrbitSpec:
    """Two-sided orbit of multiplication by the variable on the arcs' grid points.

    The arc set is sampled on the M-th roots of unity; the in-mask count
    over M approximates the arc measure to within 2 * (number of arcs) / M
    (one endpoint cell per arc side).  T is the diagonal of in-mask roots
    and the seed is the constant function under quadrature normalization,
    sqrt(1/M) at every masked point.  Depth defaults to one full period
    (n_max = M).  The ``spectrum`` from the residue counts and the Gram
    (module docstring), the ``period`` (p, p/M 1), ``rank_one`` = (q, v)
    when r <= 1, and ``frame_operator`` only where it is read go in by
    ``OrbitSpec._replace``; otherwise a read of ``frame_operator`` sums
    the window as any two-sided spec does.  A mask
    past ``GRID_MASK_MAX`` points is rejected before any D x D array is
    allocated.
    """
    M = int(M)
    if M < 1:
        raise ValueError("grid size must be at least 1")
    check_size("grid size M", M)
    angles = TWO_PI * np.arange(M) / M
    k = np.nonzero(sigma.contains(angles))[0]
    if k.size == 0:
        raise ValueError(
            f"no grid point of size {M} falls inside the arc set; "
            f"refine the grid or widen the arcs"
        )
    if k.size > GRID_MASK_MAX:
        raise ValueError(f"grid size M = {M} masks {k.size} points, past the cap {GRID_MASK_MAX}")
    T = np.diag(np.exp(1j * angles[k]))
    f0 = np.full(k.size, math.sqrt(1.0 / M), dtype=np.complex128)
    pair = OrbitSpec(T=T, f0=f0, index_set="Z", n_max=M if n_max is None else n_max)
    D, N, p = k.size, pair.n_max, M // math.gcd(M, *k.tolist())
    q, r = divmod(2 * N + 1, M)
    known = {"period": (p, np.full(D, p / M))}
    if r > 1 or p > 2 * N:  # read by commutant_multiplier and by unitarity_defect
        # The kernel is the ifft of the window's residue counts, real as the window is symmetric.
        counts = np.full(M, q)
        counts[(np.arange(r) - N) % M] += 1
        kernel = np.fft.ifft(counts).real
        known["frame_operator"] = kernel[np.subtract.outer(k, k) % M]
    if r <= 1:  # S = q I + v v*, v = f0 u with u_j = w^(-N k_j)
        known["rank_one"] = (q, f0 * np.exp(1j * angles[(-N * k) % M]) if r else None)
    if D == M:  # the Gram is I_r: S's eigenvalues are the residue counts
        known["spectrum"] = np.repeat([float(q), q + 1.0], [M - r, r])
    elif r <= 1:  # the Gram is ||v||^2 = D / M
        known["spectrum"] = np.full(D, float(q))
        known["spectrum"][-1] = (q * M + r * D) / M
    elif r < D:  # the Gram's entry (s, t) is ifft(mask)[t - s], Toeplitz
        g = np.fft.ifft(np.bincount(k, minlength=M))
        s = np.arange(r)
        gram = np.maximum(np.linalg.eigvalsh(g[np.subtract.outer(s, s) % M]), 0.0)
        known["spectrum"] = q + np.concatenate([np.zeros(D - r), gram])
    return pair._replace(**known)


def parseval_defect(pair: OrbitSpec, M: int) -> float:
    """Distance of the per-period averaged frame operator from the identity.

    ``pair`` is the multiplication pair of an arc set on the M-th roots of
    unity.  For the full circle (every grid point masked) with the window
    covering at least one period the sum is taken over exactly one period,
    the ``period_sum`` the pair hands over, where it telescopes to the
    identity (discrete Fourier orthogonality) and the defect is 0.0 in the
    closed form.  Otherwise, and for a spec with no period, the symmetric
    window sum is scaled by c = M / (2 n_max + 1), the per-period average,
    and the defect is max(|c lambda_min - 1|, |c lambda_max - 1|) over the
    pair's ``spectrum``.
    """
    s = pair.period_sum if pair.dim == M and pair.n_max >= M - 1 else None
    eigs = (M / (2.0 * pair.n_max + 1.0)) * pair.spectrum[[0, -1]] if s is None else s
    return float(np.max(np.abs(eigs - 1.0)))


@dataclass(frozen=True)
class TranslatesProfile:
    """Periodized energy profile of a translate seed and its support.

    ``phi`` is the unit-periodization of sampled |fhat|^2 on the uniform
    grid of [0, 1), slot i at i / len(phi); ``support_mask`` marks where
    phi exceeds the reported threshold, ``measure`` that set's fraction, and
    ``ess_inf``/``ess_sup`` the frame bounds of the translate system on
    its span (extremes of phi over the support).
    """

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
    on = phi[mask]
    for arr in (phi, mask):
        arr.setflags(write=False)
    return TranslatesProfile(
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
    orbit a frame, so any sample that is not finite or has modulus at or
    below ``MULTIPLIER_FLOOR`` is rejected, with the offending grid point
    reported.  The accepted orbit's frame bounds sit inside
    [A min|psi|^2, B max|psi|^2] for the original bounds A, B.  T must be
    diagonal, so diag(psi) commutes with it and the reseeded frame operator
    is diag(psi) S diag(conj(psi)), and a ``period`` (p, s) carries over as
    (p, |psi|^2 s).  When the pair knows S = q I + v v*
    (``rank_one``), the reseeded ``spectrum`` holds only its least and
    largest eigenvalue, read from the secular equation
    (``_secular_extremes``), and the reseeded window sum is not formed;
    otherwise it is ``eigvalsh`` of the real diag(|psi|) S diag(|psi|).  As
    for ``synthesis_matrix``, a column psi f0 (a grid orbit's columns share
    its norm) past ``COLUMN_OVERFLOW`` is a ``NumericalError``.
    """
    t = diagonal_of(pair.T)
    if t is None:
        raise ValueError("commutant multiplier needs a pair with a diagonal generator T")
    psi = np.asarray(psi_samples, dtype=np.complex128).reshape(-1)
    if psi.shape[0] != pair.dim:
        raise ValueError(
            f"{psi.shape[0]} multiplier samples for {pair.dim} masked grid points"
        )
    bad = np.flatnonzero(~np.isfinite(psi))
    if bad.size:
        raise ValueError(
            f"multiplier sample at masked point {bad[0]} is {psi[bad[0]]}; "
            f"samples must be finite"
        )
    mods = np.abs(psi)
    worst = int(np.argmin(mods))
    if mods[worst] <= MULTIPLIER_FLOOR:
        angle = float(np.angle(t[worst])) % TWO_PI
        raise ValueError(
            f"multiplier vanishes at masked point {worst} (angle {angle:.6f} "
            f"rad): |psi| = {mods[worst]:.3e} <= floor {MULTIPLIER_FLOOR:.0e}"
        )
    f0 = psi * pair.f0
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(f0))
    if not norm <= COLUMN_OVERFLOW:
        raise NumericalError(f"reseeded orbit column norm {norm:.3e} passes {COLUMN_OVERFLOW:.0e}")
    square = psi.real**2 + psi.imag**2  # not mods**2, which doubles abs's rounding
    known = {"f0": f0}
    if pair.period is not None:
        known["period"] = (pair.period[0], square * pair.period[1])
    if pair.rank_one is not None:  # S' = q diag(|psi|^2) + (psi v)(psi v)*
        q, v = pair.rank_one
        d = q * square
        extremes = (d.min(), d.max()) if v is None else _secular_extremes(d, np.abs(psi * v) ** 2)
        return pair._replace(**known, spectrum=np.array(extremes, dtype=float))
    S = pair.frame_operator
    # diag(psi) = diag(|psi|) diag(psi / |psi|), whose unitary factor commutes
    # with diag(|psi|): the same spectrum from a real matrix when S is real.
    spectrum = np.linalg.eigvalsh(mods[:, None] * S * mods)
    return pair._replace(**known, frame_operator=psi[:, None] * S * psi.conj(), spectrum=spectrum)


def _secular_extremes(d: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Least and largest eigenvalue of diag(d) + z z* with |z|^2 = w > 0, d real.

    They are the outer roots of the secular equation 1 + sum_j w_j / (d_j - x)
    = 0, whose left side increases between its poles d_j (Golub, SIAM Rev. 15,
    1973): the largest root lies in [d_K + w_K, d_K + sum w], d_K = max d, and
    the least in (d_(1), d_(2)), or is d_(1) when the two least d are equal.
    Each root is bisected as x = o + tau about the pole o nearer to it, the
    denominators formed as (d_j - o) - tau (Bunch, Nielsen and Sorensen,
    Numer. Math. 31, 1978), so no difference of nearby numbers is rounded.
    """
    top = int(np.argmax(d))
    high = d[top] + _bisect(d - d[top], w, w[top], np.sum(w))
    if d.size == 1:
        return high, high
    low, second = np.partition(d, 1)[:2]
    half = 0.5 * (second - low)
    if half == 0.0:
        return low, high
    if 1.0 + np.sum(w / (d - low - half)) >= 0.0:  # the root is nearer d_(1)
        return low + _bisect(d - low, w, 0.0, half), high
    return second + _bisect(d - second, w, -half, 0.0), high


def _bisect(delta: np.ndarray, w: np.ndarray, lo: float, hi: float) -> float:
    """The tau in [lo, hi] where 1 + sum w / (delta - tau), increasing there, changes
    sign, bisected until no float lies strictly between the bracket's ends."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return float(hi)
        if 1.0 + np.sum(w / (delta - mid)) < 0.0:
            lo = mid
        else:
            hi = mid
