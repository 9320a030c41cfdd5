"""Orbit constructions with certified frame bounds.

Two builders around a common diagonal model: a normal generator
diag(lambda_j) with seed weights c_j, and a rank-one perturbation
diag + tau * e_l e_k^* that stays similar to the diagonal but is never
normal for tau != 0.  Certificates come from the separation capacity of
the zero set: measured frame bounds of the truncated orbit always land
inside [alpha/Delta, beta*Delta] up to the reported tail.  Similarity
images W diag W^{-1} are ``orbits.similarity_transport`` of the normal
pair; they widen the interval by the extreme squared singular values of W.

Both builders know their orbit's eigensystem, T = H diag(lambda) H^-1 with
f0 = H c, and hand it to the ``OrbitSpec`` (``eigensystem``), which reads
every window's frame operator and tail from it (``closed_form``): the
automatic depth reads max|lambda| and the growth (``_auto_depth``), and
``frame_bounds`` of a built pair or of its ``window`` runs no walk and
builds no columns unless the closed form's least eigenvalue is not resolved
above its floor.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .blaschke import carleson_delta, delta_capacity, validate_zeros
from .config import EXCLUDED_TAU_RTOL, max_truncation
from .errors import NumericalError
from .orbits import OrbitSpec

__all__ = [
    "NormalOrbitSpec",
    "PerturbedPair",
    "build_normal_pair",
    "certificate_bounds",
    "excluded_tau",
    "perturb_tau",
]


@dataclass(frozen=True)
class NormalOrbitSpec:
    """Zeros, seed weights, and the derived certificate constants.

    alpha and beta are the exact comparability constants of the finite
    data, inf and sup of |c_j|^2 / (1 - |lambda_j|^2); delta is the
    separation of the zeros and capacity its certificate factor.
    """

    zeros: np.ndarray
    coeffs: np.ndarray
    alpha: float = field(init=False)
    beta: float = field(init=False)
    delta: float = field(init=False)
    capacity: float = field(init=False)

    def __post_init__(self) -> None:
        zeros = np.array(validate_zeros(self.zeros))
        coeffs = np.array(self.coeffs, dtype=np.complex128).reshape(-1)
        if coeffs.shape[0] != zeros.shape[0]:
            raise ValueError(
                f"{coeffs.shape[0]} seed weights for {zeros.shape[0]} zeros"
            )
        if zeros.shape[0] == 0:
            raise ValueError("at least one zero is required")
        radii = np.abs(zeros)
        with np.errstate(over="ignore", invalid="ignore"):
            weights = np.abs(coeffs) ** 2 / ((1.0 - radii) * (1.0 + radii))
        alpha = float(np.min(weights))
        beta = float(np.max(weights))
        if not math.isfinite(beta):
            raise ValueError(
                "coeffs must give finite seed weights |c_j|^2 / (1 - |lambda_j|^2)"
            )
        if alpha <= 0.0:
            raise ValueError("every seed weight must be nonzero")
        delta = carleson_delta(zeros)
        capacity = delta_capacity(delta)
        zeros.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "capacity", capacity)

    @property
    def size(self) -> int:
        return self.zeros.shape[0]


def build_normal_pair(spec: NormalOrbitSpec, n_max: int | None = None) -> OrbitSpec:
    """One-sided orbit of (diag(zeros), coeffs), its window in closed form.

    When ``n_max`` is omitted it is ``_auto_depth(zeros, 1)``, read from
    max|lambda| alone; ``perturb_tau`` passes its growth as well.  The
    eigensystem is (zeros, coeffs, H = I, growth 1): the frame operator is
    diag(c) K_N diag(c)* (``OrbitSpec.closed_form``).
    """
    T = np.diag(spec.zeros)
    n_max = _auto_depth(spec.zeros, 1.0) if n_max is None else n_max
    orbit = OrbitSpec(T=T, f0=spec.coeffs, index_set="N", n_max=int(n_max))
    return orbit._replace(eigensystem=(spec.zeros, spec.coeffs, None, 1.0))


def _auto_depth(zeros: np.ndarray, growth: float) -> int:
    """The window 2^k - 1 at the first k up to the ceiling's top binary digit
    with growth * r^(2^(k+1)) <= eps, r = max|lambda| squared as a float k
    times, clamped to [64, ceiling]; the ceiling when no k passes.  With
    growth >= cond(H)^2, ||T^n||_2^2 <= growth * max|lambda|^(2n), so
    ||T^(N+1)||_2^2 <= eps below the ceiling, and no matrix product runs."""
    cap, eps = max_truncation(), np.finfo(float).eps
    r = float(np.max(np.abs(zeros)))
    for k in range((cap + 1).bit_length()):
        if growth * r * r <= eps:
            return min(cap, max(64, 2**k - 1))
        r *= r
    return cap


def certificate_bounds(spec: NormalOrbitSpec) -> tuple[float, float]:
    """Certified frame-bound interval (alpha/capacity, beta*capacity)."""
    return spec.alpha / spec.capacity, spec.beta * spec.capacity


def excluded_tau(spec: NormalOrbitSpec, k: int, l: int) -> complex:
    """The one perturbation strength that kills the seed's l-component.

    At tau = (lambda_k - lambda_l) c_l / c_k the seed becomes orthogonal
    to the dual eigenvector attached to lambda_l, the orbit loses that
    spectral direction, and no frame is possible.  k and l must be distinct
    integers in [0, J).
    """
    k, l = _pair_indices(spec, k, l)
    d = spec.zeros[k] - spec.zeros[l]
    return complex(d * spec.coeffs[l] / spec.coeffs[k])


def _pair_indices(spec: NormalOrbitSpec, k, l) -> tuple[int, int]:
    """``k`` and ``l`` as two distinct integers in [0, J), else a ``ValueError``."""
    try:
        k, l = operator.index(k), operator.index(l)
    except TypeError:
        raise ValueError(f"indices must be integers, got k = {k!r}, l = {l!r}") from None
    for name, index in (("k", k), ("l", l)):
        if not 0 <= index < spec.size:
            raise ValueError(f"indices must lie in [0, {spec.size}), got {name} = {index}")
    if k == l:
        raise ValueError(f"indices must be distinct, got k = l = {k}")
    return k, l


@dataclass(frozen=True)
class PerturbedPair:
    """Rank-one perturbed orbit with its materialized eigensystem.

    ``h_basis`` columns are eigenvectors of the perturbed generator,
    ``g_basis`` the biorthogonal duals; ``riesz_lower``/``riesz_upper``
    are the Gram eigenvalue bounds of the dual system from the explicit
    2x2 block, and the certificate transports the diagonal one through
    that system.  The two residuals record how well the materialized
    identities hold in floating point.
    """

    orbit: OrbitSpec
    k: int
    l: int
    tau: complex
    g_basis: np.ndarray
    h_basis: np.ndarray
    riesz_lower: float
    riesz_upper: float
    certificate_lower: float
    certificate_upper: float
    biorthogonality_residual: float
    diagonalization_residual: float


def perturb_tau(
    spec: NormalOrbitSpec,
    k: int,
    l: int,
    tau: complex,
    n_max: int | None = None,
) -> PerturbedPair:
    """Orbit of diag(zeros) + tau * e_l e_k^* with the diagonal's seed.

    The perturbed generator keeps the zeros as eigenvalues; its
    eigenvectors h_j and duals g_j differ from the standard basis only
    on the (k, l) plane, where with d = lambda_k - lambda_l:

        h_l = e_l                      g_l = e_l - conj(tau)/conj(d) e_k
        h_k = tau e_l + d e_k          g_k = e_k / conj(d)

    Rejects a non-finite tau, and tau at the excluded value (relative distance
    at most ``EXCLUDED_TAU_RTOL``), where the seed loses its l-th spectral
    component.  The orbit's eigensystem has H the h_basis, c the seed's
    components g_j* c along the duals and growth riesz_upper / riesz_lower.
    """
    k, l = _pair_indices(spec, k, l)
    d = complex(spec.zeros[k] - spec.zeros[l])  # nonzero: the spec's zeros are separated
    tau = complex(tau)
    if not np.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _perturbed_pair(spec, k, l, tau, d, n_max)
    except ArithmeticError as exc:
        raise NumericalError(
            f"tau = {tau} takes the perturbed pair out of the float range ({exc})"
        ) from None


def _perturbed_pair(
    spec: NormalOrbitSpec, k: int, l: int, tau: complex, d: complex, n_max: int | None
) -> PerturbedPair:
    """The closed forms of ``perturb_tau`` for validated indices."""
    bad = excluded_tau(spec, k, l)
    if abs(tau - bad) <= EXCLUDED_TAU_RTOL * abs(bad):
        raise ValueError(
            f"tau = {tau} is the excluded value (lambda_k - lambda_l) c_l / c_k; "
            f"the perturbed orbit drops a spectral direction"
        )

    J, kl = spec.size, np.ix_([k, l], [k, l])
    T = np.diag(spec.zeros).astype(np.complex128)
    T[l, k] += tau

    h_basis = np.eye(J, dtype=np.complex128)
    g_basis = np.eye(J, dtype=np.complex128)
    h_basis[kl] = [[d, 0.0], [tau, 1.0]]
    g_basis[kl] = [[1.0 / np.conj(d), -np.conj(tau) / np.conj(d)], [0.0, 1.0]]

    # G*H - I and T - H diag(lambda) G* vanish exactly outside rows and
    # columns k and l, so each spectral norm is its 2x2 block's.
    H, G = h_basis[kl], g_basis[kl]
    biorth = float(np.linalg.norm(G.conj().T @ H - np.eye(2), 2))
    diag_res = float(np.linalg.norm(T[kl] - H @ np.diag(spec.zeros[[k, l]]) @ G.conj().T, 2))

    # Gram of the dual system deviates from identity only on a 2x2 block
    # whose inverse spectrum has the closed form below.  Its eigenvalues
    # multiply to det, so the small one is det / block_hi; the textbook
    # (trace - disc) / 2 cancels as |tau| grows.
    trace = 1.0 + abs(tau) ** 2 + abs(d) ** 2
    det = abs(d) ** 2
    disc = math.sqrt(max(trace * trace - 4.0 * det, 0.0))
    block_hi = (trace + disc) / 2.0
    block_lo = det / block_hi
    riesz_lower = 1.0 / block_hi
    riesz_upper = block_hi / det

    # Seed components along the dual system; the perturbed pair is the
    # h-basis transport of the diagonal model with these weights.
    c_dual = g_basis.conj().T @ spec.coeffs
    for array in (h_basis, g_basis, c_dual):
        array.setflags(write=False)
    dual_spec = NormalOrbitSpec(zeros=spec.zeros, coeffs=c_dual)
    lo, hi = certificate_bounds(dual_spec)
    cert_lower = lo * block_lo
    cert_upper = hi * block_hi
    if not all(map(math.isfinite, (riesz_upper, cert_lower, cert_upper))):
        raise NumericalError(
            f"tau = {tau} gives a non-finite Riesz bound or certificate "
            f"(riesz_upper {riesz_upper:.3e}, certificate "
            f"[{cert_lower:.3e}, {cert_upper:.3e}])"
        )

    growth = riesz_upper / riesz_lower
    n_max = _auto_depth(spec.zeros, growth) if n_max is None else n_max
    orbit = OrbitSpec(T=T, f0=spec.coeffs, index_set="N", n_max=int(n_max))
    orbit = orbit._replace(eigensystem=(spec.zeros, c_dual, h_basis, growth))

    return PerturbedPair(
        orbit=orbit,
        k=k,
        l=l,
        tau=tau,
        g_basis=g_basis,
        h_basis=h_basis,
        riesz_lower=riesz_lower,
        riesz_upper=riesz_upper,
        certificate_lower=cert_lower,
        certificate_upper=cert_upper,
        biorthogonality_residual=biorth,
        diagonalization_residual=diag_res,
    )
