"""Orbit constructions with certified frame bounds.

Two builders around a common diagonal model: a normal generator
diag(lambda_j) with seed weights c_j, and a rank-one perturbation
diag + tau * e_l e_k^* that stays similar to the diagonal but is never
normal for tau != 0.  Certificates come from the separation capacity of
the zero set: measured frame bounds of the truncated orbit always land
inside [alpha/Delta, beta*Delta] up to the reported tail.  Similarity
images W diag W^{-1} are ``orbits.similarity_transport`` of the normal
pair; they widen the interval by the extreme squared singular values of W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blaschke import carleson_delta, delta_capacity, validate_zeros
from .coeffs import re_im
from .config import EXCLUDED_TAU_RTOL
from .errors import NumericalError
from .orbits import OrbitSpec, converged_depth

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
        with np.errstate(over="ignore", invalid="ignore"):
            weights = np.abs(coeffs) ** 2 / (1.0 - np.abs(zeros) ** 2)
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

    def to_dict(self) -> dict:
        return {
            "zeros": re_im(self.zeros),
            "coeffs": re_im(self.coeffs),
            "alpha": self.alpha,
            "beta": self.beta,
            "delta": self.delta,
            "capacity": self.capacity,
        }


def build_normal_pair(spec: NormalOrbitSpec, n_max: int | None = None) -> OrbitSpec:
    """One-sided orbit of (diag(zeros), coeffs).

    When ``n_max`` is omitted it is the window at which the orbit's
    doubling walk converged (``converged_depth``); so is the depth of
    ``perturb_tau``.
    """
    T = np.diag(spec.zeros)
    n_max = converged_depth(T, spec.coeffs) if n_max is None else n_max
    return OrbitSpec(T=T, f0=spec.coeffs, index_set="N", n_max=int(n_max))


def certificate_bounds(spec: NormalOrbitSpec) -> tuple[float, float]:
    """Certified frame-bound interval (alpha/capacity, beta*capacity)."""
    return spec.alpha / spec.capacity, spec.beta * spec.capacity


def excluded_tau(spec: NormalOrbitSpec, k: int, l: int) -> complex:
    """The one perturbation strength that kills the seed's l-component.

    At tau = (lambda_k - lambda_l) c_l / c_k the seed becomes orthogonal
    to the dual eigenvector attached to lambda_l, the orbit loses that
    spectral direction, and no frame is possible.
    """
    d = spec.zeros[k] - spec.zeros[l]
    return complex(d * spec.coeffs[l] / spec.coeffs[k])


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
    spec: NormalOrbitSpec
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

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "l": self.l,
            "tau": [self.tau.real, self.tau.imag],
            "riesz_lower": self.riesz_lower,
            "riesz_upper": self.riesz_upper,
            "certificate_lower": self.certificate_lower,
            "certificate_upper": self.certificate_upper,
            "biorthogonality_residual": self.biorthogonality_residual,
            "diagonalization_residual": self.diagonalization_residual,
        }


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
    component.
    """
    J = spec.size
    if not 0 <= k < J or not 0 <= l < J:
        raise ValueError(f"indices must lie in [0, {J}), got k={k}, l={l}")
    if k == l:
        raise ValueError("perturbation needs two distinct indices")
    d = complex(spec.zeros[k] - spec.zeros[l])
    if d == 0:
        raise ValueError("the two selected zeros coincide; no eigenbasis splits them")
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

    J = spec.size
    T = np.diag(spec.zeros).astype(np.complex128)
    T[l, k] += tau

    h_basis = np.eye(J, dtype=np.complex128)
    g_basis = np.eye(J, dtype=np.complex128)
    h_basis[l, k] = tau
    h_basis[k, k] = d
    g_basis[k, l] = -np.conj(tau) / np.conj(d)
    g_basis[k, k] = 1.0 / np.conj(d)

    biorth = float(
        np.linalg.norm(g_basis.conj().T @ h_basis - np.eye(J), 2)
    )
    diag_res = float(
        np.linalg.norm(
            T - h_basis @ np.diag(spec.zeros) @ g_basis.conj().T, 2
        )
    )

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

    n_max = converged_depth(T, spec.coeffs) if n_max is None else n_max
    orbit = OrbitSpec(T=T, f0=spec.coeffs, index_set="N", n_max=int(n_max))

    return PerturbedPair(
        orbit=orbit,
        spec=spec,
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
