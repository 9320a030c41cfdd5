"""Self-contained acceptance battery.

Eleven numbered checks, each pinning one end-to-end behavior of the
package at an explicit tolerance: Parseval identities of model-space
orbits, exactness of the nilpotent reference case, agreement of the
orbit projection with the series h P_-(conj(h) f) and of h's Taylor
series with the circle values of h, the eigenvalue/zero identity,
capacity-certificate containment, the rank-one perturbation's
materialized eigensystem, generator recovery from raw orbit columns,
the decay vs lower-bound dichotomy, grid Parseval/unitarity defects,
translate periodization, the similarity sandwich of frame bounds, and the
commutant multiplier's rejections.  Each check reads the public API only.

The battery never throws: a check that raises is reported as failed
with the exception text.  Each check has an optional time budget; one
that runs over it fails.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct, taylor_coeffs
from .biinfinite import (
    ArcSet,
    build_multiplication_pair,
    commutant_multiplier,
    parseval_defect,
    translates_phi,
)
from .coeffs import CoeffVec
from .constructions import (
    NormalOrbitSpec,
    build_normal_pair,
    excluded_tau,
    perturb_tau,
)
from .errors import ShiftInvarianceError
from .model_space import (
    build_model_space,
    decay_profile,
    project_model,
)
from .orbits import (
    OrbitSpec,
    frame_bounds,
    generator_closure,
    kernel_shift_invariance,
    orbit_columns,
    unitarity_defect,
)

__all__ = ["CriterionResult", "run_battery", "format_line"]


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: str
    elapsed: float


def _random_zeros(rng, degree: int, r_max: float = 0.7) -> np.ndarray:
    radii = rng.uniform(0.05, r_max, size=degree)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=degree)
    return radii * np.exp(1j * angles)


def _check_single_factor_parseval(rng) -> tuple[bool, str]:
    ms = build_model_space(BlaschkeProduct(zeros=[0.6]), n_trunc=512)
    vectors = orbit_columns(ms.shift_matrix, ms.phi, 80).T
    worst = 0.0
    for _ in range(20):
        g = rng.standard_normal(ms.dim) + 1j * rng.standard_normal(ms.dim)
        total = sum(abs(np.vdot(v, g)) ** 2 for v in vectors)
        norm2 = float(np.linalg.norm(g)) ** 2
        worst = max(worst, abs(total - norm2) / max(1.0, norm2))
    return worst <= 1e-9, f"max squared-sum deviation {worst:.3e} (tol 1e-9)"


def _check_nilpotent_exactness(rng) -> tuple[bool, str]:
    ms = build_model_space(BlaschkeProduct(zeros=[0.0, 0.0]))
    vectors = orbit_columns(ms.shift_matrix, ms.phi, 5).T
    expected = [
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
    ] + [np.zeros(2)] * 4
    orbit_exact = all(
        np.array_equal(v, e.astype(np.complex128))
        for v, e in zip(vectors, expected)
    )
    rep = frame_bounds(
        OrbitSpec(T=ms.shift_matrix, f0=ms.phi, index_set="N", n_max=5)
    )
    bounds_exact = rep.lower_bound == 1.0 and rep.upper_bound == 1.0
    # h annihilates A: prod_j (A - l_j I) = 0, exactly for the nilpotent A.
    product = np.eye(ms.dim, dtype=np.complex128)
    for lam in ms.h.zeros:
        product = (ms.shift_matrix - lam * np.eye(ms.dim)) @ product
    min_poly = float(np.linalg.norm(product, 2))
    ok = orbit_exact and bounds_exact and min_poly == 0.0
    return ok, (
        f"orbit exact: {orbit_exact}, bounds ({rep.lower_bound}, "
        f"{rep.upper_bound}), minimal-polynomial residual {min_poly}"
    )


def _check_projection_equivalence(rng) -> tuple[bool, str]:
    # project_model reads the orbit of phi; its reference h P_-(conj(h) f) and
    # h's series read the circle values of h, which use neither A nor phi.
    points = 1024
    circle = np.exp(2j * math.pi * np.arange(points) / points)
    minus = np.arange(points) >= points // 2  # FFT bins of the indices -512..-1
    worst = series = 0.0
    for _ in range(50):
        degree = int(rng.integers(1, 5))
        h = BlaschkeProduct(zeros=_random_zeros(rng, degree))
        ms = build_model_space(h, n_trunc=128)
        f_deg = int(rng.integers(0, 33))
        f = rng.standard_normal(f_deg + 1) + 1j * rng.standard_normal(f_deg + 1)
        direct = project_model(ms, CoeffVec(0, f)).coeffs
        h_vals = np.ones(points, dtype=np.complex128)
        for lam in h.zeros:  # h = prod_j (z - l_j) / (1 - conj(l_j) z)
            h_vals = h_vals * (circle - lam) / (1.0 - np.conj(lam) * circle)
        inner = np.fft.ifft(np.fft.fft(h_vals.conj() * np.polyval(f[::-1], circle)) * minus)
        reference = np.fft.fft(h_vals * inner)[: len(direct)] / points
        worst = max(worst, float(np.max(np.abs(direct - reference))))
        h_t = taylor_coeffs(h, ms.trunc_n).coeffs
        fourier = np.fft.fft(h_vals)[: len(h_t)] / points
        series = max(series, float(np.max(np.abs(h_t - fourier))))
    details = (
        f"projection vs h P_-(conj(h) f) on the circle {worst:.3e}, "
        f"series vs circle FFT {series:.3e}"
    )
    return max(worst, series) <= 1e-10, details + " (tol 1e-10)"


def _match_multisets(a: np.ndarray, b: np.ndarray) -> float:
    """Greedy nearest-neighbor matching distance between equal-size sets."""
    remaining = list(b)
    worst = 0.0
    for x in a:
        gaps = [abs(x - y) for y in remaining]
        j = int(np.argmin(gaps))
        worst = max(worst, gaps[j])
        remaining.pop(j)
    return worst


def _check_eigenvalue_zero_identity(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(20):
        degree = int(rng.integers(1, 7))
        zeros = _random_zeros(rng, degree)
        ms = build_model_space(BlaschkeProduct(zeros=zeros))
        eigs = np.linalg.eigvals(ms.shift_matrix)
        worst = max(worst, _match_multisets(eigs, zeros))
    return worst <= 1e-8, f"max eigenvalue/zero mismatch {worst:.3e} (tol 1e-8)"


def _check_certificate_containment(rng) -> tuple[bool, str]:
    zeros = np.array([1.0 - 2.0 ** (-j - 1) for j in range(5)])
    coeffs = np.sqrt(1.0 - zeros**2)
    # Brute-force separation: independent scalar loops, no library call.
    delta_brute = math.inf
    for j in range(5):
        prod = 1.0
        for k in range(5):
            if k != j:
                prod *= abs(zeros[j] - zeros[k]) / abs(1.0 - zeros[j] * zeros[k])
        delta_brute = min(delta_brute, prod)
    capacity_brute = (2.0 / delta_brute**4) * (1.0 - 2.0 * math.log(delta_brute))
    spec = NormalOrbitSpec(zeros=zeros, coeffs=coeffs)
    delta_gap = abs(spec.delta - delta_brute)
    rep = frame_bounds(build_normal_pair(spec, n_max=400))
    lo = spec.alpha / capacity_brute
    hi = spec.beta * capacity_brute
    inside = (
        rep.lower_bound >= lo * (1.0 - 1e-6)
        and rep.upper_bound <= hi * (1.0 + 1e-6)
    )
    ok = inside and delta_gap <= 1e-14
    return ok, (
        f"measured [{rep.lower_bound:.6e}, {rep.upper_bound:.6e}] vs "
        f"certificate [{lo:.6e}, {hi:.6e}], delta gap {delta_gap:.1e}"
    )


def _check_perturbation_nonnormality(rng) -> tuple[bool, str]:
    spec = NormalOrbitSpec(
        zeros=np.array([0.5, 0.75, 0.875]),
        coeffs=np.sqrt(1.0 - np.array([0.5, 0.75, 0.875]) ** 2),
    )
    k, l, tau = 0, 1, 0.1
    pair = perturb_tau(spec, k, l, tau)
    T = pair.orbit.T
    comm = T @ T.conj().T - T.conj().T @ T
    gap = abs(abs(comm[k, k]) - abs(tau) ** 2)
    rep = frame_bounds(pair.orbit)
    rejected = False
    try:
        perturb_tau(spec, k, l, excluded_tau(spec, k, l))
    except ValueError:
        rejected = True
    ok = (
        gap <= 1e-12
        and pair.biorthogonality_residual <= 1e-12
        and rep.lower_bound > 0.0
        and rejected
    )
    return ok, (
        f"commutator diagonal gap {gap:.3e}, biorthogonality residual "
        f"{pair.biorthogonality_residual:.3e}, measured bounds "
        f"[{rep.lower_bound:.4e}, {rep.upper_bound:.4e}], excluded tau "
        f"rejected: {rejected}"
    )


def _check_generator_reconstruction(rng) -> tuple[bool, str]:
    ms = build_model_space(BlaschkeProduct(zeros=_random_zeros(rng, 2)))
    U = orbit_columns(ms.shift_matrix, ms.phi, 120)
    recovered, residual = generator_closure(U)
    recovery_gap = float(np.linalg.norm(recovered - ms.shift_matrix, 2))
    # Reference frame with a non-invariant kernel: e0 repeated, then the rest
    # of the basis; its one unit kernel direction (e0 - e1) / sqrt(2) maps to
    # (e0 - e1) / sqrt(2) under U R, so the residual is exactly 1.
    D = 10
    bad = np.zeros((D, D + 1), dtype=np.complex128)
    bad[0, 0] = 1.0
    bad[:, 1:] = np.eye(D)
    bad_residual = kernel_shift_invariance(bad)
    try:
        generator_closure(bad)
        bad_rejected = False
    except ShiftInvarianceError:
        bad_rejected = True
    ok = (
        residual < 1e-10
        and recovery_gap <= 1e-8
        and abs(bad_residual - 1.0) <= 1e-10
        and bad_rejected
    )
    return ok, (
        f"kernel residual {residual:.3e}, recovery gap {recovery_gap:.3e}, "
        f"reference residual {bad_residual:.12f} vs 1, rejected: "
        f"{bad_rejected}"
    )


def _check_decay_dichotomy(rng) -> tuple[bool, str]:
    zeros = np.array([0.8, 0.5 * np.exp(2.0j), 0.3 * np.exp(-1.0j)])
    ms = build_model_space(BlaschkeProduct(zeros=zeros))
    rho = float(np.max(np.abs(zeros)))
    n_star = math.ceil(math.log(1e-6) / math.log(rho)) + 10
    profile = decay_profile(ms, n_star + 20)
    worst_tail = max(profile[n_star:])
    pair = build_multiplication_pair(ArcSet(((0.0, math.pi),)), 64)
    rep = frame_bounds(pair)
    floor = math.sqrt(rep.lower_bound / rep.upper_bound)
    worst_ratio = math.inf
    for _ in range(20):
        f = rng.standard_normal(pair.dim) + 1j * rng.standard_normal(pair.dim)
        for M in (pair.T, pair.T.conj().T):  # ||T^n f|| and ||(T*)^n f||, n < 8
            norms = np.linalg.norm(orbit_columns(M, f, 7), axis=0)
            worst_ratio = min(worst_ratio, float(np.min(norms)) / float(np.linalg.norm(f)))
    ok = worst_tail < 1e-6 and worst_ratio >= 1.0 - 1e-10 and worst_ratio >= floor - 1e-10
    return ok, (
        f"one-sided tail max {worst_tail:.3e} past n = {n_star}, two-sided "
        f"min ratio {worst_ratio:.12f} >= sqrt(A/B) = {floor:.6f}"
    )


def _check_biinfinite_parseval(rng) -> tuple[bool, str]:
    circle = ArcSet(((0.0, 2.0 * math.pi),))
    exact = parseval_defect(build_multiplication_pair(circle, 64, n_max=63), 64)
    half = ArcSet(((0.0, math.pi),))
    pairs = [build_multiplication_pair(half, 256, n_max=n) for n in (256, 512, 1024)]
    trend = [parseval_defect(pair, 256) for pair in pairs]
    decreasing = trend[0] > trend[1] > trend[2]
    u_defect = unitarity_defect(pairs[-1])
    ok = exact < 1e-12 and decreasing and u_defect < 1e-8
    return ok, (
        f"full-circle defect {exact:.3e}, half-circle trend "
        f"{trend[0]:.4f} > {trend[1]:.4f} > {trend[2]:.4f}, unitarity "
        f"defect {u_defect:.3e}"
    )


def _check_translate_diagnostic(rng) -> tuple[bool, str]:
    P, m = 4, 512
    omegas = -P + np.arange(2 * P * m) / m
    sinc_band = ((omegas >= -0.5) & (omegas < 0.5)).astype(float)
    prof = translates_phi(sinc_band, P)
    flat = float(np.max(np.abs(prof.phi - 1.0)))
    full_support = bool(prof.support_mask.all())
    quarter = ((omegas >= -0.25) & (omegas < 0.25)).astype(float)
    prof_q = translates_phi(quarter, P)
    measure_gap = abs(prof_q.measure - 0.5)
    ok = flat <= 1e-10 and full_support and measure_gap <= 2.0 / m
    return ok, (
        f"sinc profile flatness {flat:.3e}, support all: {full_support}, "
        f"quarter-band measure {prof_q.measure} (target 0.5 +- {2.0 / m})"
    )


def _check_transport_sandwich(rng) -> tuple[bool, str]:
    D = 8
    T = np.roll(np.eye(D), 1, axis=0).astype(np.complex128)
    f0 = np.eye(D)[:, 0]
    base = OrbitSpec(T=T, f0=f0, index_set="N", n_max=D - 1)
    worst_margin = math.inf
    for _ in range(10):
        q1, _ = np.linalg.qr(rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D)))
        q2, _ = np.linalg.qr(rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D)))
        logs = rng.uniform(0.0, math.log(10.0), size=D)
        logs -= (logs.max() + logs.min()) / 2.0
        V = q1 @ np.diag(np.exp(logs)) @ q2.conj().T
        cond = math.exp(logs.max() - logs.min())
        rep = frame_bounds(OrbitSpec(T=V @ T @ np.linalg.inv(V), f0=V @ f0, index_set="N", n_max=D - 1))
        margin = min(
            rep.lower_bound - 1.0 / cond**2 + 1e-9,
            cond**2 + 1e-9 - rep.upper_bound,
        )
        worst_margin = min(worst_margin, margin)
    # A reseeding multiplier must commute with T, read as T diagonal, and be
    # boundedly invertible: the cyclic shift and a vanishing psi are refused.
    grid = build_multiplication_pair(ArcSet(((0.0, math.pi),)), 16)
    vanishing = np.ones(grid.dim)
    vanishing[3] = 0.0
    rejected = []
    for pair, psi in ((base, np.ones(D)), (grid, vanishing)):
        try:
            commutant_multiplier(pair, psi)
            rejected.append(False)
        except ValueError:
            rejected.append(True)
    ok = worst_margin >= 0.0 and all(rejected)
    return ok, (
        f"sandwich margin {worst_margin:.3e} over 10 draws, multiplier rejected "
        f"on the cyclic shift: {rejected[0]}, where it vanishes: {rejected[1]}"
    )


# Each check takes its seeded generator; those that draw nothing ignore it.
_CRITERIA = (
    (1, "single_factor_parseval", _check_single_factor_parseval, 1.0),
    (2, "nilpotent_exactness", _check_nilpotent_exactness, 0.1),
    (3, "projection_equivalence", _check_projection_equivalence, 2.0),
    (4, "eigenvalue_zero_identity", _check_eigenvalue_zero_identity, None),
    (5, "certificate_containment", _check_certificate_containment, 5.0),
    (6, "perturbation_nonnormality", _check_perturbation_nonnormality, None),
    (7, "generator_reconstruction", _check_generator_reconstruction, None),
    (8, "decay_dichotomy", _check_decay_dichotomy, None),
    (9, "biinfinite_parseval", _check_biinfinite_parseval, 30.0),
    (10, "translate_diagnostic", _check_translate_diagnostic, None),
    (11, "transport_sandwich", _check_transport_sandwich, None),
)


def run_battery(seed: int = 0) -> list[CriterionResult]:
    """Run all acceptance checks."""
    results = []
    for index, name, fn, budget in _CRITERIA:
        start = time.perf_counter()
        try:
            passed, details = fn(np.random.default_rng(seed + 1000 * index))
        except Exception as exc:  # battery reports, never throws
            passed, details = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed > budget:
            passed = False
            details += f"; exceeded {budget:.1f} s budget"
        results.append(
            CriterionResult(
                index=index,
                name=name,
                passed=bool(passed),
                details=details,
                elapsed=elapsed,
            )
        )
    return results


def format_line(result: CriterionResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    return (
        f"[{result.index:2d}] {status} {result.name}: {result.details} "
        f"({result.elapsed:.2f} s)"
    )
