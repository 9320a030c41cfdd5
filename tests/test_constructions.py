"""Seeded diagonal orbits, skewed-basis variants, rank-one perturbations."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitframes import (
    BlaschkeProduct,
    NormalOrbitSpec,
    NumericalError,
    OrbitSpec,
    build_model_space,
    build_normal_pair,
    certificate_bounds,
    excluded_tau,
    frame_bounds,
    perturb_tau,
    similarity_transport,
    synthesis_matrix,
)
from orbitframes.cli import run_problem
from orbitframes.config import max_truncation

from helpers import brute_force_tail

CAPACITY_HALF = 76.36141955583651
CONTAIN_SLACK = 1e-9
RESIDUAL_TOL = 1e-12


def random_spec(seed, size=3, r_lo=0.2, r_hi=0.7):
    """Well-separated zeros (angularly spread) with nonzero weights."""
    rng = np.random.default_rng(seed)
    j = np.arange(size)
    angles = 2.0 * np.pi * (j + 0.5 * rng.uniform(size=size)) / size
    radii = rng.uniform(r_lo, r_hi, size)
    zeros = radii * np.exp(1j * angles)
    coeffs = rng.uniform(0.3, 1.5, size) * np.exp(2j * np.pi * rng.uniform(size=size))
    return NormalOrbitSpec(zeros=zeros, coeffs=coeffs)


class TestNormalOrbitSpec:
    def test_unit_weights(self):
        spec = NormalOrbitSpec(zeros=[0.0, 0.5], coeffs=[1.0, np.sqrt(0.75)])
        assert spec.alpha == pytest.approx(1.0, rel=1e-14)
        assert spec.beta == pytest.approx(1.0, rel=1e-14)
        assert spec.delta == pytest.approx(0.5, rel=1e-14)
        assert spec.capacity == pytest.approx(CAPACITY_HALF, rel=1e-14)
        assert spec.size == 2

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError, match="nonzero"):
            NormalOrbitSpec(zeros=[0.1, 0.2], coeffs=[1.0, 0.0])

    def test_rejects_duplicate_zeros(self):
        with pytest.raises(ValueError, match="certificate"):
            NormalOrbitSpec(zeros=[0.3, 0.3], coeffs=[1.0, 1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            NormalOrbitSpec(zeros=[0.3], coeffs=[1.0, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            NormalOrbitSpec(zeros=[], coeffs=[])

    def test_rejects_overflowing_weight(self):
        with pytest.raises(ValueError, match="finite seed weights"):
            NormalOrbitSpec(zeros=[0.3, 0.6], coeffs=[1.0, 1e200])

    def test_arrays_frozen(self):
        spec = NormalOrbitSpec(zeros=[0.3], coeffs=[1.0])
        with pytest.raises(ValueError):
            spec.zeros[0] = 0.0

    def test_caller_array_untouched(self):
        zeros = np.array([0.3 + 0j, -0.2])
        NormalOrbitSpec(zeros=zeros, coeffs=[1.0, 1.0])
        zeros[0] = 0.0  # must not raise; the constructed object owns a copy

    def test_to_dict(self):
        # The spec as the report writes it: the CLI builds the dict.
        spec = NormalOrbitSpec(zeros=[0.5j], coeffs=[2.0])
        problem = {
            "kind": "normal_construction",
            "parameters": {"zeros": [[0.0, 0.5]], "coeffs": [[2.0, 0.0]], "n_max": 8},
        }
        d = run_problem(problem)["results"]["spec"]
        assert d["zeros"] == [[0.0, 0.5]]
        assert d["coeffs"] == [[2.0, 0.0]]
        assert d["delta"] == 1.0
        assert set(d) == {"zeros", "coeffs", "alpha", "beta", "delta", "capacity"}
        assert [d[k] for k in ("alpha", "beta", "capacity")] == [spec.alpha, spec.beta, spec.capacity]


class TestCertificateBounds:
    def test_single_zero(self):
        spec = NormalOrbitSpec(zeros=[0.5], coeffs=[np.sqrt(0.75)])
        lo, hi = certificate_bounds(spec)
        assert lo == pytest.approx(0.5, rel=1e-14)
        assert hi == pytest.approx(2.0, rel=1e-14)

    def test_pair_at_half_separation(self):
        spec = NormalOrbitSpec(zeros=[0.0, 0.5], coeffs=[1.0, np.sqrt(0.75)])
        lo, hi = certificate_bounds(spec)
        assert lo == pytest.approx(1.0 / CAPACITY_HALF, rel=1e-12)
        assert hi == pytest.approx(CAPACITY_HALF, rel=1e-12)

    def test_weights_scale_quadratically(self):
        base = NormalOrbitSpec(zeros=[0.2, -0.4j], coeffs=[1.0, 0.5])
        doubled = NormalOrbitSpec(zeros=[0.2, -0.4j], coeffs=[2.0, 1.0])
        lo1, hi1 = certificate_bounds(base)
        lo2, hi2 = certificate_bounds(doubled)
        assert lo2 == pytest.approx(4.0 * lo1, rel=1e-14)
        assert hi2 == pytest.approx(4.0 * hi1, rel=1e-14)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_contains_measured_bounds(self, seed):
        spec = random_spec(seed)
        lo, hi = certificate_bounds(spec)
        report = frame_bounds(build_normal_pair(spec))
        tail = report.tail_estimate
        assert tail is not None
        # The finite window can only lose energy, and the loss is bounded
        # by the tail; the upper bound is monotone in the window.
        assert report.upper_bound <= hi * (1.0 + CONTAIN_SLACK)
        assert report.lower_bound >= lo - tail - CONTAIN_SLACK * lo
        assert report.lower_bound > 0.0


class TestBuildNormalPair:
    def test_diagonal_orbit_columns(self):
        spec = NormalOrbitSpec(zeros=[0.5, -0.25], coeffs=[1.0, 2.0])
        orbit_spec = build_normal_pair(spec, n_max=6)
        U = synthesis_matrix(orbit_spec)
        for n in range(7):
            expected = np.array([0.5**n * 1.0, (-0.25) ** n * 2.0])
            assert np.max(np.abs(U[:, n] - expected)) < 1e-15

    def test_column_energy_identity(self):
        spec = random_spec(7)
        U = synthesis_matrix(build_normal_pair(spec, n_max=40))
        n = np.arange(41)
        profile = np.abs(spec.zeros[:, None]) ** (2 * n[None, :])
        expected = profile.T @ (np.abs(spec.coeffs) ** 2)
        assert np.max(np.abs(np.linalg.norm(U, axis=0) ** 2 - expected)) < 1e-13

    def test_auto_depth_floor(self):
        spec = NormalOrbitSpec(zeros=[0.1], coeffs=[1.0])
        assert build_normal_pair(spec).n_max >= 64

    def test_auto_depth_is_the_converged_window(self):
        # The walk converges at k = 11 (0.99^(2^11) squared is below eps):
        # the depth is 2^11 - 1 and the tail there is the Pick sum
        # sum_i |c_i|^2 q_i^(N+1) / (1 - q_i), q_i = |lambda_i|^2.
        spec = NormalOrbitSpec(zeros=[0.5, 0.9j, -0.99], coeffs=[1.0, 0.5, 2.0])
        pair = build_normal_pair(spec)
        assert pair.n_max == 2**11 - 1
        q = np.abs(spec.zeros) ** 2
        exact = float(np.sum(np.abs(spec.coeffs) ** 2 * q ** (pair.n_max + 1) / (1 - q)))
        tail = frame_bounds(pair).tail_estimate
        assert tail >= exact
        assert tail == pytest.approx(exact, rel=1e-11)

    def test_explicit_depth_honored(self):
        spec = NormalOrbitSpec(zeros=[0.1], coeffs=[1.0])
        assert build_normal_pair(spec, n_max=97).n_max == 97


def powers_depth(T):
    """The first k <= top with ||T^(2^k)||^2 <= eps, from np.linalg.matrix_power,
    the 2-norm replacing sqrt(||.||_1 ||.||_inf) only at k = top."""
    cap, eps = max_truncation(), np.finfo(float).eps
    top = (cap + 1).bit_length() - 1
    for k in range(top + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            P = np.linalg.matrix_power(T, 2**k)
            p = q = np.sqrt(np.linalg.norm(P, 1) * np.linalg.norm(P, np.inf))
            if k == top and eps < p * p < np.inf:
                q = min(p, np.linalg.norm(P, 2))
        if q * q <= eps:
            return min(cap, max(64, 2**k - 1))
    return cap


class TestAutomaticDepth:
    @pytest.mark.parametrize("cap", [100, 1000, 16384])
    def test_normal_depth_is_the_powers_depth(self, cap, monkeypatch):
        # On diagonal T the depth read from max|lambda| is the one T's own
        # squarings give, for radii up to the disk's margin.
        monkeypatch.setenv("ORBITFRAMES_MAX_TRUNC", str(cap))
        rng = np.random.default_rng(cap)
        radii = [0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1 - 1e-6, 1 - 1e-8, 1 - 1e-10]
        specs = [NormalOrbitSpec(zeros=[0.0], coeffs=[1.0])]  # T = 0, nilpotent
        for r in radii + list(rng.uniform(0.0, 1.0, 12)):
            # a rotated zero at 1 - 1e-10 may round past the disk's margin
            angle = rng.uniform(0.0, 2.0 * np.pi) if r < 0.9999 else 0.0
            zeros = r * np.exp(1j * np.array([angle, angle + 2.0])) * [1.0, rng.uniform()]
            specs.append(NormalOrbitSpec(zeros=zeros, coeffs=[1.0, 0.5j]))
        for spec in specs:
            depth = build_normal_pair(spec).n_max
            assert depth == powers_depth(np.diag(spec.zeros))
            assert 64 <= depth <= cap
        spec = NormalOrbitSpec(zeros=[0.5, 0.99], coeffs=[1.0, 1.0])
        assert build_normal_pair(spec).n_max == min(cap, 2**11 - 1)
        assert build_normal_pair(NormalOrbitSpec(zeros=[0.1, 0.2], coeffs=[1.0, 1.0])).n_max == 64

    @pytest.mark.parametrize("cap", [100, 1000, 16384])
    def test_perturbed_depth_bounds_the_next_power(self, cap, monkeypatch):
        # ||T^(N+1)||_2^2 <= eps by matrix_power at every depth N below the
        # ceiling, also through a transient of ||T^n||_2 up to about 30 (the
        # first pair: T = [[0.9, 20], [0, 0.5]]).
        monkeypatch.setenv("ORBITFRAMES_MAX_TRUNC", str(cap))
        eps = np.finfo(float).eps
        rng = np.random.default_rng(cap)
        pairs = [perturb_tau(NormalOrbitSpec(zeros=[0.9, 0.5], coeffs=[1.0, 1.0]), 1, 0, 20.0)]
        for seed in range(40):
            spec = random_spec(seed, size=int(rng.integers(2, 7)), r_hi=0.999)
            k, l = rng.choice(spec.size, 2, replace=False)
            tau = 3.0 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            pairs.append(perturb_tau(spec, int(k), int(l), tau))
        for pair in pairs:
            T, N = np.asarray(pair.orbit.T), pair.orbit.n_max
            assert 64 <= N <= cap
            if N < cap:
                assert np.linalg.norm(np.linalg.matrix_power(T, N + 1), 2) ** 2 <= eps
        assert pairs[0].orbit.n_max == min(cap, 2**8 - 1)


def riesz_pair(spec, W, n_max=None):
    """The skewed-basis orbit (W diag(zeros) W^{-1}, W coeffs)."""
    return similarity_transport(build_normal_pair(spec, n_max=n_max), W)


def widened_certificate(spec, W):
    """The diagonal certificate widened by the extreme squared singular values of W.

    The skewed dual system (W^{-1})^* e_j has Riesz bounds 1/smax(W)^2 and
    1/smin(W)^2, which gives (alpha/capacity * smin^2, beta*capacity * smax^2).
    """
    svals = np.linalg.svd(np.asarray(W, dtype=np.complex128), compute_uv=False)
    lo, hi = certificate_bounds(spec)
    return lo * float(svals[-1]) ** 2, hi * float(svals[0]) ** 2


class TestRieszPair:
    def test_identity_reduces_to_diagonal(self):
        spec = random_spec(2)
        W = np.eye(spec.size)
        riesz = riesz_pair(spec, W, n_max=50)
        diag = build_normal_pair(spec, n_max=50)
        assert np.allclose(riesz.T, diag.T, rtol=0, atol=1e-15)
        assert np.allclose(riesz.f0, diag.f0, rtol=0, atol=1e-15)
        lo_r, hi_r = widened_certificate(spec, W)
        lo_d, hi_d = certificate_bounds(spec)
        assert lo_r == pytest.approx(lo_d, rel=1e-14)
        assert hi_r == pytest.approx(hi_d, rel=1e-14)

    def test_generator_keeps_spectrum(self):
        spec = random_spec(4)
        rng = np.random.default_rng(5)
        W = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        orbit_spec = riesz_pair(spec, W, n_max=50)
        eigs = np.sort_complex(np.linalg.eigvals(orbit_spec.T))
        assert np.max(np.abs(eigs - np.sort_complex(spec.zeros))) < 1e-10

    def test_skewed_dual_biorthogonality(self):
        rng = np.random.default_rng(9)
        W = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        W += 4.0 * np.eye(4)
        duals = np.linalg.inv(W).conj().T
        gram = duals.conj().T @ W
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_diag_1_2_certificates(self):
        spec = NormalOrbitSpec(zeros=[0.0, 0.5], coeffs=[1.0, np.sqrt(0.75)])
        W = np.diag([1.0, 2.0])
        lo, hi = widened_certificate(spec, W)
        base_lo, base_hi = certificate_bounds(spec)
        assert lo == pytest.approx(base_lo, rel=1e-14)
        assert hi == pytest.approx(4.0 * base_hi, rel=1e-14)
        report = frame_bounds(riesz_pair(spec, W))
        assert lo * (1.0 - CONTAIN_SLACK) - report.tail_estimate <= report.lower_bound
        assert report.upper_bound <= hi * (1.0 + CONTAIN_SLACK)
        # The conservative quarter-scaled window also holds here.
        assert base_lo / 4.0 <= report.lower_bound
        assert report.upper_bound <= base_hi * 4.0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_certificate_contains_measured(self, seed):
        spec = random_spec(seed, size=2)
        rng = np.random.default_rng(seed + 1)
        W = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        W += 3.0 * np.eye(2)
        lo, hi = widened_certificate(spec, W)
        report = frame_bounds(riesz_pair(spec, W))
        tail = report.tail_estimate
        assert tail is not None
        assert report.upper_bound <= hi * (1.0 + CONTAIN_SLACK)
        assert report.lower_bound >= lo - tail - CONTAIN_SLACK * lo

    def test_rejects_wrong_shape(self):
        spec = random_spec(0, size=2)
        with pytest.raises(ValueError, match="2x2"):
            riesz_pair(spec, np.eye(3), n_max=8)


class TestExcludedTau:
    def test_closed_form(self):
        spec = NormalOrbitSpec(zeros=[0.5, 0.75], coeffs=[2.0, 1.0])
        bad = excluded_tau(spec, 0, 1)
        assert bad == pytest.approx((0.5 - 0.75) * 1.0 / 2.0)

    def test_excluded_value_rejected(self):
        spec = NormalOrbitSpec(zeros=[0.5, 0.75, 0.875], coeffs=[1.0, 1.0, 1.0])
        bad = excluded_tau(spec, 0, 1)
        with pytest.raises(ValueError, match="excluded"):
            perturb_tau(spec, 0, 1, bad)
        with pytest.raises(ValueError, match="excluded"):
            perturb_tau(spec, 0, 1, bad * (1.0 + 1e-13))

    def test_nearby_value_accepted(self):
        spec = NormalOrbitSpec(zeros=[0.5, 0.75, 0.875], coeffs=[1.0, 1.0, 1.0])
        bad = excluded_tau(spec, 0, 1)
        pair = perturb_tau(spec, 0, 1, bad * 1.001)
        assert pair.certificate_lower > 0.0


class TestPerturbTau:
    def test_nan_tau_rejected(self):
        spec = NormalOrbitSpec(zeros=[0.5, -0.25], coeffs=[1.0, 1.0])
        with pytest.raises(ValueError, match=r"tau must be finite, got \(nan\+0j\)"):
            perturb_tau(spec, 0, 1, float("nan"))

    def test_zero_strength_keeps_diagonal(self):
        spec = NormalOrbitSpec(zeros=[0.5, -0.25], coeffs=[1.0, 1.0])
        pair = perturb_tau(spec, 0, 1, 0.0)
        assert np.array_equal(pair.orbit.T, np.diag(spec.zeros))

    def test_huge_tau_ends_in_numerical_error(self):
        # growth ~ |tau|^2 puts rtol * upper past the float range: the closed
        # form reads as unresolved without an overflow warning, and the walk
        # reports the diverging orbit.
        spec = NormalOrbitSpec(zeros=[0.5, 0.75], coeffs=[1.0, 1.0])
        pair = perturb_tau(spec, 0, 1, 3.0175254784398598e53j, 16)
        with pytest.raises(NumericalError, match="diverges"):
            frame_bounds(pair.orbit)

    def test_generator_entry_and_spectrum(self):
        spec = NormalOrbitSpec(zeros=[0.5, 0.75, 0.875], coeffs=[1.0, 1.0, 1.0])
        tau = 0.1
        pair = perturb_tau(spec, 0, 1, tau)
        T = pair.orbit.T
        assert T[1, 0] == tau
        eigs = np.sort_complex(np.linalg.eigvals(np.asarray(T)))
        assert np.max(np.abs(eigs - np.sort_complex(spec.zeros))) < 1e-12

    def test_eigensystem_closed_forms(self):
        spec = NormalOrbitSpec(zeros=[0.5, 0.75, 0.875], coeffs=[1.0, 1.0, 1.0])
        tau = 0.3 - 0.1j
        k, l = 0, 1
        pair = perturb_tau(spec, k, l, tau)
        d = spec.zeros[k] - spec.zeros[l]
        assert pair.h_basis[l, k] == tau
        assert pair.h_basis[k, k] == d
        assert pair.g_basis[k, l] == -np.conj(tau) / np.conj(d)
        assert pair.g_basis[k, k] == 1.0 / np.conj(d)
        assert pair.biorthogonality_residual < RESIDUAL_TOL
        assert pair.diagonalization_residual < RESIDUAL_TOL

    @pytest.mark.parametrize("seed", range(5))
    def test_residuals_are_the_dense_ones(self, seed):
        # G*H - I and T - H diag(lambda) G* are exactly 0 outside rows and
        # columns k and l; their spectral norms are the 2x2 blocks'.
        rng = np.random.default_rng(seed)
        spec = random_spec(seed, size=6)
        k, l = (int(i) for i in rng.choice(6, 2, replace=False))
        pair = perturb_tau(spec, k, l, 2.0 * rng.uniform() * np.exp(2j * np.pi * rng.uniform()))
        H, G, T = pair.h_basis, pair.g_basis, np.asarray(pair.orbit.T)
        biorth = G.conj().T @ H - np.eye(6)
        diag_res = T - H @ np.diag(spec.zeros) @ G.conj().T
        outside = np.ones((6, 6), dtype=bool)
        outside[np.ix_([k, l], [k, l])] = False
        for dense, residual in [
            (biorth, pair.biorthogonality_residual),
            (diag_res, pair.diagonalization_residual),
        ]:
            assert not np.any(dense[outside])
            assert residual == pytest.approx(np.linalg.norm(dense, 2), abs=4 * np.finfo(float).eps)
            assert residual < RESIDUAL_TOL

    @pytest.mark.parametrize("zeros", [[0.3, 0.5, 0.3], [0.0, 0.0]])
    def test_coinciding_zeros_never_reach_the_pair(self, zeros):
        # perturb_tau divides by lambda_k - lambda_l; the spec refuses a
        # repeated zero before any pair is built.
        with pytest.raises(ValueError, match="separation constant must be positive, got 0.0"):
            NormalOrbitSpec(zeros=zeros, coeffs=[1.0] * len(zeros))

    def test_dual_gram_block_spectrum(self):
        spec = NormalOrbitSpec(zeros=[0.5, 0.75, 0.875], coeffs=[1.0, 1.0, 1.0])
        pair = perturb_tau(spec, 0, 1, 0.4j)
        dual_gram = np.linalg.inv(pair.h_basis.conj().T @ pair.h_basis)
        w = np.linalg.eigvalsh(dual_gram)
        assert pair.riesz_lower == pytest.approx(float(w[0]), rel=1e-12)
        assert pair.riesz_upper == pytest.approx(float(w[-1]), rel=1e-12)
        assert pair.riesz_lower <= 1.0 <= pair.riesz_upper

    def test_normality_gap_is_tau_squared(self):
        spec = NormalOrbitSpec(zeros=[0.5, 0.75, 0.875], coeffs=[1.0, 1.0, 1.0])
        tau = 0.25
        k = 0
        pair = perturb_tau(spec, k, 1, tau)
        T = np.asarray(pair.orbit.T)
        e_k = np.zeros(3)
        e_k[k] = 1.0
        gap = np.linalg.norm(T @ e_k) ** 2 - np.linalg.norm(T.conj().T @ e_k) ** 2
        assert gap == pytest.approx(tau**2, rel=1e-13)

    def test_auto_depth_tail_is_exact(self):
        spec = NormalOrbitSpec(zeros=[0.5, 0.75, 0.875], coeffs=[1.0, 1.0, 1.0])
        pair = perturb_tau(spec, 0, 1, 0.3)
        assert 64 <= pair.orbit.n_max <= max_truncation()
        assert (pair.orbit.n_max + 1).bit_count() == 1
        T, n_max = np.asarray(pair.orbit.T), pair.orbit.n_max
        v = np.linalg.matrix_power(T, n_max + 1) @ pair.orbit.f0
        exact = 0.0
        for _ in range(2000):
            exact += float(np.vdot(v, v).real)
            v = T @ v
        tail = frame_bounds(pair.orbit).tail_estimate
        assert tail >= exact
        assert tail == pytest.approx(exact, rel=1e-11)

    def test_certificate_contains_measured(self):
        spec = NormalOrbitSpec(zeros=[0.5, 0.75, 0.875], coeffs=[1.0, 1.0, 1.0])
        pair = perturb_tau(spec, 0, 1, 0.1)
        report = frame_bounds(pair.orbit)
        tail = report.tail_estimate
        assert tail is not None
        assert report.upper_bound <= pair.certificate_upper * (1.0 + CONTAIN_SLACK)
        assert report.lower_bound >= pair.certificate_lower - tail - CONTAIN_SLACK

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_containment_random(self, seed):
        spec = random_spec(seed, size=3, r_hi=0.6)
        rng = np.random.default_rng(seed + 13)
        tau = complex(*rng.uniform(-0.3, 0.3, 2))
        bad = excluded_tau(spec, 1, 2)
        if abs(tau - bad) < 1e-6 * max(1.0, abs(bad)):
            tau += 0.1
        pair = perturb_tau(spec, 1, 2, tau)
        report = frame_bounds(pair.orbit)
        assert report.upper_bound <= pair.certificate_upper * (1.0 + CONTAIN_SLACK)
        floor = pair.certificate_lower - report.tail_estimate
        assert report.lower_bound >= floor - CONTAIN_SLACK * pair.certificate_lower

    def test_index_validation(self):
        spec = NormalOrbitSpec(zeros=[0.5, 0.75], coeffs=[1.0, 1.0])
        with pytest.raises(ValueError, match="indices"):
            perturb_tau(spec, 0, 5, 0.1)
        with pytest.raises(ValueError, match="distinct"):
            perturb_tau(spec, 1, 1, 0.1)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda spec: excluded_tau(spec, -1, 0), "got k = -1"),
            (lambda spec: excluded_tau(spec, 0, 5), "got l = 5"),
            (lambda spec: excluded_tau(spec, 1, 1), "distinct, got k = l = 1"),
            (lambda spec: perturb_tau(spec, 0.0, 1, 0.1), "integers, got k = 0.0"),
        ],
        ids=["excluded-negative-k", "excluded-l-past-J", "excluded-k-equals-l", "float-k"],
    )
    def test_indices_checked_once(self, call, message):
        # excluded_tau read zero J - 1 for k = -1, ended in a raw IndexError
        # for l = 5 and returned 0j for k = l; perturb_tau took k = 0.0.
        spec = NormalOrbitSpec(zeros=[0.5, 0.2, -0.3], coeffs=[1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match=message):
            call(spec)

    @pytest.mark.parametrize(
        "tau",
        [1e100, 1e200, complex(1.7e308, 1.7e308)],
        ids=["block-lo-inf", "square-overflows", "abs-overflows"],
    )
    def test_tau_past_float_range_is_numerical_error(self, tau):
        spec = NormalOrbitSpec(zeros=[0.5, 0.75], coeffs=[1.0, 1.0])
        with pytest.raises(NumericalError, match="tau = "):
            perturb_tau(spec, 0, 1, tau)

    @pytest.mark.parametrize("tau", [1e2, -1e3j, 1e4, 3.4e16])
    def test_riesz_bounds_multiply_to_inverse_det(self, tau):
        # The 2x2 Riesz block has determinant |d|^2, so its inverse
        # eigenvalues multiply to 1 / |d|^2; a small eigenvalue taken as
        # (trace - disc) / 2 loses this to cancellation as |tau| grows.
        spec = NormalOrbitSpec(zeros=[0.5, 0.75], coeffs=[1.0, 1.0])
        pair = perturb_tau(spec, 0, 1, tau, n_max=4)
        product = pair.riesz_lower * pair.riesz_upper * 0.25**2
        assert product == pytest.approx(1.0, rel=4 * np.finfo(float).eps, abs=0)

    def test_to_dict_keys(self):
        # The perturbed pair as the report writes it: the CLI builds the dict.
        parameters = {"zeros": [[0.5, 0.0], [0.75, 0.0]], "coeffs": [[1.0, 0.0], [1.0, 0.0]]}
        problem = {"kind": "perturbation", "parameters": dict(parameters, k=0, l=1, tau=[0.05, 0.0])}
        d = run_problem(problem)["results"]["perturbed"]
        pair = perturb_tau(NormalOrbitSpec(zeros=[0.5, 0.75], coeffs=[1.0, 1.0]), 0, 1, 0.05)
        assert d["tau"] == [0.05, 0.0]
        assert d["riesz_lower"] == pair.riesz_lower and d["k"] == 0 and d["l"] == 1
        assert set(d) >= {
            "riesz_lower",
            "riesz_upper",
            "certificate_lower",
            "certificate_upper",
            "biorthogonality_residual",
        }


def ring_spec(J, radius, seed):
    """J jittered zeros near a circle of the given radius, weights in [0.5, 1.5)."""
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * (np.arange(J) + rng.uniform(-0.1, 0.1, J)) / J
    zeros = (radius + rng.uniform(-0.002, 0.002, J)) * np.exp(1j * angles)
    coeffs = rng.uniform(0.5, 1.5, J) * np.exp(2j * np.pi * rng.uniform(size=J))
    return NormalOrbitSpec(zeros=zeros, coeffs=coeffs)


def generic(orbit):
    """The same orbit as a spec no builder filled in: the walk or the columns."""
    return OrbitSpec(T=orbit.T, f0=orbit.f0, index_set="N", n_max=orbit.n_max)


def assert_same_bounds(closed, walked):
    assert closed.upper_bound == pytest.approx(walked.upper_bound, rel=1e-12)
    gap = abs(closed.lower_bound - walked.lower_bound)
    assert gap <= closed.lower_bound_floor + walked.lower_bound_floor
    assert closed.n_max == walked.n_max


class TestClosedForm:
    """Built pairs read the window from D powers: S_N = H diag(c) K_N diag(c)* H*."""

    @pytest.mark.parametrize("n_max", [0, 256, 4096, 16384])
    @pytest.mark.parametrize("J", [8, 50, 200])
    def test_normal_pair_matches_the_walk(self, J, n_max):
        pair = build_normal_pair(ring_spec(J, 0.95, J + n_max), n_max)
        report = frame_bounds(pair)
        assert_same_bounds(report, frame_bounds(generic(pair)))
        if n_max > 0:  # resolved: the closed form's floor, not a fallback's
            assert report.lower_bound_floor == pair.closed_form[1] * report.upper_bound

    @pytest.mark.parametrize("n_max", [0, 256, 4096, 16384])
    @pytest.mark.parametrize("J", [8, 50, 200])
    def test_perturbed_pair_matches_the_walk(self, J, n_max):
        pair = perturb_tau(ring_spec(J, 0.95, J + n_max), 0, 1, 0.3j, n_max)
        assert_same_bounds(frame_bounds(pair.orbit), frame_bounds(generic(pair.orbit)))

    @pytest.mark.parametrize("n_max", [0, 16, 64, 300])
    def test_tail_is_the_rounded_up_brute_force_tail(self, n_max):
        spec = ring_spec(8, 0.9, n_max)
        for orbit in (build_normal_pair(spec, n_max), perturb_tau(spec, 2, 5, 0.4, n_max).orbit):
            exact = brute_force_tail(orbit.T, orbit.f0, n_max)
            tail = frame_bounds(orbit).tail_estimate
            assert tail >= exact
            assert tail == pytest.approx(exact, rel=1e-10)

    def test_ladder_falls_back_to_the_walk(self):
        # The closed form's eigvalsh cannot resolve lambda_min = 1.176e-18
        # (it reads about 1.5e-16, below its floor), so the bounds come from
        # the walk's factor, as for the hand-built spec in test_orbits.
        import mpmath

        lam = np.linspace(0.0, 0.9, 16)
        f0 = np.sqrt(1.0 - lam**2)
        n_max = 2000
        pair = build_normal_pair(NormalOrbitSpec(zeros=lam, coeffs=f0), n_max)
        _, rtol, _ = pair.closed_form
        assert pair.spectrum[0] <= rtol * pair.spectrum[-1]
        report = frame_bounds(pair)
        with mpmath.workdps(60):
            x, f = [mpmath.mpf(v) for v in lam], [mpmath.mpf(v) for v in f0]
            S = mpmath.matrix(16, 16)
            for i in range(16):
                for j in range(16):
                    q = x[i] * x[j]
                    S[i, j] = f[i] * f[j] * (1 - q ** (n_max + 1)) / (1 - q)
            exact = float(min(mpmath.eigsy(S, eigvals_only=True)))
        assert report.lower_bound == pytest.approx(exact, rel=1e-6)
        assert report.lower_bound_floor < 1e-6 * exact

    def test_ladder_window_falls_back_to_the_walk(self):
        lam = np.linspace(0.0, 0.9, 16)
        spec = NormalOrbitSpec(zeros=lam, coeffs=np.sqrt(1.0 - lam**2))
        window = build_normal_pair(spec, 4096).window(2000)
        _, rtol, _ = window.closed_form
        assert window.spectrum[0] <= rtol * window.spectrum[-1]
        report = frame_bounds(window)
        assert report == frame_bounds(generic(window))
        assert report == frame_bounds(build_normal_pair(spec, 2000))

    @pytest.mark.parametrize("J", [2, 50])
    def test_perturbed_window_keeps_its_closed_form(self, J):
        # As for a normal pair (test_orbits): the window reports what the
        # pair perturbed at that n_max reports, and builds no columns.
        spec = ring_spec(J, 0.95, J) if J > 2 else NormalOrbitSpec(zeros=[0.5, 0.3], coeffs=[1, 1])
        window = perturb_tau(spec, 0, 1, 0.3j, 4096).orbit.window(256)
        built = perturb_tau(spec, 0, 1, 0.3j, 256).orbit
        report = frame_bounds(window)
        assert asdict(report) == asdict(frame_bounds(built))
        assert report.lower_bound_floor == window.closed_form[1] * report.upper_bound
        assert "columns" not in window.__dict__

    def test_no_walk_and_no_columns(self, monkeypatch):
        pair = build_normal_pair(ring_spec(200, 0.95, 1), 4096)
        merges = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: merges.append(1) or qr(*a, **kw))
        report = frame_bounds(pair)
        assert merges == []
        assert "columns" not in pair.__dict__
        assert report.lower_bound > report.lower_bound_floor > 0.0

    def test_automatic_depth_runs_no_walk(self, monkeypatch):
        # The automatic depth reads max|lambda|; the walk would merge by QR.  With
        # max|lambda| <= 0.952, T^(2^9) is the first power squared below eps.
        def refused(*args, **kwargs):
            raise AssertionError("np.linalg.qr called")

        spec = ring_spec(50, 0.95, 2)
        monkeypatch.setattr(np.linalg, "qr", refused)
        for orbit in (build_normal_pair(spec), perturb_tau(spec, 0, 1, 0.3j).orbit):
            assert orbit.n_max == 2**9 - 1
            assert not orbit.frame_operator.flags.writeable
            assert orbit.closed_form is not None

    @pytest.mark.parametrize("weight", [1e13, 1e154])
    def test_large_orbit_is_judged_by_the_columns(self, weight):
        # Column norms past COLUMN_OVERFLOW stay a divergence error, whether
        # the closed form is finite (1e13) or overflows and is not filled in.
        pair = build_normal_pair(NormalOrbitSpec(zeros=[0.5, -0.5], coeffs=[weight] * 2), 64)
        with pytest.raises(NumericalError, match="diverges past"):
            frame_bounds(pair)

    def test_hand_built_diagonal_keeps_the_walk(self):
        spec = ring_spec(8, 0.9, 3)
        orbit = OrbitSpec(T=np.diag(spec.zeros), f0=spec.coeffs, index_set="N", n_max=4096)
        assert orbit.closed_form is None
        assert "frame_operator" not in orbit.__dict__


def test_records_hold_read_only_arrays():
    # A write to phi would change later projections and decay profiles, one
    # to h_basis or c_dual the closed form of every window of the pair.
    ms = build_model_space(BlaschkeProduct(zeros=[0.5, 0.3j]))
    spec = ring_spec(8, 0.9, 1)
    pair = perturb_tau(spec, 0, 1, 0.3j, 64)
    normal = build_normal_pair(spec, 64)
    arrays = [ms.shift_matrix, ms.phi, pair.h_basis, pair.g_basis]
    for array in arrays + [*pair.orbit.eigensystem[:3], *normal.eigensystem[:2]]:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
