"""Truncated orbit analysis: synthesis, bounds, kernels, transport."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitframes import (
    BlaschkeProduct,
    CommutatorError,
    NumericalError,
    OrbitSpec,
    ShiftInvarianceError,
    build_model_space,
    commutant_transport,
    frame_bounds,
    generator_closure,
    kernel_shift_invariance,
    lower_norm_check,
    orbit,
    similarity_transport,
    synthesis_matrix,
    unitarity_defect,
)

RECOVERY_TOL = 1e-8
TRANSPORT_TOL = 1e-9
KERNEL_TOL = 1e-10


def cycle_matrix(d: int) -> np.ndarray:
    return np.roll(np.eye(d), 1, axis=0)


def seed(d: int) -> np.ndarray:
    out = np.zeros(d)
    out[0] = 1.0
    return out


def brute_force_kernel_residual(U: np.ndarray, tol: float = 1e-10) -> float:
    """||U R N||_2 with N an orthonormal null basis from a full SVD."""
    L = U.shape[1]
    _, svals, vh = np.linalg.svd(U, full_matrices=True)
    rank = int(np.count_nonzero(svals >= tol * svals[0])) if svals[0] > 0 else 0
    N = vh[rank:].conj().T
    if N.shape[1] == 0:
        return 0.0
    R = np.eye(L, k=-1)
    return float(np.linalg.norm(U @ R @ N, 2))


@st.composite
def small_column_matrices(draw):
    """Complex D x L matrices, D <= 4, L <= 9, of any rank, with columns
    repeated or zeroed so that the kernel often has dimension above 1."""
    D = draw(st.integers(min_value=1, max_value=4))
    L = draw(st.integers(min_value=1, max_value=9))
    rank = draw(st.integers(min_value=0, max_value=min(D, L)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    left = rng.standard_normal((D, rank)) + 1j * rng.standard_normal((D, rank))
    right = rng.standard_normal((rank, L)) + 1j * rng.standard_normal((rank, L))
    U = left @ right
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        src = draw(st.integers(min_value=0, max_value=L - 1))
        dst = draw(st.integers(min_value=0, max_value=L - 1))
        U[:, dst] = U[:, src] if draw(st.booleans()) else 0.0
    return U


class TestOrbitSpec:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            OrbitSpec(T=np.zeros((2, 3)), f0=np.zeros(2), index_set="N", n_max=4)

    def test_rejects_seed_length_mismatch(self):
        with pytest.raises(ValueError, match="seed length"):
            OrbitSpec(T=np.eye(2), f0=np.zeros(3), index_set="N", n_max=4)

    def test_rejects_unknown_index_set(self):
        with pytest.raises(ValueError, match="index_set"):
            OrbitSpec(T=np.eye(2), f0=seed(2), index_set="Z+", n_max=4)

    def test_rejects_empty_operator(self):
        with pytest.raises(ValueError, match="T must be nonempty"):
            OrbitSpec(T=np.zeros((0, 0)), f0=np.zeros(0), index_set="N", n_max=4)

    @pytest.mark.parametrize("index_set", ["N", "Z"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["T", "f0"])
    def test_rejects_non_finite(self, name, bad, index_set):
        args = {"T": np.eye(2), "f0": seed(2)}
        args[name].flat[0] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            OrbitSpec(index_set=index_set, n_max=4, **args)

    def test_rejects_negative_truncation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            OrbitSpec(T=np.eye(2), f0=seed(2), index_set="N", n_max=-1)

    def test_two_sided_needs_invertible(self):
        T = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="invertible"):
            OrbitSpec(T=T, f0=seed(2), index_set="Z", n_max=4)

    def test_two_sided_condition_ceiling(self):
        T = np.diag([1.0, 1e13])
        with pytest.raises(ValueError, match="condition"):
            OrbitSpec(T=T, f0=seed(2), index_set="Z", n_max=4)

    def test_arrays_frozen(self):
        spec = OrbitSpec(T=np.eye(2), f0=seed(2), index_set="N", n_max=4)
        with pytest.raises(ValueError):
            spec.T[0, 0] = 5.0
        with pytest.raises(ValueError):
            spec.f0[0] = 5.0


class TestSynthesisMatrix:
    def test_scalar_geometric(self):
        spec = OrbitSpec(T=np.array([[0.5]]), f0=np.array([1.0]), index_set="N", n_max=3)
        U = synthesis_matrix(spec)
        assert np.array_equal(U, np.array([[1.0, 0.5, 0.25, 0.125]]))

    def test_nilpotent_columns(self):
        T = np.array([[0.0, 0.0], [1.0, 0.0]])
        spec = OrbitSpec(T=T, f0=seed(2), index_set="N", n_max=3)
        U = synthesis_matrix(spec)
        expected = np.zeros((2, 4), dtype=complex)
        expected[0, 0] = 1.0
        expected[1, 1] = 1.0
        assert np.array_equal(U, expected)

    def test_two_sided_ordering(self):
        spec = OrbitSpec(T=np.array([[2.0]]), f0=np.array([1.0]), index_set="Z", n_max=2)
        U = synthesis_matrix(spec)
        assert np.allclose(U[0], [0.25, 0.5, 1.0, 2.0, 4.0], rtol=0, atol=1e-15)

    def test_overflow_guard(self):
        spec = OrbitSpec(T=np.array([[2.0]]), f0=np.array([1.0]), index_set="N", n_max=60)
        with pytest.raises(NumericalError, match="diverges"):
            synthesis_matrix(spec)

    def test_contraction_norms_nonincreasing(self):
        T = np.diag([0.9, 0.5j])
        spec = OrbitSpec(T=T, f0=np.array([1.0, 1.0]), index_set="N", n_max=40)
        norms = np.linalg.norm(synthesis_matrix(spec), axis=0)
        assert np.all(np.diff(norms) <= 1e-15)


class TestFrameBounds:
    def test_cycle_one_period_is_tight(self):
        d = 6
        spec = OrbitSpec(T=cycle_matrix(d), f0=seed(d), index_set="N", n_max=d - 1)
        report = frame_bounds(spec)
        assert report.lower_bound == 1.0
        assert report.upper_bound == 1.0
        assert report.parseval_defect == 0.0

    def test_defect_is_worst_eigenvalue_gap(self):
        rng = np.random.default_rng(3)
        T = 0.6 * rng.standard_normal((4, 4))
        spec = OrbitSpec(T=T, f0=rng.standard_normal(4), index_set="N", n_max=30)
        report = frame_bounds(spec)
        expected = max(report.upper_bound - 1.0, 1.0 - report.lower_bound)
        assert abs(report.parseval_defect - expected) < 1e-15
        assert report.lower_bound >= 0.0

    def test_nilpotent_tail_is_zero(self):
        T = np.array([[0.0, 0.0], [1.0, 0.0]])
        spec = OrbitSpec(T=T, f0=seed(2), index_set="N", n_max=5)
        assert frame_bounds(spec).tail_estimate == 0.0

    def test_scalar_tail_closed_form(self):
        rho = 0.5
        n_max = 10
        spec = OrbitSpec(
            T=np.array([[rho]]), f0=np.array([1.0]), index_set="N", n_max=n_max
        )
        tail = frame_bounds(spec).tail_estimate
        expected = rho ** (2 * (n_max + 1)) / (1.0 - rho * rho)
        assert tail == pytest.approx(expected, rel=1e-12)

    def test_tail_none_without_decay(self):
        spec = OrbitSpec(T=np.eye(1), f0=np.array([1.0]), index_set="N", n_max=8)
        assert frame_bounds(spec).tail_estimate is None

    def test_tail_none_for_two_sided(self):
        spec = OrbitSpec(
            T=np.array([[0.5]]), f0=np.array([1.0]), index_set="Z", n_max=8
        )
        assert frame_bounds(spec).tail_estimate is None

    def test_tail_actually_bounds_remainder(self):
        # Compare the reported bound against a brute-force continuation.
        T = np.diag([0.5, 0.25 + 0.25j])
        f0 = np.array([1.0, 1.0])
        spec = OrbitSpec(T=T, f0=f0, index_set="N", n_max=12)
        tail = frame_bounds(spec).tail_estimate
        v = np.linalg.matrix_power(T, 13) @ f0
        measured = 0.0
        for _ in range(400):
            measured += float(np.linalg.norm(v)) ** 2
            v = T @ v
        assert tail >= measured


class TestKernelInvariance:
    def test_trivial_kernel(self):
        assert kernel_shift_invariance(np.eye(3)) == 0.0

    def test_repeated_column_counterexample(self):
        d = 10
        U = np.zeros((d, d + 1))
        U[0, 0] = 1.0
        U[:, 1:] = np.eye(d)
        residual = kernel_shift_invariance(U)
        assert abs(residual - 1.0) < 1e-10

    def test_nilpotent_padding_invariant(self):
        T = np.array([[0.0, 0.0], [1.0, 0.0]])
        spec = OrbitSpec(T=T, f0=seed(2), index_set="N", n_max=9)
        assert kernel_shift_invariance(synthesis_matrix(spec)) < 1e-12

    def test_decaying_orbit_invariant(self):
        ms = build_model_space(BlaschkeProduct(zeros=[0.5, -0.3j]))
        U = orbit(ms, 120).T
        assert kernel_shift_invariance(U) < KERNEL_TOL

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(ValueError, match="2-D"):
            kernel_shift_invariance(np.ones(4))

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError, match="tol"):
            kernel_shift_invariance(np.eye(2), tol=2.0)

    @settings(max_examples=200, deadline=None)
    @given(small_column_matrices())
    def test_matches_brute_force_projection(self, U):
        expected = brute_force_kernel_residual(U)
        scale = max(1.0, float(np.linalg.norm(U, 2)))
        assert abs(kernel_shift_invariance(U) - expected) <= 1e-12 * scale

    @pytest.mark.parametrize("fn", [kernel_shift_invariance, generator_closure])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_columns(self, fn, bad):
        U = np.eye(2, 3, dtype=complex)
        U[1, 2] = bad
        with pytest.raises(ValueError, match="frame_columns must be finite"):
            fn(U)

    def test_linear_memory_at_long_window(self):
        # A full SVD would allocate a 4000 x 4000 complex factor (244 MiB) here.
        zeros = [0.5, -0.3j, 0.4 + 0.2j, -0.6]
        U = orbit(build_model_space(BlaschkeProduct(zeros=zeros)), 3999).T
        tracemalloc.start()
        try:
            kernel_shift_invariance(U)
            generator_closure(U)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert U.shape == (4, 4000)
        assert peak < 16 * 2**20


class TestGeneratorClosure:
    def test_scalar_recovery(self):
        spec = OrbitSpec(
            T=np.array([[0.6]]), f0=np.array([1.0]), index_set="N", n_max=120
        )
        T_hat = generator_closure(synthesis_matrix(spec))
        assert abs(T_hat[0, 0] - 0.6) < 1e-10

    def test_nilpotent_exact(self):
        T = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        spec = OrbitSpec(T=T, f0=seed(2), index_set="N", n_max=6)
        T_hat = generator_closure(synthesis_matrix(spec))
        assert np.max(np.abs(T_hat - T)) < 1e-14

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_model_shift_recovery(self, seed_val):
        rng = np.random.default_rng(seed_val)
        zeros = 0.6 * rng.uniform(0.1, 1.0, 2) * np.exp(
            2j * np.pi * rng.uniform(size=2)
        )
        ms = build_model_space(BlaschkeProduct(zeros=zeros))
        U = orbit(ms, 140).T
        T_hat = generator_closure(U)
        assert np.linalg.norm(T_hat - ms.shift_matrix, 2) < RECOVERY_TOL

    def test_counterexample_raises(self):
        d = 10
        U = np.zeros((d, d + 1))
        U[0, 0] = 1.0
        U[:, 1:] = np.eye(d)
        with pytest.raises(ShiftInvarianceError) as exc_info:
            generator_closure(U)
        assert abs(exc_info.value.residual - 1.0) < 1e-10

    def test_rejects_empty_rows(self):
        with pytest.raises(ValueError, match="frame_columns must be a nonempty"):
            generator_closure(np.zeros((0, 3)))

    def test_span_deficit_raises(self):
        U = np.zeros((2, 5))
        U[0, 0] = 1.0
        with pytest.raises(NumericalError, match="not captured"):
            generator_closure(U)


class TestSimilarityTransport:
    def test_identity_is_noop(self):
        spec = OrbitSpec(T=np.diag([0.5, 0.3]), f0=seed(2), index_set="N", n_max=8)
        out = similarity_transport(spec, np.eye(2))
        assert np.array_equal(out.T, spec.T)
        assert np.array_equal(out.f0, spec.f0)
        assert out.index_set == spec.index_set
        assert out.n_max == spec.n_max

    def test_global_scale_multiplies_bounds(self):
        spec = OrbitSpec(T=np.diag([0.5, 0.3]), f0=np.ones(2), index_set="N", n_max=60)
        base = frame_bounds(spec)
        scaled = frame_bounds(similarity_transport(spec, 2.0 * np.eye(2)))
        assert scaled.lower_bound == pytest.approx(4.0 * base.lower_bound, rel=1e-12)
        assert scaled.upper_bound == pytest.approx(4.0 * base.upper_bound, rel=1e-12)

    def test_rejects_ill_conditioned(self):
        spec = OrbitSpec(T=np.diag([0.5, 0.3]), f0=seed(2), index_set="N", n_max=8)
        with pytest.raises(ValueError, match="condition"):
            similarity_transport(spec, np.diag([1.0, 1e11]))

    def test_rejects_singular(self):
        spec = OrbitSpec(T=np.diag([0.5, 0.3]), f0=seed(2), index_set="N", n_max=8)
        with pytest.raises(ValueError):
            similarity_transport(spec, np.zeros((2, 2)))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_singular_value_sandwich(self, seed_val):
        rng = np.random.default_rng(seed_val)
        d = 3
        T = np.diag(rng.uniform(0.2, 0.8, d) * np.exp(2j * np.pi * rng.uniform(size=d)))
        spec = OrbitSpec(T=T, f0=np.ones(d), index_set="N", n_max=80)
        V = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        V += 3.0 * np.eye(d)
        svals = np.linalg.svd(V, compute_uv=False)
        base = frame_bounds(spec)
        moved = frame_bounds(similarity_transport(spec, V))
        assert moved.lower_bound >= base.lower_bound * svals[-1] ** 2 * (1 - TRANSPORT_TOL)
        assert moved.upper_bound <= base.upper_bound * svals[0] ** 2 * (1 + TRANSPORT_TOL)

    def test_unitary_preserves_bounds(self):
        rng = np.random.default_rng(11)
        d = 4
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        T = np.diag(rng.uniform(0.2, 0.8, d))
        spec = OrbitSpec(T=T, f0=np.ones(d), index_set="N", n_max=60)
        base = frame_bounds(spec)
        moved = frame_bounds(similarity_transport(spec, Q))
        assert moved.lower_bound == pytest.approx(base.lower_bound, rel=1e-10)
        assert moved.upper_bound == pytest.approx(base.upper_bound, rel=1e-10)


class TestCommutantTransport:
    def test_identity_accepted(self):
        spec = OrbitSpec(T=np.diag([0.5, 0.3]), f0=np.ones(2), index_set="N", n_max=8)
        out = commutant_transport(spec, np.eye(2))
        assert np.array_equal(out.T, spec.T)
        assert np.array_equal(out.f0, spec.f0)

    def test_polynomial_in_generator_accepted(self):
        T = np.array([[0.2, 0.0], [0.4, 0.7]])
        spec = OrbitSpec(T=T, f0=np.ones(2), index_set="N", n_max=8)
        V = T @ T + 0.3 * np.eye(2)
        out = commutant_transport(spec, V)
        assert np.allclose(out.f0, V @ spec.f0, rtol=0, atol=0)
        assert np.array_equal(out.T, spec.T)

    def test_noncommuting_rejected_with_norm(self):
        T = np.array([[0.0, 0.0], [1.0, 0.0]])
        spec = OrbitSpec(T=T, f0=np.ones(2), index_set="N", n_max=8)
        with pytest.raises(CommutatorError) as exc_info:
            commutant_transport(spec, np.diag([1.0, 2.0]))
        assert exc_info.value.commutator_norm == pytest.approx(1.0, rel=1e-12)

    def test_zero_multiplier_rejected(self):
        spec = OrbitSpec(T=np.diag([0.5, 0.3]), f0=np.ones(2), index_set="N", n_max=8)
        with pytest.raises(ValueError, match="invertible"):
            commutant_transport(spec, np.zeros((2, 2)))


class TestUnitarityDefect:
    def test_one_sided_rejected(self):
        spec = OrbitSpec(T=np.eye(2), f0=seed(2), index_set="N", n_max=8)
        with pytest.raises(ValueError, match="two-sided"):
            unitarity_defect(spec)

    def test_unitary_cycle_near_zero(self):
        d = 4
        spec = OrbitSpec(T=cycle_matrix(d), f0=seed(d), index_set="Z", n_max=9)
        assert unitarity_defect(spec) < 1e-12

    def test_pure_contraction_flagged(self):
        spec = OrbitSpec(
            T=np.array([[0.5]]), f0=np.array([1.0]), index_set="Z", n_max=20
        )
        defect = unitarity_defect(spec)
        assert defect == pytest.approx(0.75, rel=1e-12)

    def test_rank_deficient_frame_rejected(self):
        spec = OrbitSpec(T=0.5 * np.eye(2), f0=seed(2), index_set="Z", n_max=10)
        with pytest.raises(NumericalError, match="singular"):
            unitarity_defect(spec)


class TestLowerNormCheck:
    def test_one_sided_rejected(self):
        spec = OrbitSpec(T=np.eye(2), f0=seed(2), index_set="N", n_max=8)
        with pytest.raises(ValueError, match="two-sided"):
            lower_norm_check(spec, seed(2), range(4))

    def test_zero_vector_rejected(self):
        spec = OrbitSpec(T=np.eye(2), f0=seed(2), index_set="Z", n_max=8)
        with pytest.raises(ValueError, match="nonzero"):
            lower_norm_check(spec, np.zeros(2), range(4))

    def test_unitary_keeps_norms(self):
        d = 5
        spec = OrbitSpec(T=cycle_matrix(d), f0=seed(d), index_set="Z", n_max=8)
        fwd, adj = lower_norm_check(spec, np.ones(d), range(-6, 7))
        assert fwd == pytest.approx(1.0, rel=1e-12)
        assert adj == pytest.approx(1.0, rel=1e-12)

    def test_scalar_contraction_minimum(self):
        spec = OrbitSpec(
            T=np.array([[0.5]]), f0=np.array([1.0]), index_set="Z", n_max=8
        )
        fwd, adj = lower_norm_check(spec, np.array([2.0]), range(0, 4))
        assert fwd == pytest.approx(0.125, rel=1e-12)
        assert adj == pytest.approx(0.125, rel=1e-12)

    def test_matches_matrix_powers(self):
        rng = np.random.default_rng(7)
        d = 4
        T = np.eye(d) + 0.3 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        spec = OrbitSpec(T=T, f0=seed(d), index_set="Z", n_max=8)
        ns = range(-6, 7)
        mins = []
        for M in (T, T.conj().T):
            ratios = [
                np.linalg.norm(np.linalg.matrix_power(M, n) @ f) / np.linalg.norm(f)
                for n in ns
            ]
            mins.append(min(ratios))
        fwd, adj = lower_norm_check(spec, f, ns)
        assert fwd == pytest.approx(mins[0], rel=1e-12)
        assert adj == pytest.approx(mins[1], rel=1e-12)
        assert lower_norm_check(spec, f, []) == (np.inf, np.inf)

    def test_negative_indices_use_inverse(self):
        spec = OrbitSpec(
            T=np.array([[0.5]]), f0=np.array([1.0]), index_set="Z", n_max=8
        )
        fwd, adj = lower_norm_check(spec, np.array([1.0]), range(-3, 1))
        assert fwd == pytest.approx(1.0, rel=1e-12)
        assert adj == pytest.approx(1.0, rel=1e-12)
