"""Truncated orbit analysis: synthesis, bounds, kernels, similar and reseeded orbits."""

import re
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitframes import orbits
from orbitframes import (
    BlaschkeProduct,
    NormalOrbitSpec,
    NumericalError,
    OrbitSpec,
    ShiftInvarianceError,
    build_model_space,
    build_normal_pair,
    frame_bounds,
    generator_closure,
    kernel_shift_invariance,
    orbit_columns,
    synthesis_matrix,
    unitarity_defect,
)
from orbitframes.config import max_truncation

from helpers import brute_force_tail, power_loop

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
    """||U_1 N||_2 with U_0, U_1 the window without its last and its first
    column and N an orthonormal null basis of U_0 from a full SVD: no column
    past the window enters."""
    U0, U1 = U[:, :-1], U[:, 1:]
    if U0.shape[1] == 0:
        return 0.0
    _, svals, vh = np.linalg.svd(U0, full_matrices=True)
    rank = int(np.count_nonzero(svals >= tol * svals[0])) if svals[0] > 0 else 0
    N = vh[rank:].conj().T
    if N.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(U1 @ N, 2))


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


@st.composite
def diagonalizable_orbits(draw, dims=(1, 4), max_radius=0.999):
    """(T, f0, n_max): T = W diag(lambda) W^-1 with D in ``dims`` (1 to 4),
    spectral radius up to ``max_radius`` (0.999), eigenvalues spread around
    the circle and W = I + 0.3 G / sqrt(2D) (G complex Gaussian), f0 = W c
    with seed weights |c_j| in [0.5, 1.5)."""
    D = draw(st.integers(*dims))
    radii = np.array(draw(st.lists(st.floats(0.1, max_radius), min_size=D, max_size=D)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    lam = radii * np.exp(2j * np.pi * (np.arange(D) + rng.uniform(-0.2, 0.2, D)) / D)
    G = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    W = np.eye(D) + 0.3 * G / np.sqrt(2.0 * D)
    c = rng.uniform(0.5, 1.5, D) * np.exp(2j * np.pi * rng.uniform(size=D))
    n_max = draw(st.integers(min_value=4 * D, max_value=499))
    return W @ np.diag(lam) @ np.linalg.inv(W), W @ c, n_max


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
        with pytest.raises(ValueError, match=r"condition below 1e\+12"):
            OrbitSpec(T=T, f0=seed(2), index_set="Z", n_max=4)

    def test_two_sided_diagonal_condition_message(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "cond", None)  # the diagonal route runs no SVD
        with pytest.raises(ValueError, match=r"condition below 1e\+12, got 1\.000e\+13"):
            OrbitSpec(T=np.diag([1.0, 1e-13]), f0=seed(2), index_set="Z", n_max=4)
        for d in ([1.0, 0.0], [1e300, 1e-300]):
            with pytest.raises(ValueError, match=r"invertible .* got inf"):
                OrbitSpec(T=np.diag(d), f0=seed(2), index_set="Z", n_max=4)

    @pytest.mark.parametrize(
        "T", [[[1.0, 2.0], [2.0, 4.0]], [[1.0, 1.0], [0.0, 1e-13]]], ids=["singular", "ill_conditioned"]
    )
    def test_two_sided_dense_gate_message(self, T):
        # Past the LU route the SVD decides, with the message it always gave.
        cond = float(np.linalg.cond(np.array(T, dtype=np.complex128)))
        with pytest.raises(ValueError) as info:
            OrbitSpec(T=T, f0=seed(2), index_set="Z", n_max=4)
        assert str(info.value) == (
            f"invertible two-sided generator needs condition below 1e+12, got {cond:.3e}"
        )

    def test_two_sided_dense_gate_reads_the_lu_inverse(self, monkeypatch):
        # kappa_2 <= D ||T||_1 ||T^-1||_1: a well conditioned D = 50 generator
        # passes on its LU inverse, which every window and pass reuses.
        rng = np.random.default_rng(50)
        T = skewed_diagonal(rng, np.exp(2j * np.pi * (np.arange(50) + rng.uniform(-0.3, 0.3, 50)) / 50))
        f0 = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        monkeypatch.setattr(np.linalg, "cond", None)
        spec = OrbitSpec(T=T, f0=f0, index_set="Z", n_max=64)
        frame_bounds(spec), unitarity_defect(spec), frame_bounds(spec.window(16))
        assert spec.window(16)._inverse is spec._inverse
        np.testing.assert_allclose(spec._inverse @ T, np.eye(50), atol=1e-12)

    def test_arrays_frozen(self):
        spec = OrbitSpec(T=np.eye(2), f0=seed(2), index_set="N", n_max=4)
        with pytest.raises(ValueError):
            spec.T[0, 0] = 5.0
        with pytest.raises(ValueError):
            spec.f0[0] = 5.0

    @pytest.mark.parametrize("index_set, loops", [("N", 1), ("Z", 2)])
    def test_orbit_built_once(self, monkeypatch, index_set, loops):
        # Each reader walks the orbit once, one walk per side: the columns,
        # and a two-sided frame operator its own pass, which builds no window.
        calls = []
        real = orbits._chunks
        monkeypatch.setattr(orbits, "_chunks", lambda *args: calls.append(1) or real(*args))
        spec = OrbitSpec(T=np.diag([0.5, 0.8]), f0=np.ones(2), index_set=index_set, n_max=6)
        assert spec.frame_operator is spec.frame_operator
        assert ("columns" in spec.__dict__) == (index_set == "N")
        assert len(calls) == (loops if index_set == "Z" else 1)
        assert spec.columns is spec.columns
        assert len(calls) == (2 * loops if index_set == "Z" else 1)
        assert np.array_equal(spec.columns, synthesis_matrix(spec))
        U, S = spec.columns, spec.frame_operator
        if index_set == "N":
            assert np.array_equal(S, U @ U.conj().T)
        else:
            assert np.max(np.abs(S - U @ U.conj().T)) <= 1e-14 * np.linalg.norm(S, 2)
        for array in (spec.columns, spec.frame_operator):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 5.0
        calls.clear()
        frame_bounds(spec)
        if index_set == "Z":
            unitarity_defect(spec)
        assert calls == []


class TestDiagonalStructure:
    def test_diagonal_of(self):
        T = np.diag([1.0, 2j, -3.0])
        assert np.array_equal(orbits.diagonal_of(T), [1.0, 2j, -3.0])
        T[2, 0] = 1e-300
        assert orbits.diagonal_of(T) is None
        assert np.array_equal(orbits.diagonal_of(np.zeros((3, 3))), np.zeros(3))

    @pytest.mark.parametrize("seed_val", range(6))
    def test_diagonal_condition_matches_cond(self, seed_val, monkeypatch):
        # The two-sided gate reads a diagonal T's condition as max|t| / min|t|:
        # it passes at that ceiling, fails just below it, and runs no SVD.
        rng = np.random.default_rng(seed_val)
        D = int(rng.integers(1, 40))
        mods = 10.0 ** rng.uniform(-6.0, 6.0, D)
        d = mods * np.exp(2j * np.pi * rng.uniform(size=D))
        cond = np.abs(d).max() / np.abs(d).min()
        assert cond == pytest.approx(float(np.linalg.cond(np.diag(d))), rel=1e-12)
        monkeypatch.setattr(np.linalg, "cond", None)
        monkeypatch.setattr(orbits, "TWO_SIDED_COND_MAX", cond)
        OrbitSpec(T=np.diag(d), f0=np.ones(D), index_set="Z", n_max=2)
        monkeypatch.setattr(orbits, "TWO_SIDED_COND_MAX", np.nextafter(cond, 0.0))
        with pytest.raises(ValueError, match=re.escape(f"got {cond:.3e}")):
            OrbitSpec(T=np.diag(d), f0=np.ones(D), index_set="Z", n_max=2)

    def test_dense_condition_is_cond(self, monkeypatch):
        # Past the LU bound (D ||T||_1 ||T^-1||_1 = 4.5) the SVD's condition decides.
        T = np.array([[1.0, 0.5], [0.0, -1.0]])
        monkeypatch.setattr(orbits, "TWO_SIDED_COND_MAX", 1.0)
        with pytest.raises(ValueError, match=re.escape(f"got {float(np.linalg.cond(T)):.3e}")):
            OrbitSpec(T=T, f0=seed(2), index_set="Z", n_max=2)

    def test_spectrum_is_one_cached_eigvalsh(self, monkeypatch):
        rng = np.random.default_rng(5)
        T = rng.standard_normal((4, 4)) / 4.0
        spec = OrbitSpec(T=T, f0=rng.standard_normal(4), index_set="N", n_max=9)
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: calls.append(1) or real(*a))
        assert spec.spectrum is spec.spectrum
        assert len(calls) == 1
        np.testing.assert_array_equal(spec.spectrum, real(spec.frame_operator))
        assert not spec.spectrum.flags.writeable
        report = frame_bounds(spec)
        assert len(calls) == 1
        assert report.upper_bound == spec.spectrum[-1]


    @pytest.mark.parametrize("index_set, n_max", [("N", 700), ("Z", 300), ("Z", 1024)])
    def test_blocked_frame_operator_matches_long_double_sum(self, index_set, n_max, monkeypatch):
        # Chunks of 128 columns at D = 8, so every window spans several.
        monkeypatch.setattr(orbits, "_CHUNK_BYTES", 16 * 8 * 128)
        rng = np.random.default_rng(n_max)
        D = 8
        lam = np.exp(2j * np.pi * rng.uniform(size=D)) * (0.999 if index_set == "N" else 1.0)
        f0 = rng.standard_normal(D) + 1j * rng.standard_normal(D)
        spec = OrbitSpec(T=skewed_diagonal(rng, lam), f0=f0, index_set=index_set, n_max=n_max)
        U = spec.columns.astype(np.clongdouble)
        assert orbits._width(D) == 128 and U.shape[1] > 4 * 128
        S = spec.frame_operator
        assert np.max(np.abs(S - U @ U.conj().T)) <= 1e-14 * np.linalg.norm(S, 2)
        # A one-sided window of one chunk is the one product U U*, bit for
        # bit; a two-sided one sums T^-1's side and T's.
        short = spec.window(128 // 2 - 1)
        V = short.columns
        if index_set == "N":
            assert np.array_equal(short.frame_operator, V @ V.conj().T)
        else:
            S = short.frame_operator
            assert np.max(np.abs(S - V @ V.conj().T)) <= 1e-14 * np.linalg.norm(S, 2)

def skewed_diagonal(rng, lam: np.ndarray) -> np.ndarray:
    """W diag(lam) W^-1 with W = I + 0.3 G / sqrt(2D), G complex Gaussian."""
    D = len(lam)
    W = np.eye(D) + 0.3 * (rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))) / np.sqrt(2 * D)
    return W @ np.diag(lam) @ np.linalg.inv(W)


def counted_operator(T: np.ndarray, calls: list) -> np.ndarray:
    """T as an array that appends to ``calls`` for each matrix product it, or
    a power of it, takes part in: whether the product is a squaring P @ P."""

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                calls.append(inputs[0] is inputs[1])
            if "out" in kwargs:
                kwargs["out"] = tuple(np.asarray(x) for x in kwargs["out"])
            result = getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)
            return result.view(Counted) if ufunc is np.matmul and "out" not in kwargs else result

    return np.asarray(T).view(Counted)


def orbit_cases():
    """(T, v, n) of the workloads' classes: compressed shifts up to d = 20
    and radius 0.999, skewed diagonal D = 10, dense unimodular two-sided
    D = 50 forward and inverse."""
    rng = np.random.default_rng(11)
    cases = []
    for d in (2, 5, 10, 20):
        for r in (0.5, 0.99, 0.999):
            zeros = np.linspace(0.1, r, d) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, d))
            ms = build_model_space(BlaschkeProduct(zeros=zeros))
            cases.append(pytest.param(ms.shift_matrix, ms.phi, 4096, id=f"shift-d{d}-r{r}"))
    for k in range(3):
        lam = np.linspace(0.3, 0.999, 10) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 10))
        T = skewed_diagonal(rng, lam)
        cases.append(pytest.param(T, rng.standard_normal(10) + 0j, 1999, id=f"diagonal-D10-{k}"))
    for k in range(2):
        D = 50
        theta = 2 * np.pi * (np.arange(D) + rng.uniform(-0.3, 0.3, D)) / D
        T = skewed_diagonal(rng, np.exp(1j * theta))
        f0 = rng.standard_normal(D) + 1j * rng.standard_normal(D)
        cases.append(pytest.param(T, f0, 1024, id=f"unimodular-D50-{k}-forward"))
        cases.append(pytest.param(np.linalg.inv(T), f0, 1024, id=f"unimodular-D50-{k}-inverse"))
    return cases


class TestOrbitColumns:
    @pytest.mark.parametrize("doubling", [True, False], ids=["doubling", "loop"])
    @pytest.mark.parametrize("T, v, n", orbit_cases())
    def test_routes_match_a_long_double_loop(self, T, v, n, doubling, monkeypatch):
        want = power_loop(T.astype(np.clongdouble), v.astype(np.clongdouble), n)
        monkeypatch.setattr(orbits, "_doubles", lambda D, L: doubling)
        got = orbits.orbit_columns(T, v, n)
        scale = float(np.max(np.linalg.norm(want.astype(np.complex128), axis=0)))
        assert float(np.max(np.abs(got - want))) <= 1e-12 * scale

    @pytest.mark.parametrize("doubling", [True, False], ids=["doubling", "loop"])
    @pytest.mark.parametrize("T, v, n", orbit_cases())
    def test_chunks_match_a_long_double_loop(self, T, v, n, doubling, monkeypatch):
        # Chunks of 64 columns: doubling up to T^64, then T^64 times the chunk
        # before, keeps the error of doubling the window; the loop's chunks
        # are its window's columns, bit for bit.
        monkeypatch.setattr(orbits, "_doubles", lambda D, L: doubling)
        T, v = T.astype(np.complex128), v.astype(np.complex128)
        chunks = list(orbits._chunks(T, v, n, 64))
        assert [c.shape[1] for c in chunks[:-1]] == [64] * (len(chunks) - 1)
        got = np.concatenate(chunks, axis=1)
        want = power_loop(T.astype(np.clongdouble), v.astype(np.clongdouble), n)
        scale = float(np.max(np.linalg.norm(want.astype(np.complex128), axis=0)))
        assert float(np.max(np.abs(got - want))) <= 1e-12 * scale
        if not doubling:
            assert np.array_equal(got, orbits.orbit_columns(T, v, n))

    def test_chunk_width_follows_bytes(self):
        # A power of two with 16 D width <= 256 KiB.
        assert [orbits._width(D) for D in (1, 25, 50, 64, 200, 16384, 10**5)] == [
            16384, 512, 256, 256, 64, 1, 1
        ]

    @pytest.mark.parametrize(
        "D, n_max, doubles",
        [
            (2, 4096, True),
            (10, 63, True),
            (10, 15, False),
            (50, 1024, True),
            (50, 256, True),
            (200, 1024, False),
            (200, 256, False),
        ],
    )
    def test_route_follows_the_flop_count(self, D, n_max, doubles):
        # D log2 L <= 1.8 L doubles (about 2 log2 L products), otherwise L - 1 products.
        rng = np.random.default_rng(D + n_max)
        T = (rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))) / (3 * np.sqrt(D))
        v = rng.standard_normal(D) + 0j
        calls = []
        got = orbits.orbit_columns(counted_operator(T, calls), v, n_max)
        L = n_max + 1
        if doubles:
            assert len(calls) <= 2 * np.ceil(np.log2(L))
        else:
            assert len(calls) == L - 1
        assert np.allclose(got, power_loop(T, v, n_max), rtol=0.0, atol=1e-12)

    def test_integer_operator_is_promoted_before_squaring(self):
        # In int64, T^64 would wrap to 0 without a warning.
        cols = orbits.orbit_columns(np.array([[2, 0], [0, 1]]), [1, 0], 100)
        assert cols.dtype == np.complex128
        assert np.array_equal(cols[0], np.ldexp(1.0, np.arange(101)))
        assert np.array_equal(cols[1], np.zeros(101))

    def test_overflowing_powers_finish_by_the_loop(self):
        # diag(0.5, 2)^1024 is not finite, the orbit of (1, 0) is 0.5^n and 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cols = orbits.orbit_columns(np.diag([0.5, 2.0]), [1.0, 0.0], 16384)
        assert np.array_equal(cols[0], np.ldexp(1.0, -np.arange(16385)))
        assert not np.any(cols[1])

    @pytest.mark.parametrize(
        "T, v, message",
        [
            (np.array([[np.nan, 0.0], [0.0, 0.5]]), [1.0, 1.0], "T must be finite"),
            (np.eye(2), [np.inf, 1.0], "v must be finite"),
            (np.eye(2), [1.0, 1.0, 1.0], r"T must be 3x3 for a v of length 3, got shape \(2, 2\)"),
            (np.ones((2, 3)), [1.0, 1.0], r"T must be 2x2 for a v of length 2, got shape \(2, 3\)"),
        ],
        ids=["nan-T", "inf-v", "v-wrong-length", "T-not-square"],
    )
    def test_operands_checked_at_entry(self, T, v, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                orbits.orbit_columns(T, v, 8)


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

    @pytest.mark.parametrize("T, f0", [(1e200, 1.0), (0.5, 1e200), (1e200, 1e-200)])
    def test_float_overflow_is_numerical_error(self, T, f0):
        # Under the suite's warning filter this also shows that no numpy
        # overflow warning escapes the guard.
        spec = OrbitSpec(T=np.array([[T]]), f0=np.array([f0]), index_set="N", n_max=4)
        with pytest.raises(NumericalError, match="diverges"):
            synthesis_matrix(spec)

    @pytest.mark.parametrize(
        "D, t0, f0, n_max, message",
        [
            (2, [0.5, 2.0], "ones", 1100, "orbit column 0 has norm nan"),
            (2, [0.5, 2.0], "e1", 1100, "orbit column 2124 has norm nan"),
            (64, [0.5, 2.0], "e1", 4096, "orbit column 5120 has norm nan"),
            (64, [1.05], "ones", 700, "orbit column 1400 has norm 6.800e+14"),
        ],
    )
    def test_two_sided_divergence_names_the_column(self, D, t0, f0, n_max, message):
        # The pass and the window run the same check over the same norms in
        # window order: the first worst column, with the same text.
        t = np.exp(2j * np.pi * np.arange(D) / D)
        t[: len(t0)] = t0
        f0 = np.ones(D) if f0 == "ones" else np.eye(D)[1]
        text = re.escape(message + "; the orbit diverges past 1e+12 at this truncation")
        for read in (frame_bounds, unitarity_defect, synthesis_matrix):
            spec = OrbitSpec(T=np.diag(t), f0=f0, index_set="Z", n_max=n_max)
            with pytest.raises(NumericalError, match=f"^{text}$"):
                read(spec)

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


@st.composite
def contracting_orbits(draw):
    """One-sided orbits with D <= 6 and ||T||_2 <= 1, windows short enough
    for the columns route or long enough for the doubling factor."""
    D = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    T = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    T *= draw(st.floats(min_value=0.2, max_value=1.0)) / np.linalg.norm(T, 2)
    f0 = rng.standard_normal(D) + 1j * rng.standard_normal(D)
    n_max = draw(st.one_of(st.integers(0, 40), st.integers(600, 3000)))
    return OrbitSpec(T=T, f0=f0, index_set="N", n_max=n_max)


class TestFactorRoute:
    EPS = np.finfo(np.float64).eps

    def test_diagonal_ladder_lower_bound_matches_mpmath(self):
        # T = diag(linspace(0, 0.9, 16)), f0 = sqrt(1 - lambda^2), N = 2000:
        # lambda_min(S_N) is 1.176e-18, below eps * upper, so only the
        # factor resolves it (eigvalsh of U U* reported 1.568e-16).
        import mpmath

        lam = np.linspace(0.0, 0.9, 16)
        f0 = np.sqrt(1.0 - lam**2)
        n_max = 2000
        spec = OrbitSpec(T=np.diag(lam), f0=f0, index_set="N", n_max=n_max)
        report = frame_bounds(spec)
        with mpmath.workdps(60):
            x, f = [mpmath.mpf(v) for v in lam], [mpmath.mpf(v) for v in f0]
            S = mpmath.matrix(16, 16)
            for i in range(16):
                for j in range(16):
                    q = x[i] * x[j]
                    S[i, j] = f[i] * f[j] * (1 - q ** (n_max + 1)) / (1 - q)
            exact = float(min(mpmath.eigsy(S, eigvals_only=True)))
        assert exact == pytest.approx(1.176e-18, rel=1e-3)
        assert report.lower_bound == pytest.approx(exact, rel=1e-6)
        assert report.lower_bound_floor < 1e-6 * exact

    @given(spec=contracting_orbits())
    @settings(max_examples=60, deadline=None)
    def test_routes_agree_with_thin_svd(self, spec):
        # The floor bounds the square of the absolute error of the singular
        # values whose squares are the bounds, on either route.
        report = frame_bounds(spec)
        svals = np.linalg.svd(synthesis_matrix(spec), compute_uv=False)
        sigma = np.zeros(spec.dim)
        sigma[: svals.size] = svals
        slack = 4.0 * np.sqrt(report.lower_bound_floor)
        assert abs(np.sqrt(report.upper_bound) - sigma[0]) <= slack
        assert abs(np.sqrt(report.lower_bound) - sigma[-1]) <= slack
        if spec.n_max >= 600:  # the factor route ran: its floor is below eps * upper
            assert report.lower_bound_floor < self.EPS * report.upper_bound

    def test_long_window_holds_no_columns(self):
        rng = np.random.default_rng(5)
        D, n_max = 50, 16384
        T = np.diag(0.95 * np.exp(2j * np.pi * rng.random(D)))
        spec = OrbitSpec(T=T, f0=np.ones(D), index_set="N", n_max=n_max)
        tracemalloc.start()
        try:
            frame_bounds(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * D * (n_max + 1) / 10  # the columns take 13 MB
        assert "columns" not in spec.__dict__

    @pytest.mark.parametrize(
        "rate, n_max", [(2.0, 60), (2.0, 2000), (1.01, 16384), (1.05, 8000)]
    )
    def test_diverging_orbit_is_numerical_error(self, rate, n_max):
        # At 2000 the doubling overflows to inf; at 16384 its factor is
        # finite but past the overflow ceiling, and at 1.05 / 8000 so far
        # past it that its floor leaves the float range.  Either way the
        # columns decide.
        spec = OrbitSpec(T=[[rate]], f0=[1.0], index_set="N", n_max=n_max)
        with pytest.raises(NumericalError, match="diverges"):
            frame_bounds(spec)

    def test_overflowing_block_powers_fall_back_to_columns(self):
        # T^(2^k) overflows in its second entry, the orbit (1, 0) never does.
        T, f0 = np.diag([0.5, 2.0]), np.array([1.0, 0.0])
        spec = OrbitSpec(T=T, f0=f0, index_set="N", n_max=16384)
        report = frame_bounds(spec)
        by_columns = OrbitSpec(T=T, f0=f0, index_set="N", n_max=16384)
        by_columns.columns
        assert report == frame_bounds(by_columns)
        assert (report.lower_bound, report.upper_bound) == (0.0, pytest.approx(4 / 3))

    def test_single_column_window_takes_columns(self):
        spec = OrbitSpec(T=[[0.5]], f0=[2.0], index_set="N", n_max=0)
        report = frame_bounds(spec)
        assert (report.lower_bound, report.upper_bound) == (4.0, 4.0)
        assert report.lower_bound_floor == 4.0 * self.EPS
        assert "columns" in spec.__dict__

    def test_route_ignores_built_columns(self):
        # The report is a function of the spec: building its columns first
        # changes neither the route nor the floor.
        spec = OrbitSpec(T=np.diag([0.9, 0.5]), f0=[1.0, 1.0], index_set="N", n_max=3000)
        fresh = frame_bounds(spec)
        spec.columns
        assert frame_bounds(spec) == fresh
        assert fresh.lower_bound_floor < self.EPS * fresh.upper_bound

    def test_window_shares_built_prefix(self):
        # One-sided windows read the prefix, two-sided ones the centred slice.
        T, f0 = np.diag([0.9, 0.8j]), [1.0, 1.0]
        for index_set in ("N", "Z"):
            spec = OrbitSpec(T=T, f0=f0, index_set=index_set, n_max=20)
            assert "columns" not in spec.window(8).__dict__
            U = spec.columns
            window = spec.window(8)
            assert np.shares_memory(window.columns, U)
            np.testing.assert_array_equal(window.columns, synthesis_matrix(window))
            assert "columns" not in spec.window(21).__dict__

    def test_window_keeps_the_validated_operator(self, monkeypatch):
        # A two-sided spec passed its condition gate once; its windows reuse
        # the read-only arrays and run no second SVD of T.
        spec = OrbitSpec(T=np.diag([0.9, 2.0j]), f0=[1.0, 1.0], index_set="Z", n_max=20)
        calls = []
        real = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda *a: calls.append(1) or real(*a))
        window = spec.window(8)
        assert calls == []
        assert window.T is spec.T and window.f0 is spec.f0
        assert (window.index_set, window.n_max) == ("Z", 8)
        assert frame_bounds(window) == frame_bounds(
            OrbitSpec(T=spec.T, f0=spec.f0, index_set="Z", n_max=8)
        )
        with pytest.raises(ValueError, match="n_max must be nonnegative"):
            spec.window(-1)
        with pytest.raises(ValueError, match="exceeds the ceiling"):
            spec.window(max_truncation() + 1)

    @pytest.mark.parametrize("J", [2, 50])
    def test_window_of_a_built_pair_keeps_its_closed_form(self, J):
        # The window reads S_N from the eigensystem at its own n_max, so it
        # reports what the pair built at that n_max reports, floor included.
        zeros = [0.5, 0.3] if J == 2 else 0.95 * np.exp(2j * np.pi * np.arange(J) / J)
        spec = NormalOrbitSpec(zeros=zeros, coeffs=np.ones(J))
        window = build_normal_pair(spec, 4096).window(256)
        report = frame_bounds(window)
        assert asdict(report) == asdict(frame_bounds(build_normal_pair(spec, 256)))
        assert report.lower_bound_floor == window.closed_form[1] * report.upper_bound
        assert "columns" not in window.__dict__


class TestSharedWalk:
    """Every window of a one-sided orbit reads, and extends, its spec's one walk."""

    def test_schedule_windows_square_no_more_than_the_spec(self):
        # n_max = 1999 and its schedule rows 249, 499, 999 (as a workload's
        # recover op asks for them) all take the factor route at D = 4.
        rng = np.random.default_rng(3)
        T = skewed_diagonal(rng, np.linspace(0.3, 0.9, 4) * np.exp(0.5j * np.pi * np.arange(4)))
        f0 = rng.standard_normal(4) + 0j
        squarings, reports = [], []
        for schedule in ([], [249, 499, 999]):
            calls = []
            spec = OrbitSpec(T=T, f0=f0, index_set="N", n_max=1999)
            spec = spec._replace(T=counted_operator(spec.T, calls))
            reports.append([frame_bounds(spec)])
            for m in schedule:
                window = spec.window(m)
                reports[-1].append(frame_bounds(window))
                assert window._walk is spec._walk
                assert "columns" not in window.__dict__
            squarings.append(sum(calls))
        assert squarings[0] == squarings[1] == len(spec._walk) - 1 > 0
        assert reports[1][0] == reports[0][0]
        for m, report in zip([249, 499, 999], reports[1][1:]):
            assert report == frame_bounds(OrbitSpec(T=T, f0=f0, index_set="N", n_max=m))

    @settings(max_examples=40, deadline=None)
    @given(
        orbit=diagonalizable_orbits(dims=(2, 6), max_radius=0.95),
        cuts=st.lists(st.one_of(st.integers(0, 40), st.integers(150, 4000)), min_size=1, max_size=6),
    )
    def test_windows_in_any_order_match_fresh_specs_bit_for_bit(self, orbit, cuts):
        # Cuts up to 40 take the columns route, from 150 the factor route
        # (D <= 6); each window walks only as far as its own digits need.
        T, f0, _ = orbit
        spec = OrbitSpec(T=T, f0=f0, index_set="N", n_max=2000)
        for m in cuts:
            window = spec.window(m)
            got = frame_bounds(window)
            want = frame_bounds(OrbitSpec(T=T, f0=f0, index_set="N", n_max=m))
            assert [repr(v) for v in asdict(got).values()] == [repr(v) for v in asdict(want).values()]
            assert ("columns" in window.__dict__) == (m <= 40)
            assert window._walk is spec._walk


class TestExactTail:
    """The tail past the window from the doubling walk, against oracles
    that do not use it: brute-force sums and the Pick closed form."""

    @pytest.mark.parametrize("n_max, pinned", [(20, 4.78867292486e-08), (60, 3.12134e-30)])
    def test_defective_compressed_shift(self, n_max, pinned):
        # zeros [0.5, 0.5, 0.5]: one defective eigenvalue, so no eigenvector
        # basis bounds this tail.
        ms = build_model_space(BlaschkeProduct(zeros=[0.5, 0.5, 0.5]))
        spec = OrbitSpec(T=ms.shift_matrix, f0=ms.phi, index_set="N", n_max=n_max)
        tail = frame_bounds(spec).tail_estimate
        exact = brute_force_tail(ms.shift_matrix, ms.phi, n_max)
        assert tail >= exact
        assert tail == pytest.approx(exact, rel=1e-12)
        assert tail == pytest.approx(pinned, rel=1e-5)

    def test_transient_growth(self):
        T, f0 = np.array([[0.6, 3.0], [0.0, 0.5]]), np.array([0.0, 1.0])
        assert np.linalg.norm(np.linalg.matrix_power(T, 4) @ f0) > 2.0
        for n_max in (3, 10, 700):
            tail = frame_bounds(OrbitSpec(T=T, f0=f0, index_set="N", n_max=n_max)).tail_estimate
            exact = brute_force_tail(T, f0, n_max)
            assert tail >= exact
            assert tail == pytest.approx(exact, rel=1e-12)
        # ||T^4||_2 is about 2: at N = 0 the block powers are not below 1 two
        # squarings past the window, so the walk gives up.
        assert frame_bounds(OrbitSpec(T=T, f0=f0, index_set="N", n_max=0)).tail_estimate is None

    @pytest.mark.parametrize("n_max", [30, 2000])
    def test_diagonal_ladder_pick_closed_form(self, n_max):
        # sum_i |c_i|^2 q_i^(N+1) / (1 - q_i) with q_i = |lambda_i|^2, on the
        # columns route (N = 30) and the factor route (N = 2000).
        lam = np.linspace(0.0, 0.9, 16)
        c = np.sqrt(1.0 - lam**2)
        q = lam**2
        exact = float(np.sum(c**2 * q ** (n_max + 1) / (1.0 - q)))
        spec = OrbitSpec(T=np.diag(lam), f0=c, index_set="N", n_max=n_max)
        tail = frame_bounds(spec).tail_estimate
        assert tail >= exact
        assert tail == pytest.approx(exact, rel=1e-11)

    @pytest.mark.parametrize("D, n_max", [(200, 256), (4, 4095)])
    @pytest.mark.parametrize("kind", ["identity", "unitary"])
    def test_radius_one_stops_two_squarings_past_the_window(self, kind, D, n_max, monkeypatch):
        # The walk merges once per squaring (plus once per later set digit
        # of N + 1 on the factor route): two squarings past the window.
        rng = np.random.default_rng(17)
        Z = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        T = np.eye(D) if kind == "identity" else np.linalg.qr(Z)[0]
        spec = OrbitSpec(T=T, f0=rng.standard_normal(D), index_set="N", n_max=n_max)
        merges = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: merges.append(1) or qr(*a, **kw))
        assert frame_bounds(spec).tail_estimate is None
        assert len(merges) <= (n_max + 1).bit_length() + 2


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
        U = orbit_columns(ms.shift_matrix, ms.phi, 120)
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
        ms = build_model_space(BlaschkeProduct(zeros=zeros))
        U = orbit_columns(ms.shift_matrix, ms.phi, 3999)
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
        T_hat, _ = generator_closure(synthesis_matrix(spec))
        assert abs(T_hat[0, 0] - 0.6) < 1e-10

    def test_nilpotent_exact(self):
        T = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        spec = OrbitSpec(T=T, f0=seed(2), index_set="N", n_max=6)
        T_hat, _ = generator_closure(synthesis_matrix(spec))
        assert np.max(np.abs(T_hat - T)) < 1e-14

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_model_shift_recovery(self, seed_val):
        rng = np.random.default_rng(seed_val)
        zeros = 0.6 * rng.uniform(0.1, 1.0, 2) * np.exp(
            2j * np.pi * rng.uniform(size=2)
        )
        ms = build_model_space(BlaschkeProduct(zeros=zeros))
        U = orbit_columns(ms.shift_matrix, ms.phi, 140)
        T_hat, _ = generator_closure(U)
        assert np.linalg.norm(T_hat - ms.shift_matrix, 2) < RECOVERY_TOL

    def test_residual_from_the_same_svd(self):
        # The residual is kernel_shift_invariance(U), and equals
        # ||(U_1 U_0^+) U_0 - U_1||_2 for the recovered U_1 U_0^+.
        ms = build_model_space(BlaschkeProduct(zeros=[0.5, -0.3j, 0.7]))
        U = orbit_columns(ms.shift_matrix, ms.phi, 200)
        T_hat, residual = generator_closure(U)
        assert residual == kernel_shift_invariance(U)
        assert abs(residual - np.linalg.norm(T_hat @ U[:, :-1] - U[:, 1:], 2)) < 1e-14

    def test_counterexample_raises(self):
        d = 10
        U = np.zeros((d, d + 1))
        U[0, 0] = 1.0
        U[:, 1:] = np.eye(d)
        with pytest.raises(ShiftInvarianceError) as exc_info:
            generator_closure(U)
        assert abs(exc_info.value.residual - 1.0) < 1e-10

    @pytest.mark.parametrize("scale", [1.0, 1e9])
    def test_verdict_does_not_depend_on_seed_scale(self, scale):
        # The residual grows with the seed (4.5e-13 at scale 1, 4.5e-4 at
        # 1e9); the ceiling grows with ||U||_2, so both seeds recover T.
        T = np.diag([0.5, 0.3])
        spec = OrbitSpec(T=T, f0=scale * np.ones(2), index_set="N", n_max=40)
        T_hat, _ = generator_closure(synthesis_matrix(spec))
        assert np.linalg.norm(T_hat - T, 2) < RECOVERY_TOL

    @pytest.mark.parametrize("radius", [0.9, 0.97, 0.99, 0.999])
    def test_slow_orbit_recovers_its_generator(self, radius):
        # The columns past the window hold |lambda|^500 of the seed; the test
        # reads only the window, so a slow orbit is an orbit too.
        T = radius * np.diag(np.exp(2j * np.pi * (np.arange(4) + 0.1) / 4))
        spec = OrbitSpec(T=T, f0=np.ones(4), index_set="N", n_max=499)
        T_hat, _ = generator_closure(synthesis_matrix(spec))
        assert np.linalg.norm(T_hat - T, 2) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(diagonalizable_orbits())
    def test_recovers_diagonalizable_generators(self, orbit_data):
        T, f0, n_max = orbit_data
        spec = OrbitSpec(T=T, f0=f0, index_set="N", n_max=n_max)
        T_hat, _ = generator_closure(synthesis_matrix(spec))
        scale = max(1.0, float(np.linalg.norm(T, 2)))
        assert np.linalg.norm(T_hat - T, 2) <= 1e-10 * scale

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_columns_past_the_dimension_are_rejected(self, D, extra, seed_val):
        # L - 1 > D columns in general position: ker U_0 is nontrivial and U_1
        # does not vanish on it.
        rng = np.random.default_rng(seed_val)
        L = D + 1 + extra
        U = rng.standard_normal((D, L)) + 1j * rng.standard_normal((D, L))
        with pytest.raises(ShiftInvarianceError):
            generator_closure(U)

    def test_one_column_is_not_captured(self):
        # U_0 is empty: no kernel to test, and no frame to capture.
        assert kernel_shift_invariance(np.ones((3, 1))) == 0.0
        with pytest.raises(NumericalError, match="not captured"):
            generator_closure(np.ones((3, 1)))

    def test_rejects_empty_rows(self):
        with pytest.raises(ValueError, match="frame_columns must be a nonempty"):
            generator_closure(np.zeros((0, 3)))

    def test_span_deficit_raises(self):
        U = np.zeros((2, 5))
        U[0, 0] = 1.0
        with pytest.raises(NumericalError, match="not captured"):
            generator_closure(U)


def similar(spec: OrbitSpec, V: np.ndarray) -> OrbitSpec:
    """The orbit of (V T V^-1, V f0): V times the orbit of (T, f0)."""
    return OrbitSpec(
        T=V @ spec.T @ np.linalg.inv(V), f0=V @ spec.f0, index_set=spec.index_set, n_max=spec.n_max
    )


class TestSimilarityTransport:
    """Frame bounds of a similar orbit sit inside the singular-value sandwich."""

    def test_global_scale_multiplies_bounds(self):
        spec = OrbitSpec(T=np.diag([0.5, 0.3]), f0=np.ones(2), index_set="N", n_max=60)
        base = frame_bounds(spec)
        scaled = frame_bounds(similar(spec, 2.0 * np.eye(2)))
        assert scaled.lower_bound == pytest.approx(4.0 * base.lower_bound, rel=1e-12)
        assert scaled.upper_bound == pytest.approx(4.0 * base.upper_bound, rel=1e-12)

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
        moved = frame_bounds(similar(spec, V))
        assert moved.lower_bound >= base.lower_bound * svals[-1] ** 2 * (1 - TRANSPORT_TOL)
        assert moved.upper_bound <= base.upper_bound * svals[0] ** 2 * (1 + TRANSPORT_TOL)

    def test_unitary_preserves_bounds(self):
        rng = np.random.default_rng(11)
        d = 4
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        T = np.diag(rng.uniform(0.2, 0.8, d))
        spec = OrbitSpec(T=T, f0=np.ones(d), index_set="N", n_max=60)
        base = frame_bounds(spec)
        moved = frame_bounds(similar(spec, Q))
        assert moved.lower_bound == pytest.approx(base.lower_bound, rel=1e-10)
        assert moved.upper_bound == pytest.approx(base.upper_bound, rel=1e-10)


class TestCommutantTransport:
    def test_polynomial_in_generator_accepted(self):
        # V = p(T) commutes with T, so the orbit of (T, V f0) is V times the
        # orbit of (T, f0), and its bounds sit in the sandwich of V.
        T = np.array([[0.2, 0.0], [0.4, 0.7]])
        V = T @ T + 0.3 * np.eye(2)
        spec = OrbitSpec(T=T, f0=np.ones(2), index_set="N", n_max=60)
        reseeded = OrbitSpec(T=T, f0=V @ spec.f0, index_set="N", n_max=60)
        np.testing.assert_allclose(reseeded.columns, V @ spec.columns, rtol=1e-13, atol=1e-15)
        svals = np.linalg.svd(V, compute_uv=False)
        base, moved = frame_bounds(spec), frame_bounds(reseeded)
        assert moved.lower_bound >= base.lower_bound * svals[-1] ** 2 * (1 - TRANSPORT_TOL)
        assert moved.upper_bound <= base.upper_bound * svals[0] ** 2 * (1 + TRANSPORT_TOL)


def defect_by_eigenbasis(T, f0, n_max: int) -> float:
    """||W* W - I||_2 for W = S^-1/2 T S^1/2 at 30 digits, S the window sum of
    (T, f0) over |n| <= n_max, read in S's eigenbasis S = Q diag(w) Q*:
    Y = diag(w^-1/2) Q* T Q diag(w^1/2) = Q* W Q, whose ||Y* Y - I||_2 is the largest |eigenvalue| of Y* Y - I."""
    import mpmath

    with mpmath.workdps(30):
        D, T = len(f0), mpmath.matrix(np.asarray(T).tolist())
        x = mpmath.inverse(T) ** n_max * mpmath.matrix(np.asarray(f0).tolist())
        S = mpmath.zeros(D, D)
        for _ in range(2 * n_max + 1):
            S += x * x.H
            x = T * x
        w, Q = mpmath.eighe(S)
        Y = Q.H * T * Q
        for i in range(D):
            for j in range(D):
                Y[i, j] *= mpmath.sqrt(w[j] / w[i])
        gaps, _ = mpmath.eighe(Y.H * Y - mpmath.eye(D))
        return float(max(abs(g) for g in gaps))


@st.composite
def unimodular_similarities(draw):
    """(T, f0): T = W diag(e^(i theta)) W^-1 with cond(W) <= 10, D in 2..6."""
    D = draw(st.integers(min_value=2, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    G = (rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))) / np.sqrt(2 * D)
    W = np.eye(D) + draw(st.floats(min_value=0.0, max_value=1.0)) * G
    assume(np.linalg.cond(W) <= 10.0)
    T = W @ np.diag(np.exp(2j * np.pi * rng.uniform(size=D))) @ np.linalg.inv(W)
    return T, rng.standard_normal(D) + 1j * rng.standard_normal(D)


class TestUnitarityDefect:
    def test_one_sided_rejected(self):
        spec = OrbitSpec(T=np.eye(2), f0=seed(2), index_set="N", n_max=8)
        with pytest.raises(ValueError, match="two-sided"):
            unitarity_defect(spec)

    def test_unitary_cycle_near_zero(self):
        # T is unitary, yet the window's boundary term is not zero: over
        # |n| <= 9, S = diag(5, 5, 4, 5), a = T u_9 = e_3 and b = u_-9 = e_4,
        # so the defect is 1/4, and it falls like 1/N.
        d = 4
        spec = OrbitSpec(T=cycle_matrix(d), f0=seed(d), index_set="Z", n_max=9)
        expected = defect_by_eigenbasis(spec.T, spec.f0, 9)
        assert expected == pytest.approx(0.25, rel=1e-15)
        assert unitarity_defect(spec) == pytest.approx(expected, rel=1e-12)

    def test_pure_contraction_flagged(self):
        spec = OrbitSpec(
            T=np.array([[0.5]]), f0=np.array([1.0]), index_set="Z", n_max=20
        )
        defect = unitarity_defect(spec)
        assert defect == pytest.approx(0.75, rel=1e-12)

    def test_aperiodic_non_normal_matches_square_roots(self):
        # Eigenvalues off the circle at irrational angles, skewed basis:
        # no period, ||T T* - T* T|| ~ 13, defect ~ 0.34.
        rng = np.random.default_rng(3)
        d = 4
        W = np.eye(d) + 0.4 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        lam = np.array([0.9, 0.95, 1.05, 1.1]) * np.exp(1j * np.array([0.7, 1.9, 3.1, 4.4]))
        T = W @ np.diag(lam) @ np.linalg.inv(W)
        f0 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        spec = OrbitSpec(T=T, f0=f0, index_set="Z", n_max=20)
        U = power_loop(T, f0, 20)
        V = power_loop(np.linalg.inv(T), f0, 20)[:, 1:]
        w, Q = np.linalg.eigh(U @ U.conj().T + V @ V.conj().T)
        root = Q @ np.diag(np.sqrt(w)) @ Q.conj().T
        inv_root = Q @ np.diag(1.0 / np.sqrt(w)) @ Q.conj().T
        Wt = inv_root @ T @ root
        expected = float(np.linalg.norm(Wt.conj().T @ Wt - np.eye(d), 2))
        assert 0.1 < expected < 1.0
        assert unitarity_defect(spec) == pytest.approx(expected, rel=1e-10)

    def test_aperiodic_window_decomposes_once(self, monkeypatch):
        # frame_bounds reads one eigvalsh of the window sum; unitarity_defect
        # reuses it for its singular check and adds one cholesky, no eigh.
        rng = np.random.default_rng(8)
        W = np.eye(6) + 0.2 * rng.standard_normal((6, 6))
        T = W @ np.diag(np.exp(1j * rng.uniform(0.0, 6.0, 6))) @ np.linalg.inv(W)
        spec = OrbitSpec(T=T, f0=rng.standard_normal(6), index_set="Z", n_max=64)
        bare = OrbitSpec(T=T, f0=spec.f0, index_set="Z", n_max=64)
        calls = []
        for name in ("eigh", "eigvalsh", "cholesky"):
            route = getattr(np.linalg, name)
            counted = lambda S, route=route, name=name: calls.append(name) or route(S)  # noqa: E731
            monkeypatch.setattr(np.linalg, name, counted)
        report = frame_bounds(spec)
        defect = unitarity_defect(spec)
        assert calls == ["eigvalsh", "cholesky"]
        assert not hasattr(spec, "eigenbasis")
        eigs = np.linalg.eigvalsh(bare.frame_operator)
        assert np.array_equal(spec.spectrum, eigs)
        assert report.upper_bound == pytest.approx(eigs[-1], rel=1e-13)
        assert report.lower_bound == pytest.approx(eigs[0], abs=1e-13 * eigs[-1])
        assert 0.0 < defect

    @settings(max_examples=40, deadline=None)
    @given(case=unimodular_similarities(), n_max=st.integers(min_value=4, max_value=96))
    def test_boundary_matches_eigenbasis(self, case, n_max):
        # T S T* - S = a a* - b b* with a = T u_last, b = u_first.  The
        # comparison is held on frames the window sum conditions well.
        T, f0 = case
        spec = OrbitSpec(T=T, f0=f0, index_set="Z", n_max=n_max)
        assume(np.linalg.cond(spec.frame_operator) <= 1e4)
        expected = defect_by_eigenbasis(spec.T, spec.f0, n_max)
        assert unitarity_defect(spec) == pytest.approx(expected, rel=1e-12)

    def test_period_window_reads_its_own_boundary(self):
        # A 3-cycle in a skewed basis over 11 columns: the window repeats, and
        # its defect is the window's boundary term, read from one pass.
        rng = np.random.default_rng(4)
        W = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        T = W @ cycle_matrix(3) @ np.linalg.inv(W)
        spec = OrbitSpec(T=T, f0=rng.standard_normal(3), index_set="Z", n_max=5)
        expected = defect_by_eigenbasis(spec.T, spec.f0, 5)
        assert expected > 0.1
        frame_bounds(spec)
        assert unitarity_defect(spec) == pytest.approx(expected, rel=1e-12)
        assert "columns" not in spec.__dict__

    def test_failed_cholesky_is_numerical_error(self, monkeypatch):
        rng = np.random.default_rng(2)
        T = skewed_diagonal(rng, np.exp(2j * np.pi * rng.uniform(size=3)))
        spec = OrbitSpec(T=T, f0=rng.standard_normal(3), index_set="Z", n_max=20)

        def fail(S):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        with pytest.raises(NumericalError, match="positive definite"):
            unitarity_defect(spec)

    def test_two_sided_window_holds_one_window(self):
        # The window would take 16 D (2N + 1) bytes.  The bounds and the
        # defect read one pass over chunks of it and build no window.
        rng = np.random.default_rng(6)
        D, n_max = 64, 4096
        T = skewed_diagonal(rng, np.exp(2j * np.pi * rng.uniform(size=D)))
        f0 = rng.standard_normal(D) + 1j * rng.standard_normal(D)
        spec = OrbitSpec(T=T, f0=f0, index_set="Z", n_max=n_max)
        tracemalloc.start()
        try:
            frame_bounds(spec)
            unitarity_defect(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "columns" not in spec.__dict__
        assert peak <= 0.25 * 16 * D * (2 * n_max + 1)

    def test_rank_deficient_frame_rejected(self):
        spec = OrbitSpec(T=0.5 * np.eye(2), f0=seed(2), index_set="Z", n_max=10)
        with pytest.raises(NumericalError, match="singular"):
            unitarity_defect(spec)

    def test_diagonal_pair_reads_t_against_square_roots(self, monkeypatch):
        # T and S both diagonal: W = S^{-1/2} T S^{1/2} = T, no factorization.
        t = np.array([0.5, 1.2, np.exp(1j)])
        S = np.diag([1.0, 2.0, 3.0])
        spec = OrbitSpec(T=np.diag(t), f0=np.ones(3), index_set="Z", n_max=6)
        spec = spec._replace(period=(2, np.diag(S)))
        root, inv_root = np.sqrt(S), np.diag(1.0 / np.sqrt(np.diag(S)))
        W = inv_root @ spec.T @ root
        expected = float(np.linalg.norm(W.conj().T @ W - np.eye(3), 2))
        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, None)
        assert unitarity_defect(spec) == pytest.approx(expected, rel=1e-15)
        assert unitarity_defect(spec) == pytest.approx(0.75, rel=1e-15)

    def test_diagonal_singular_frame_rejected(self):
        spec = OrbitSpec(T=np.eye(2), f0=seed(2), index_set="Z", n_max=6)
        spec = spec._replace(period=(2, np.array([1.0, 0.0])))
        with pytest.raises(NumericalError, match="singular"):
            unitarity_defect(spec)


def lower_norms(T: np.ndarray, f: np.ndarray, n: int) -> tuple[float, float]:
    """Smallest of ||T^k f|| / ||f|| and of ||(T*)^k f|| / ||f|| over k <= n, read
    from two orbit windows, as the battery's decay criterion reads them."""
    base = np.linalg.norm(f)
    return tuple(
        float(np.min(np.linalg.norm(orbit_columns(M, f, n), axis=0))) / base
        for M in (T, T.conj().T)
    )


class TestLowerNormCheck:
    """Lower norms of two-sided orbits, from orbit windows and the spec's columns."""

    def test_unitary_keeps_norms(self):
        d = 5
        spec = OrbitSpec(T=cycle_matrix(d), f0=np.ones(d), index_set="Z", n_max=6)
        fwd, adj = lower_norms(spec.T, np.ones(d), 6)
        assert fwd == pytest.approx(1.0, rel=1e-12)
        assert adj == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(np.linalg.norm(spec.columns, axis=0), np.sqrt(d), rtol=1e-12)

    def test_scalar_contraction_minimum(self):
        fwd, adj = lower_norms(np.array([[0.5]]), np.array([2.0]), 3)
        assert fwd == pytest.approx(0.125, rel=1e-12)
        assert adj == pytest.approx(0.125, rel=1e-12)

    def test_matches_matrix_powers(self):
        # A two-sided window holds T^n f0 for -N <= n <= N, its negative side
        # read from the inverse.
        rng = np.random.default_rng(7)
        d = 4
        T = np.eye(d) + 0.3 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        spec = OrbitSpec(T=T, f0=f, index_set="Z", n_max=6)
        powers = [np.linalg.matrix_power(T, n) @ f for n in range(-6, 7)]
        np.testing.assert_allclose(spec.columns, np.stack(powers, axis=1), rtol=1e-12, atol=1e-12)
        mins = [
            min(np.linalg.norm(np.linalg.matrix_power(M, n) @ f) for n in range(7)) / np.linalg.norm(f)
            for M in (T, T.conj().T)
        ]
        assert lower_norms(T, f, 6) == pytest.approx(mins, rel=1e-12)

    def test_one_inverse_for_both_passes(self, monkeypatch):
        # The spec's condition gate forms T^-1 once; every pass and window reuses it.
        rng = np.random.default_rng(11)
        d = 4
        T = np.eye(d) + 0.3 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        calls = []
        real = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda *a: calls.append(1) or real(*a))
        spec = OrbitSpec(T=T, f0=seed(d), index_set="Z", n_max=8)
        frame_bounds(spec), unitarity_defect(spec), spec.columns, frame_bounds(spec.window(3))
        assert len(calls) == 1
        # The backward side against its own inverse, as a second route.
        inverse = real(T)
        backward = [np.linalg.matrix_power(inverse, n) @ seed(d) for n in range(8, 0, -1)]
        np.testing.assert_allclose(spec.columns[:, :8], np.stack(backward, axis=1), rtol=1e-12, atol=1e-12)

    def test_negative_indices_use_inverse(self):
        spec = OrbitSpec(T=np.array([[0.5]]), f0=np.array([1.0]), index_set="Z", n_max=8)
        np.testing.assert_allclose(spec.columns[0], 0.5 ** np.arange(-8.0, 9.0), rtol=1e-15)
