"""Blaschke products: validation, separation constants, coefficient expansions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitframes import (
    BlaschkeProduct,
    NumericalError,
    blaschke,
    carleson_delta,
    delta_capacity,
    taylor_coeffs,
    validate_zeros,
)

SEPARATION_TOL = 1e-14
EXPANSION_TOL = 1e-12
PRODUCT_TOL = 1e-14
CAPACITY_HALF = 76.36141955583651


@st.composite
def disk_zeros(draw, max_degree=6, r_max=0.85):
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    radii = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=r_max),
            min_size=degree,
            max_size=degree,
        )
    )
    angles = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
            min_size=degree,
            max_size=degree,
        )
    )
    return np.array([r * np.exp(1j * t) for r, t in zip(radii, angles)])


def convolution_coeffs(zeros, n_trunc: int) -> np.ndarray:
    """Taylor window [0, n_trunc] by exact polynomial multiplication.

    Each factor ``(z - l) / (1 - conj(l) z)`` expands as ``-l`` followed by
    ``(1 - |l|^2) conj(l)^(m-1)`` at index m >= 1; multiplying the truncated
    expansions is exact on the window.  An oracle independent of the
    compressed-shift orbit the package reads the coefficients from.
    """
    acc = np.zeros(n_trunc + 1, dtype=np.complex128)
    acc[0] = 1.0
    for lam in np.asarray(zeros, dtype=np.complex128):
        fac = np.empty(n_trunc + 1, dtype=np.complex128)
        fac[0] = -lam
        fac[1:] = (1.0 - abs(lam) ** 2) * np.conj(lam) ** np.arange(n_trunc)
        acc = np.convolve(acc, fac)[: n_trunc + 1]
    return acc


class TestValidation:
    def test_accepts_interior_points(self):
        out = validate_zeros([0.0, 0.5j, -0.3])
        assert out.dtype == np.complex128
        assert len(out) == 3

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            validate_zeros([1.0])
        with pytest.raises(ValueError):
            validate_zeros([0.2, np.exp(0.3j)])

    def test_degree(self):
        assert BlaschkeProduct(zeros=[0.1, 0.2]).degree == 2

    @pytest.mark.parametrize(
        "bad", [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0)]
    )
    def test_rejects_non_finite_by_position(self, bad):
        with pytest.raises(ValueError, match="zero 1 is .*finite"):
            validate_zeros([0.2, bad, 0.3])


class TestCarlesonDelta:
    def test_single_zero_is_one(self):
        assert carleson_delta([0.3j]) == 1.0

    def test_duplicate_is_zero(self):
        assert carleson_delta([0.2, 0.2]) == 0.0

    def test_reference_pair(self):
        # |0 - 0.5| / |1 - 0| = 0.5 from both rows.
        assert abs(carleson_delta([0.0, 0.5]) - 0.5) <= SEPARATION_TOL

    @settings(max_examples=60)
    @given(disk_zeros())
    def test_brute_force_oracle(self, zeros):
        lib = carleson_delta(zeros)
        worst = math.inf
        for j in range(len(zeros)):
            prod = 1.0
            for k in range(len(zeros)):
                if k != j:
                    num = abs(zeros[j] - zeros[k])
                    den = abs(1.0 - np.conj(zeros[j]) * zeros[k])
                    prod *= num / den
            worst = min(worst, prod)
        if len(zeros) == 1:
            worst = 1.0
        assert abs(lib - worst) <= SEPARATION_TOL * (1.0 + worst)

    @given(disk_zeros(max_degree=4))
    def test_bounded_by_one(self, zeros):
        assert 0.0 <= carleson_delta(zeros) <= 1.0 + SEPARATION_TOL


class TestDeltaCapacity:
    def test_perfect_separation(self):
        assert delta_capacity(1.0) == 2.0

    def test_exponential_point(self):
        # At delta = exp(-1/2) the parenthesis equals 2, so the value is 4e^2.
        val = delta_capacity(math.exp(-0.5))
        assert abs(val - 4.0 * math.e**2) <= 1e-12 * val

    def test_half_separation(self):
        assert abs(delta_capacity(0.5) - CAPACITY_HALF) <= 1e-10

    def test_rejects_unseparated(self):
        with pytest.raises(ValueError, match="certificate"):
            delta_capacity(0.0)
        with pytest.raises(ValueError):
            delta_capacity(-0.1)
        with pytest.raises(ValueError):
            delta_capacity(1.2)
        with pytest.raises(ValueError, match="nan"):
            delta_capacity(math.nan)

    @pytest.mark.parametrize("delta", [1e-80, 1e-100])
    def test_overflowing_capacity_is_numerical_error(self, delta):
        # 1e-80 overflows the quotient to inf; 1e-100 underflows delta^4 to 0.
        with pytest.raises(NumericalError, match="overflows"):
            delta_capacity(delta)

    @given(st.floats(min_value=1e-3, max_value=0.999))
    def test_decreasing(self, delta):
        assert delta_capacity(delta) > delta_capacity(min(1.0, delta + 1e-3))


class TestEvaluate:
    """h evaluated from its Taylor series, which the package reads from A and phi."""

    def test_modulus_one_on_circle(self):
        b = BlaschkeProduct(zeros=[0.4, -0.2 + 0.3j])
        points = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False))
        vals = np.polyval(taylor_coeffs(b, 256).coeffs[::-1], points)
        assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12

    def test_vanishes_at_zeros(self):
        zeros = np.array([0.4, -0.2 + 0.3j])
        b = BlaschkeProduct(zeros=zeros)
        assert np.max(np.abs(np.polyval(taylor_coeffs(b, 256).coeffs[::-1], zeros))) < 1e-15


def product_values(b: BlaschkeProduct, z: np.ndarray) -> np.ndarray:
    """``prod_j (z - l_j) / (1 - conj(l_j) z)`` at the points z."""
    out = np.ones(z.shape, dtype=complex)
    for lam in b.zeros:
        out = out * (z - lam) / (1.0 - np.conj(lam) * z)
    return out


def compressed_shift_loop(zeros):
    """``_compressed_shift`` as one ``cumprod`` per column, the reference the
    single masked column ``cumprod`` must match bit for bit."""
    d = len(zeros)
    w = blaschke._weights(zeros)
    c = -np.conj(zeros)
    A = np.diag(zeros)
    for j in range(d - 1):
        A[j + 1 :, j] = w[j] * w[j + 1 :] * np.cumprod(np.r_[1.0, c[j + 1 : d - 1]])
    return A, w * np.cumprod(np.r_[1.0, c[: d - 1]])


class TestCompressedShift:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_column_loop(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(250):
            d = int(rng.integers(1, 41))
            zeros = np.sqrt(rng.uniform(0.0, 0.99**2, d)) * np.exp(2j * np.pi * rng.uniform(size=d))
            zeros[rng.uniform(size=d) < 0.15] = 0.0
            A, phi = blaschke._compressed_shift(zeros)
            A_ref, phi_ref = compressed_shift_loop(zeros)
            assert np.array_equal(A, A_ref) and np.array_equal(phi, phi_ref)
            assert np.array_equal(np.signbit(A.view(float)), np.signbit(A_ref.view(float)))


class TestTaylorCoeffs:
    def test_single_factor_series(self):
        # (z - a) / (1 - a z) = -a + (1 - a^2)(z + a z^2 + ...) for real a.
        a = 0.5
        coeffs = taylor_coeffs(BlaschkeProduct(zeros=[a]), 5).coeffs
        expected = np.array([-a] + [(1 - a * a) * a ** (m - 1) for m in range(1, 6)])
        assert np.max(np.abs(coeffs - expected)) < 1e-15

    def test_near_the_circle_matches_mpmath(self):
        # w = sqrt(1 - r^2) is formed as sqrt((1 - r)(1 + r)); the direct form
        # is off by up to 1.8e-9 relative here.  Zeros on the axes keep r exact.
        import mpmath

        eps = np.finfo(float).eps
        rng = np.random.default_rng(0)
        radii = 1.0 - np.logspace(-1, -9, 200) * rng.uniform(0.5, 1.0, 200)
        zeros = radii * np.array([1, -1, 1j, -1j])[rng.integers(0, 4, 200)]
        with mpmath.workdps(40):
            for lam, r in zip(zeros, radii):
                exact = 1 - mpmath.mpf(float(r)) ** 2
                w = blaschke._compressed_shift(np.array([lam]))[1][0]
                h1 = taylor_coeffs(BlaschkeProduct(zeros=[lam]), 1).coeffs[1]
                assert abs(w / mpmath.sqrt(exact) - 1) <= 4 * eps
                assert abs(h1 / exact - 1) <= 8 * eps

    def test_rejects_window_below_degree(self):
        with pytest.raises(ValueError):
            taylor_coeffs(BlaschkeProduct(zeros=[0.1, 0.2, 0.3]), 2)

    @settings(max_examples=40)
    @given(disk_zeros(max_degree=5, r_max=0.6))
    def test_fourier_sampling_oracle(self, zeros):
        # Independent route: sample on a fine circle grid and invert the DFT.
        b = BlaschkeProduct(zeros=zeros)
        n_trunc = 48
        m_grid = 512
        grid = np.exp(2j * math.pi * np.arange(m_grid) / m_grid)
        samples = product_values(b, grid)
        fourier = np.fft.fft(samples)[: n_trunc + 1] / m_grid
        direct = taylor_coeffs(b, n_trunc).coeffs
        assert np.max(np.abs(direct - fourier)) < EXPANSION_TOL

    @given(disk_zeros(max_degree=4, r_max=0.7))
    def test_unit_norm(self, zeros):
        # Inner functions have unit square-sum; tail bounded geometrically.
        coeffs = taylor_coeffs(BlaschkeProduct(zeros=zeros), 256).coeffs
        total = float(np.sum(np.abs(coeffs) ** 2))
        rho = float(np.max(np.abs(zeros)))
        tail = len(zeros) * rho ** (2 * 257) / max(1e-300, 1.0 - rho * rho)
        assert total <= 1.0 + 1e-12
        assert total >= 1.0 - tail - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        disk_zeros(max_degree=24, r_max=0.99),
        st.integers(min_value=0, max_value=576),
    )
    def test_matches_convolution(self, zeros, extra):
        b = BlaschkeProduct(zeros=zeros)
        n_trunc = len(zeros) + extra
        want = convolution_coeffs(zeros, n_trunc)
        got = taylor_coeffs(b, n_trunc)
        assert got.lo == 0 and len(got.coeffs) == n_trunc + 1
        assert np.max(np.abs(got.coeffs - want)) <= PRODUCT_TOL

    @pytest.mark.parametrize("d", [2, 10, 20])
    def test_matches_convolution_at_workload_radii(self, d):
        # Radii evenly spaced on [0.1, 0.9]: powers of the small zeros reach
        # subnormal floats long before n = 4096.
        zeros = np.linspace(0.1, 0.9, d) * np.exp(2.399963j * np.arange(d))
        want = convolution_coeffs(zeros, 4096)
        got = taylor_coeffs(BlaschkeProduct(zeros=zeros), 4096).coeffs
        assert np.max(np.abs(got - want)) <= PRODUCT_TOL

    def test_degree_zero_is_the_constant(self):
        got = taylor_coeffs(BlaschkeProduct(zeros=[]), 6).coeffs
        assert np.array_equal(got, np.r_[1.0, np.zeros(6)])
        assert np.array_equal(taylor_coeffs(BlaschkeProduct(zeros=[]), 0).coeffs, [1.0])

    @pytest.mark.parametrize("d", [1, 3])
    def test_zeros_at_origin_give_a_monomial(self, d):
        got = taylor_coeffs(BlaschkeProduct(zeros=np.zeros(d)), 9).coeffs
        assert np.array_equal(got, np.eye(10)[d])

    def test_one_orbit_and_no_convolution(self, monkeypatch):
        calls = []
        real = blaschke.orbit_columns

        def counted(T, v, n_max):
            calls.append(n_max)
            return real(T, v, n_max)

        def refused(*args, **kwargs):
            raise AssertionError("np.convolve called")

        monkeypatch.setattr(blaschke, "orbit_columns", counted)
        monkeypatch.setattr(np, "convolve", refused)
        taylor_coeffs(BlaschkeProduct(zeros=[0.5, -0.3j, 0.8]), 4096)
        assert calls == [4096]

    def test_windows_past_the_ceiling_raise(self, monkeypatch):
        # One orbit window: up to the ceiling it is the series, past it the
        # ValueError of orbit_columns.
        b = BlaschkeProduct(zeros=[0.9, -0.85j, 0.3 + 0.4j])
        whole = taylor_coeffs(b, 300).coeffs
        monkeypatch.setenv("ORBITFRAMES_MAX_TRUNC", "64")
        for n_trunc in (3, 63, 64):
            got = taylor_coeffs(b, n_trunc).coeffs
            assert np.max(np.abs(got - whole[: n_trunc + 1])) <= 1e-15
            want = convolution_coeffs(b.zeros, n_trunc)
            assert np.max(np.abs(got - want)) <= PRODUCT_TOL
        for n_trunc in (65, 300):
            with pytest.raises(ValueError, match=f"n_max = {n_trunc} exceeds the ceiling 64"):
                taylor_coeffs(b, n_trunc)
