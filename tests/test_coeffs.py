"""Coefficient-window arithmetic: exact identities and random-input laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitframes import (
    BlaschkeProduct,
    CoeffVec,
    inner_product,
    multiply,
    taylor_coeffs,
)

EXACT = 0.0
PAIRING_TOL = 1e-14
UNIMODULAR_TOL = 1e-12


finite_complex = st.complex_numbers(
    max_magnitude=8.0, allow_nan=False, allow_infinity=False
)


def monomial(n, c=1.0):
    return CoeffVec(n, [c])


def dense(a, lo, hi):
    """Coefficients of ``a`` on [lo, hi] as one array (zero outside its window)."""
    out = np.zeros(hi - lo + 1, dtype=np.complex128)
    out[a.lo - lo : a.hi - lo + 1] = a.coeffs
    return out


def same(a, b):
    """Whether two windows hold the same sequence, index by index."""
    lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
    return np.array_equal(dense(a, lo, hi), dense(b, lo, hi))


@st.composite
def coeff_vecs(draw, max_len=16):
    lo = draw(st.integers(min_value=-12, max_value=12))
    vals = draw(st.lists(finite_complex, min_size=1, max_size=max_len))
    return CoeffVec(lo, np.array(vals))


class TestBasics:
    def test_window_bounds(self):
        a = CoeffVec(-2, [1.0, 2.0, 3.0])
        assert a.lo == -2
        assert a.hi == 0
        assert np.array_equal(dense(a, -2, 5), [1.0, 2.0, 3.0, 0, 0, 0, 0, 0])
        assert CoeffVec(4, []).hi == 3

    def test_coeffs_frozen(self):
        a = CoeffVec(0, [1.0, 2.0])
        with pytest.raises((ValueError, RuntimeError)):
            a.coeffs[0] = 7.0


class TestInnerProduct:
    def test_orthonormal_monomials(self):
        assert inner_product(monomial(1), monomial(1)) == 1.0
        assert inner_product(monomial(0), monomial(1)) == 0.0

    def test_disjoint_windows_vanish(self):
        a = CoeffVec(0, [1.0, 1.0])
        b = CoeffVec(5, [1.0])
        assert inner_product(a, b) == EXACT

    @given(coeff_vecs(), coeff_vecs())
    def test_matches_termwise_oracle(self, a, b):
        # Independent route: dictionary of explicit index/value pairs.
        table = {a.lo + i: v for i, v in enumerate(a.coeffs)}
        expected = sum(
            table.get(b.lo + j, 0.0) * np.conj(w) for j, w in enumerate(b.coeffs)
        )
        got = inner_product(a, b)
        assert abs(got - expected) <= PAIRING_TOL * (1.0 + abs(expected))

    @given(coeff_vecs())
    def test_parseval_square_sum(self, a):
        direct = float(np.sum(np.abs(a.coeffs) ** 2))
        assert abs(inner_product(a, a) - direct) <= PAIRING_TOL * (1.0 + direct)


class TestMultiply:
    def test_monomial_shift(self):
        assert same(multiply(monomial(1), monomial(1)), monomial(2))

    @given(coeff_vecs(max_len=10))
    def test_identity_element(self, a):
        assert same(multiply(monomial(0), a), a)

    @given(coeff_vecs(max_len=8), coeff_vecs(max_len=8))
    def test_commutative(self, a, b):
        left = multiply(a, b)
        right = multiply(b, a)
        assert left.lo == right.lo
        assert np.allclose(left.coeffs, right.coeffs, rtol=0.0, atol=1e-9)

    @settings(max_examples=40)
    @given(coeff_vecs(max_len=6), coeff_vecs(max_len=6), coeff_vecs(max_len=6))
    def test_associative(self, a, b, c):
        left = multiply(multiply(a, b), c)
        right = multiply(a, multiply(b, c))
        assert left.lo == right.lo
        scale_ref = 1.0 + float(np.max(np.abs(left.coeffs)))
        assert np.allclose(left.coeffs, right.coeffs, rtol=0.0, atol=1e-8 * scale_ref)

    def test_window_is_sum_of_ranges(self):
        a = CoeffVec(-2, [1.0, 2.0])
        b = CoeffVec(3, [1.0, 0.5, 0.25])
        out = multiply(a, b)
        assert out.lo == 1 and out.hi == 4

    def test_unimodular_factor_normalizes(self):
        # |h| = 1 on the circle, so h * conj(h on the circle) collapses to 1.
        h = taylor_coeffs(BlaschkeProduct(zeros=[0.5]), 60)
        product = multiply(h, CoeffVec(-h.hi, np.conj(h.coeffs[::-1])))
        assert abs(product.coeffs[-product.lo] - 1.0) < UNIMODULAR_TOL
        rest = np.delete(product.coeffs, -product.lo)
        assert float(np.max(np.abs(rest))) < UNIMODULAR_TOL

    @given(coeff_vecs(max_len=10), coeff_vecs(max_len=10))
    def test_multiplication_by_z_is_isometric(self, a, b):
        za = multiply(monomial(1), a)
        zb = multiply(monomial(1), b)
        before = inner_product(a, b)
        after = inner_product(za, zb)
        assert abs(before - after) <= PAIRING_TOL * (1.0 + abs(before))
