"""Model spaces: basis quality, shift structure, projections, orbit decay."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitframes import (
    BlaschkeProduct,
    CoeffVec,
    NumericalError,
    OrbitSpec,
    basis_coordinates,
    build_model_space,
    decay_profile,
    lower_norm_check,
    minimal_polynomial_check,
    orbit,
    project_model,
    projected_monomial,
    taylor_coeffs,
)
from orbitframes import model_space
from test_blaschke import convolution_coeffs

GRAM_TOL = 1e-10
EIGEN_TOL = 1e-8
ROUTE_TOL = 1e-10
ORBIT_TOL = 1e-9
CONTRACTION_SLACK = 1e-8


def monomial(n, c=1.0):
    return CoeffVec(n, [c])


def unit(n, length):
    """The coefficients of z^n on [0, length - 1]."""
    return np.eye(1, length, n, dtype=np.complex128)[0]


@st.composite
def products(draw, max_degree=5, r_max=0.75):
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
    zeros = np.array([r * np.exp(1j * t) for r, t in zip(radii, angles)])
    return BlaschkeProduct(zeros=zeros)


def tm_expansions(zeros: np.ndarray, n_trunc: int) -> np.ndarray:
    """Basis coefficient rows on [0, n_trunc] by series convolution.

    Element k is the normalized Szego kernel of zero k times the product of
    the first k disk factors, expanded by polynomial multiplication; an
    oracle independent of the orbit route the package reads the basis from.
    """
    rows = np.empty((len(zeros), n_trunc + 1), dtype=np.complex128)
    for k, lam in enumerate(zeros):
        szego = math.sqrt(1.0 - abs(lam) ** 2) * np.conj(lam) ** np.arange(n_trunc + 1)
        partial = convolution_coeffs(zeros[:k], 1.0, n_trunc)
        rows[k] = np.convolve(szego, partial)[: n_trunc + 1]
    return rows


def series_projection(zeros: np.ndarray, n_trunc: int, f: np.ndarray) -> np.ndarray:
    """``P f = sum_k <f, e_k> e_k`` on [0, n_trunc] from the series basis rows."""
    rows = tm_expansions(zeros, max(n_trunc, len(f) - 1))
    return (rows[:, : len(f)].conj() @ f) @ rows[:, : n_trunc + 1]


def shift_oracle(zeros: np.ndarray) -> np.ndarray:
    """Closed-form shift matrix in the stored basis.

    Diagonal is the zero list; the strictly lower entries follow from the
    reproducing-kernel expansion of z * e_k against e_i:
    sqrt((1-|l_k|^2)(1-|l_i|^2)) * conj(prod of (-l_j) for k < j < i).
    """
    d = len(zeros)
    out = np.diag(zeros).astype(np.complex128)
    weights = np.sqrt(1.0 - np.abs(zeros) ** 2)
    for i in range(d):
        for k in range(i):
            middle = np.prod(np.conj(-zeros[k + 1 : i])) if i - k > 1 else 1.0
            out[i, k] = weights[i] * weights[k] * middle
    return out


def phi_oracle(zeros: np.ndarray) -> np.ndarray:
    d = len(zeros)
    out = np.empty(d, dtype=np.complex128)
    for k in range(d):
        out[k] = math.sqrt(1.0 - abs(zeros[k]) ** 2) * np.prod(
            np.conj(-zeros[:k])
        )
    return out


class TestReferenceCases:
    def test_h_equals_z(self):
        ms = build_model_space(BlaschkeProduct(zeros=[0.0]))
        assert ms.dim == 1
        assert ms.shift_matrix[0, 0] == 0.0
        assert ms.phi[0] == 1.0
        assert np.array_equal(ms.basis[0].coeffs, unit(0, ms.trunc_n + 1))

    def test_h_equals_z_squared(self):
        ms = build_model_space(BlaschkeProduct(zeros=[0.0, 0.0]))
        assert ms.dim == 2
        assert np.array_equal(ms.shift_matrix, np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert np.array_equal(ms.phi, np.array([1.0, 0.0]))
        assert np.array_equal(ms.basis[0].coeffs, unit(0, ms.trunc_n + 1))
        assert np.array_equal(ms.basis[1].coeffs, unit(1, ms.trunc_n + 1))

    def test_single_factor(self):
        a = 0.6
        ms = build_model_space(BlaschkeProduct(zeros=[a]))
        assert ms.dim == 1
        assert abs(ms.shift_matrix[0, 0] - a) < 1e-15
        assert abs(ms.phi[0] - 0.8) < 1e-15
        # Basis vector is sqrt(1 - a^2) * (1 + a z + a^2 z^2 + ...).
        e = ms.basis[0]
        assert abs(e.coeff(0) - 0.8) < 1e-15
        assert abs(e.coeff(3) - 0.8 * a**3) < 1e-15


class TestValidation:
    def test_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            build_model_space(np.array([0.5]))

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            build_model_space(BlaschkeProduct(zeros=[]))

    def test_rejects_window_below_floor(self):
        with pytest.raises(ValueError, match="below the floor"):
            build_model_space(BlaschkeProduct(zeros=[0.1]), n_trunc=32)

    def test_rejects_window_above_cap(self, monkeypatch):
        monkeypatch.setenv("ORBITFRAMES_MAX_TRUNC", "128")
        with pytest.raises(ValueError):
            build_model_space(BlaschkeProduct(zeros=[0.1]), n_trunc=256)

    def test_boundary_zeros_fail_within_cap(self, monkeypatch):
        # The closed form needs no window, so the build succeeds; the
        # window that reaches the Gram target lies past this tiny ceiling,
        # so everything that materializes it refuses and names it.
        monkeypatch.setenv("ORBITFRAMES_MAX_TRUNC", "96")
        ms = build_model_space(BlaschkeProduct(zeros=[0.9999, -0.9999]))
        assert ms.trunc_n > 96
        assert ms.gram_residual <= GRAM_TOL
        with pytest.raises(NumericalError, match="ceiling 96"):
            ms.basis
        with pytest.raises(NumericalError, match="ceiling 96"):
            project_model(ms, monomial(0))
        with pytest.raises(NumericalError, match="ceiling 96"):
            projected_monomial(ms, 0)


class TestBasisQuality:
    @settings(max_examples=30)
    @given(products())
    def test_gram_near_identity(self, h):
        ms = build_model_space(h)
        rows = np.array([e.coeffs for e in ms.basis])
        gram = rows @ rows.conj().T
        assert np.linalg.norm(gram - np.eye(ms.dim), 2) <= GRAM_TOL
        assert ms.gram_residual <= GRAM_TOL

    @settings(max_examples=30)
    @given(products())
    def test_rows_match_series_oracle(self, h):
        ms = build_model_space(h)
        rows = np.array([e.coeffs for e in ms.basis])
        assert np.max(np.abs(rows - tm_expansions(h.zeros, ms.trunc_n))) <= 1e-14

    def test_rows_match_series_oracle_near_boundary(self):
        h = BlaschkeProduct(zeros=[0.999, -0.5j])
        ms = build_model_space(h)
        rows = np.array([e.coeffs for e in ms.basis])
        assert np.max(np.abs(rows - tm_expansions(h.zeros, ms.trunc_n))) <= 1e-14

    @settings(max_examples=30)
    @given(products())
    def test_dim_matches_degree(self, h):
        ms = build_model_space(h)
        assert ms.dim == h.degree
        assert len(ms.basis) == h.degree

    @settings(max_examples=30)
    @given(products())
    def test_shift_is_contraction(self, h):
        ms = build_model_space(h)
        assert np.linalg.norm(ms.shift_matrix, 2) <= 1.0 + CONTRACTION_SLACK


class TestShiftStructure:
    @settings(max_examples=30)
    @given(products(r_max=0.7))
    def test_closed_form_oracle(self, h):
        ms = build_model_space(h)
        oracle = shift_oracle(h.zeros)
        assert np.max(np.abs(ms.shift_matrix - oracle)) < 1e-9

    @settings(max_examples=30)
    @given(products(r_max=0.7))
    def test_phi_closed_form(self, h):
        ms = build_model_space(h)
        assert np.max(np.abs(ms.phi - phi_oracle(h.zeros))) < 1e-9

    @settings(max_examples=30)
    @given(products())
    def test_eigenvalues_are_zeros(self, h):
        ms = build_model_space(h)
        eigs = np.sort_complex(np.linalg.eigvals(ms.shift_matrix))
        zeros = np.sort_complex(np.asarray(h.zeros))
        assert np.max(np.abs(eigs - zeros)) <= EIGEN_TOL

    def test_eigenvalues_with_repeated_zeros(self):
        h = BlaschkeProduct(zeros=[0.5, 0.5, 0.5])
        ms = build_model_space(h)
        eigs = np.linalg.eigvals(ms.shift_matrix)
        assert np.max(np.abs(eigs - 0.5)) <= EIGEN_TOL

    @settings(max_examples=20)
    @given(products())
    def test_minimal_polynomial_annihilates(self, h):
        ms = build_model_space(h)
        assert minimal_polynomial_check(ms) < 1e-9


class TestProjection:
    def test_monomial_inside_divisor_ideal_dies(self):
        ms = build_model_space(BlaschkeProduct(zeros=[0.0]))
        out = project_model(ms, monomial(1))
        assert norm_of(out) < 1e-14

    def test_h_z2_kills_z3(self):
        ms = build_model_space(BlaschkeProduct(zeros=[0.0, 0.0]))
        out = project_model(ms, monomial(3))
        assert norm_of(out) < 1e-14

    def test_constant_survives(self):
        ms = build_model_space(BlaschkeProduct(zeros=[0.0]))
        out = project_model(ms, monomial(0))
        assert out.lo == 0
        assert np.max(np.abs(out.coeffs - unit(0, ms.trunc_n + 1))) <= 1e-14

    def test_negative_support_pairs_with_nothing(self):
        # e_k has no coefficient below index 0: z^-1 projects to the zero
        # window, and a window across 0 projects as its part at indices >= 0.
        ms = build_model_space(BlaschkeProduct(zeros=[0.3, -0.5j]))
        out = project_model(ms, monomial(-1))
        assert out.lo == 0 and len(out.coeffs) == ms.trunc_n + 1
        assert not out.coeffs.any()
        across = project_model(ms, CoeffVec(-2, [5.0, 7.0j, 1.0, 0.5]))
        inside = project_model(ms, CoeffVec(0, [1.0, 0.5]))
        assert np.array_equal(across.coeffs, inside.coeffs)

    @settings(max_examples=30)
    @given(products(max_degree=4, r_max=0.7), st.integers(min_value=0, max_value=32))
    def test_agrees_with_basis_route(self, h, f_degree):
        ms = build_model_space(h, n_trunc=128)
        rng = np.random.default_rng(f_degree + 17 * h.degree)
        f = CoeffVec(
            0,
            rng.standard_normal(f_degree + 1) + 1j * rng.standard_normal(f_degree + 1),
        )
        direct = project_model(ms, f).coeffs
        exact = series_projection(h.zeros, ms.trunc_n, f.coeffs)
        assert float(np.max(np.abs(direct - exact))) <= ROUTE_TOL

    @settings(max_examples=30)
    @given(products(max_degree=4, r_max=0.7), st.integers(min_value=0, max_value=32))
    def test_coordinates_match_series_oracle(self, h, f_degree):
        # <f, e_k> pairs the series rows with f; the indices below 0 pair with nothing.
        ms = build_model_space(h, n_trunc=128)
        rng = np.random.default_rng(f_degree + 17 * h.degree)
        f = rng.standard_normal(f_degree + 1) + 1j * rng.standard_normal(f_degree + 1)
        exact = tm_expansions(h.zeros, f_degree)[:, : f_degree + 1].conj() @ f
        got = basis_coordinates(ms, CoeffVec(-3, np.concatenate([[2.0, -1.0j, 4.0], f])))
        assert float(np.max(np.abs(got - exact))) <= ROUTE_TOL

    @settings(max_examples=30)
    @given(products(max_degree=4, r_max=0.7))
    def test_idempotent(self, h):
        ms = build_model_space(h, n_trunc=128)
        f = CoeffVec(0, np.linspace(1.0, 0.1, 10))
        once = project_model(ms, f)
        twice = project_model(ms, once)
        assert float(np.max(np.abs(once.coeffs - twice.coeffs))) < 1e-10

    def test_float_accurate_up_to_window_end(self):
        # Degree 20 with zeros out to radius 0.9: float accuracy on the
        # whole window, its last coefficients included.
        radii = np.linspace(0.1, 0.9, 20)
        h = BlaschkeProduct(zeros=radii * np.exp(2.399963j * np.arange(20)))
        ms = build_model_space(h)
        rng = np.random.default_rng(20)
        f = CoeffVec(0, rng.standard_normal(17) + 1j * rng.standard_normal(17))
        direct = project_model(ms, f)
        exact = series_projection(h.zeros, ms.trunc_n, f.coeffs)
        assert direct.lo == 0 and len(direct.coeffs) == ms.trunc_n + 1
        assert np.max(np.abs(direct.coeffs - exact)) <= 1e-13

    def test_window_past_the_ceiling(self, monkeypatch):
        # trunc_n sits at this ceiling: the longest window a projection reads.
        monkeypatch.setenv("ORBITFRAMES_MAX_TRUNC", "128")
        ms = build_model_space(BlaschkeProduct(zeros=[0.9, -0.85j]))
        assert ms.trunc_n == 128
        f = CoeffVec(0, [1.0, -0.5j, 0.25])
        exact = series_projection(ms.h.zeros, ms.trunc_n, f.coeffs)
        assert np.max(np.abs(project_model(ms, f).coeffs - exact)) <= ROUTE_TOL
        column = tm_expansions(ms.h.zeros, ms.trunc_n)[:, 0].conj()
        assert np.max(np.abs(projected_monomial(ms, 0) - column)) <= ROUTE_TOL

    @pytest.mark.parametrize("extra", [-60, 0, 40])
    def test_one_orbit_window(self, extra, monkeypatch):
        # The coordinates and the synthesis read one window of phi's orbit,
        # [0, max(trunc_n, deg f)], the same projection as separate windows.
        ms = build_model_space(BlaschkeProduct(zeros=[0.5, -0.4j, 0.2 + 0.3j]))
        rng = np.random.default_rng(5)
        f = CoeffVec(-2, rng.standard_normal(ms.trunc_n + extra + 3))
        c = basis_coordinates(ms, f)
        rows = model_space.orbit_columns(ms.shift_matrix, ms.phi, ms.trunc_n)
        separate = (c.conj() @ rows).conj()
        windows = []
        route = model_space.orbit_columns
        counted = lambda *a: windows.append(a[2]) or route(*a)  # noqa: E731
        monkeypatch.setattr(model_space, "orbit_columns", counted)
        out = project_model(ms, f)
        assert windows == [max(ms.trunc_n, f.hi)]
        assert len(out.coeffs) == ms.trunc_n + 1
        assert np.max(np.abs(out.coeffs - separate)) <= 1e-14 * np.max(np.abs(separate))

    def test_support_past_the_ceiling_rejected(self, monkeypatch):
        monkeypatch.setenv("ORBITFRAMES_MAX_TRUNC", "128")
        ms = build_model_space(BlaschkeProduct(zeros=[0.3]))
        for route in (project_model, basis_coordinates):
            with pytest.raises(ValueError, match="n_max = 200 exceeds the ceiling 128"):
                route(ms, monomial(200, 0.5))


class TestProjectedMonomial:
    def test_h_z_m1_cancels(self):
        ms = build_model_space(BlaschkeProduct(zeros=[0.0]))
        assert np.max(np.abs(projected_monomial(ms, 1))) < 1e-15

    def test_h_z2_m0(self):
        ms = build_model_space(BlaschkeProduct(zeros=[0.0, 0.0]))
        assert np.array_equal(projected_monomial(ms, 0), np.array([1.0, 0.0]))

    def test_single_factor_norm_profile(self):
        a = 0.6
        ms = build_model_space(BlaschkeProduct(zeros=[a]))
        for m in (0, 1, 5, 10):
            coords = projected_monomial(ms, m)
            expected = (1.0 - a * a) * a ** (2 * m)
            assert abs(float(np.abs(coords[0]) ** 2) - expected) < 1e-12

    def test_out_of_window_rejected(self):
        ms = build_model_space(BlaschkeProduct(zeros=[0.3]), n_trunc=64)
        with pytest.raises(ValueError):
            projected_monomial(ms, 64)

    @settings(max_examples=20)
    @given(products(max_degree=4, r_max=0.7), st.integers(min_value=0, max_value=40))
    def test_matches_projection_route(self, h, m):
        # P z^m = sum_k conj(e_k[m]) e_k, with the coordinates conj(e_k[m]).
        ms = build_model_space(h, n_trunc=128)
        rows = tm_expansions(h.zeros, ms.trunc_n)
        assert np.max(np.abs(projected_monomial(ms, m) - rows[:, m].conj())) < ROUTE_TOL
        proj = project_model(ms, monomial(m)).coeffs
        assert np.max(np.abs(proj - rows[:, m].conj() @ rows)) < ROUTE_TOL

    @pytest.mark.parametrize("d", [2, 5, 20])
    def test_is_the_series_column_to_rounding(self, d):
        zeros = np.linspace(0.1, 0.9, d) * np.exp(2.399963j * np.arange(d))
        ms = build_model_space(BlaschkeProduct(zeros=zeros))
        rows = tm_expansions(zeros, ms.trunc_n)
        for m in (0, 10, ms.trunc_n // 2, ms.trunc_n - d):
            assert np.max(np.abs(projected_monomial(ms, m) - rows[:, m].conj())) <= 1e-15


class TestOrbit:
    def test_nilpotent_orbit(self):
        ms = build_model_space(BlaschkeProduct(zeros=[0.0, 0.0]))
        vecs = orbit(ms, 4)
        assert np.array_equal(vecs[0], np.array([1.0 + 0j, 0.0]))
        assert np.array_equal(vecs[1], np.array([0.0, 1.0 + 0j]))
        assert np.all(vecs[2:] == 0.0)

    def test_single_factor_orbit_is_geometric(self):
        a = 0.6
        ms = build_model_space(BlaschkeProduct(zeros=[a]))
        vecs = orbit(ms, 12)
        expected = np.array([a**n * math.sqrt(1 - a * a) for n in range(13)])
        assert np.max(np.abs(vecs[:, 0] - expected)) < 1e-12

    @settings(max_examples=20)
    @given(products(max_degree=4, r_max=0.7))
    def test_orbit_equals_projected_monomials(self, h):
        ms = build_model_space(h, n_trunc=256)
        vecs = orbit(ms, 24)
        for n in range(25):
            gap = np.max(np.abs(vecs[n] - projected_monomial(ms, n)))
            assert gap <= ORBIT_TOL

    def test_orbit_energy_totals_dimension(self):
        # Squared norms of the projected monomials sum to the model
        # dimension: the trace of the identity the tight orbit resolves.
        ms = build_model_space(BlaschkeProduct(zeros=[0.5, -0.25j]))
        profile = decay_profile(ms, ms.phi, 600)
        assert abs(float(np.sum(profile**2)) - ms.dim) < 1e-12


class TestDecayProfile:
    @settings(max_examples=20)
    @given(products(max_degree=4, r_max=0.7))
    def test_tail_sum_oracle(self, h):
        # ||A^n f||^2 equals the tail square-sum of the negative-index
        # coefficients of f * conj-reflect(h), an independent route.
        ms = build_model_space(h, n_trunc=128)
        rng = np.random.default_rng(h.degree)
        coords = rng.standard_normal(ms.dim) + 1j * rng.standard_normal(ms.dim)
        f = coords @ np.array([e.coeffs for e in ms.basis])
        h_t = taylor_coeffs(h, ms.trunc_n + 8).coeffs
        # Entry j of g is the coefficient at index j - deg(h_t) of f conj(h).
        g = np.convolve(f, h_t[::-1].conj())
        profile = decay_profile(ms, coords, 16)
        for n in range(17):
            tail = float(np.sum(np.abs(g[: len(h_t) - 1 - n]) ** 2))
            assert abs(profile[n] ** 2 - tail) < ORBIT_TOL

    def test_eventually_below_first_value(self):
        ms = build_model_space(BlaschkeProduct(zeros=[0.8, 0.3j]))
        profile = decay_profile(ms, ms.phi, 200)
        assert profile[-1] < profile[0]
        assert profile[-1] < 1e-6

    def test_rejects_wrong_length(self):
        ms = build_model_space(BlaschkeProduct(zeros=[0.3]))
        with pytest.raises(ValueError):
            decay_profile(ms, np.array([1.0, 2.0]), 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "route", ["basis_coordinates", "project_model", "decay_profile", "lower_norm_check"]
)
def test_nonfinite_f_rejected(route, bad):
    ms = build_model_space(BlaschkeProduct(zeros=[0.5, -0.25j]))
    f = np.array([1.0, bad])
    two_sided = OrbitSpec(T=np.diag([0.5, 2.0]), f0=np.ones(2), index_set="Z", n_max=4)
    call = {
        "basis_coordinates": lambda: basis_coordinates(ms, CoeffVec(0, f)),
        "project_model": lambda: project_model(ms, CoeffVec(0, f)),
        "decay_profile": lambda: decay_profile(ms, f, 8),
        "lower_norm_check": lambda: lower_norm_check(two_sided, f, range(-3, 4)),
    }[route]
    with pytest.raises(ValueError, match="f must be finite"):
        call()


def norm_of(v: CoeffVec) -> float:
    if len(v.coeffs) == 0:
        return 0.0
    return float(np.linalg.norm(v.coeffs))


class TestSerialization:
    def test_to_dict_shape(self):
        ms = build_model_space(BlaschkeProduct(zeros=[0.0, 0.0]))
        d = ms.to_dict()
        assert d["dim"] == 2
        assert d["shift_matrix"][1][0] == [1.0, 0.0]
        assert d["phi"][0] == [1.0, 0.0]
        assert d["gram_residual"] <= GRAM_TOL
