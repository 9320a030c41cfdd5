"""Arc-set grids, two-sided multiplication orbits, translate profiles."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitframes import (
    ArcSet,
    NumericalError,
    OrbitSpec,
    build_multiplication_pair,
    commutant_multiplier,
    frame_bounds,
    synthesis_matrix,
    translates_phi,
    unitarity_defect,
)
from orbitframes.biinfinite import parseval_defect
from orbitframes.cli import run_problem
from orbitframes.config import GRID_MASK_MAX

TWO_PI = 2.0 * math.pi
EXACT_DEFECT_TOL = 1e-12
ORACLE_TOL = 1e-12
CLOSED_FORM_RTOL = 1e-13
FULL_CIRCLE = ArcSet(((0.0, TWO_PI),))

ARC_SETS = {
    "sub_arc": ArcSet(((0.0, math.pi),)),
    "two_arcs": ArcSet(((0.3, 1.2), (3.0, 4.5))),
    "full_circle": FULL_CIRCLE,
}
#: (M, arc set, n_max): windows shorter than, equal to and past one period.
CLOSED_FORM_CASES = [
    (M, name, n)
    for M in (8, 9, 16)
    for name in ARC_SETS
    for n in (0, 3, M, 2 * M + 3)
]


def mask_size(arcs, M):
    return int(np.count_nonzero(ARC_SETS[arcs].contains(TWO_PI * np.arange(M) / M)))


#: Sub-arc windows with fewer residues past whole periods than grid points
#: (r < D): the closed-form cases and the benchmark's grid sizes.
SUB_ARC_CASES = [
    (M, arcs, n)
    for M, arcs, n in CLOSED_FORM_CASES + [(M, a, n) for M in (128, 512) for a in ARC_SETS for n in (M, 4 * M)]
    if arcs != "full_circle" and (2 * n + 1) % M < mask_size(arcs, M)
]


def residue_counts(M, N):
    """Number of window indices n in [-N, N] in each residue class mod M."""
    counts = [0] * M
    for n in range(-N, N + 1):
        counts[n % M] += 1
    return counts


def unitarity_by_square_roots(T, S):
    """||W* W - I||_2 for W = S^{-1/2} T S^{1/2}, square roots from ``eigh``."""
    w, Q = np.linalg.eigh(S)
    root = Q @ np.diag(np.sqrt(w)) @ Q.conj().T
    inv_root = Q @ np.diag(1.0 / np.sqrt(w)) @ Q.conj().T
    W = inv_root @ T @ root
    return float(np.linalg.norm(W.conj().T @ W - np.eye(len(w)), 2))


def brute_force_frame_operator(spec):
    U = synthesis_matrix(spec)
    return U @ U.conj().T


def grid_indices(pair, M):
    """The grid indices k_j of the pair's mask, read from T's diagonal w^(k_j)."""
    return (np.rint(np.angle(np.diagonal(pair.T)) % TWO_PI * M / TWO_PI).astype(int) % M).tolist()


def first_period_operator(pair, M):
    """The sum of the first p = M / gcd(M, k_1, ..., k_D) columns of the pair's
    synthesis matrix; None when the window holds fewer than p + 1 columns."""
    p = M // math.gcd(M, *grid_indices(pair, M))
    if p > 2 * pair.n_max:
        return None
    U = synthesis_matrix(pair)[:, :p]
    return U @ U.conj().T


def assert_close(seeded, oracle):
    assert np.linalg.norm(seeded - oracle) <= CLOSED_FORM_RTOL * np.linalg.norm(oracle)


class TestArcSet:
    def test_touching_arcs_merge(self):
        sigma = ArcSet(((0.0, 1.0), (1.0, 2.0)))
        assert sigma.arcs == ((0.0, 2.0),)

    def test_overlapping_arcs_merge(self):
        sigma = ArcSet(((0.0, 2.0), (1.0, 3.0)))
        assert sigma.arcs == ((0.0, 3.0),)

    def test_disjoint_arcs_sorted(self):
        sigma = ArcSet(((4.0, 5.0), (1.0, 2.0)))
        assert sigma.arcs == ((1.0, 2.0), (4.0, 5.0))

    def test_wrapping_arc_splits(self):
        sigma = ArcSet(((5.5, 7.0),))
        assert len(sigma.arcs) == 2
        assert sigma.arcs[0][0] == 0.0
        assert sigma.arcs[1][1] == pytest.approx(TWO_PI)
        assert sigma.measure == pytest.approx(1.5 / TWO_PI, rel=1e-12)

    def test_overlong_arc_is_full_circle(self):
        sigma = ArcSet(((1.0, 1.0 + 2.5 * TWO_PI),))
        assert sigma.arcs == ((0.0, TWO_PI),)
        assert sigma.measure == 1.0

    def test_zero_measure_rejected(self):
        with pytest.raises(ValueError, match="zero measure"):
            ArcSet(((1.0, 1.0),))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ArcSet(((0.0, math.inf),))

    def test_membership_half_open(self):
        sigma = ArcSet(((0.0, math.pi),))
        inside = sigma.contains([0.0, math.pi / 2, math.pi, TWO_PI])
        assert list(inside) == [True, True, False, True]

    def test_to_json_round_trips(self):
        # The arcs as a biinfinite report writes them build the same arc set.
        sigma = ArcSet(((0.25, 1.0), (2.0, 3.0)))
        problem = {"kind": "biinfinite", "parameters": {"arcs": [[0.25, 1.0], [2.0, 3.0]], "M": 8}}
        arcs = json.loads(json.dumps(run_problem(problem)["results"]["arcs"]))
        assert ArcSet(tuple(map(tuple, arcs))).arcs == sigma.arcs


class TestGrid:
    def test_half_circle_mask_count(self):
        spec = build_multiplication_pair(ArcSet(((0.0, math.pi),)), 8)
        assert spec.dim == 4
        theta = TWO_PI * np.arange(4) / 8
        assert np.array_equal(np.diag(spec.T), np.exp(1j * theta))

    def test_weight(self):
        spec = build_multiplication_pair(FULL_CIRCLE, 16)
        assert np.all(spec.f0 == math.sqrt(1.0 / 16))
        assert np.linalg.norm(spec.f0) ** 2 == pytest.approx(1.0)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="at least 1"):
            build_multiplication_pair(FULL_CIRCLE, 0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=6.0),
        st.floats(min_value=0.05, max_value=3.0),
        st.integers(min_value=16, max_value=512),
    )
    def test_mask_measure_tracks_arc_measure(self, start, width, M):
        sigma = ArcSet(((start, start + width),))
        try:
            count = build_multiplication_pair(sigma, M, n_max=0).dim
        except ValueError as exc:
            assert "no grid point" in str(exc)
            count = 0
        gap = abs(count / M - sigma.measure)
        assert gap <= 2.0 * len(sigma.arcs) / M


class TestMultiplicationPair:
    def test_diagonal_and_seed(self):
        spec = build_multiplication_pair(ArcSet(((0.0, math.pi),)), 8)
        assert spec.dim == 4
        assert spec.index_set == "Z"
        assert spec.n_max == 8
        theta = TWO_PI * np.arange(4) / 8
        assert np.max(np.abs(np.diag(spec.T) - np.exp(1j * theta))) < 1e-15
        assert np.max(np.abs(spec.f0 - math.sqrt(1.0 / 8))) < 1e-16

    def test_rejects_empty_mask(self):
        with pytest.raises(ValueError, match="no grid point"):
            build_multiplication_pair(ArcSet(((0.1, 0.101),)), 8)

    def test_generator_has_exact_period(self):
        spec = build_multiplication_pair(FULL_CIRCLE, 6, n_max=4)
        P = np.linalg.matrix_power(np.asarray(spec.T), 6)
        assert np.max(np.abs(P - np.eye(6))) < 1e-14


class TestParsevalDefect:
    def test_full_circle_exact(self):
        for n in (7, 40):
            pair = build_multiplication_pair(FULL_CIRCLE, 8, n_max=n)
            assert parseval_defect(pair, 8) < EXACT_DEFECT_TOL

    def test_masked_one_period_window_exact(self):
        # Odd M lets the symmetric window hold exactly one period, where
        # the root-of-unity sum cancels off the diagonal for any mask.
        pair = build_multiplication_pair(ArcSet(((0.0, math.pi),)), 9, n_max=4)
        defect = parseval_defect(pair, 9)
        assert defect < 1e-13

    def test_dirichlet_kernel_oracle(self):
        sigma = ArcSet(((0.0, math.pi),))
        M, n = 64, 100
        theta = TWO_PI * np.arange(M) / M
        theta = theta[sigma.contains(theta)]
        pair = build_multiplication_pair(sigma, M, n_max=n)
        assert np.array_equal(np.diag(pair.T), np.exp(1j * theta))
        diff = theta[:, None] - theta[None, :]
        K = np.ones_like(diff)
        off = diff != 0.0
        K[off] = np.sin((2 * n + 1) * diff[off] / 2.0) / (
            (2 * n + 1) * np.sin(diff[off] / 2.0)
        )
        expected = float(np.linalg.norm(K - np.eye(len(theta)), 2))
        assert parseval_defect(pair, M) == pytest.approx(
            expected, abs=ORACLE_TOL
        )

    @pytest.mark.parametrize("arcs, n", [("full_circle", 8), ("full_circle", 21), ("sub_arc", 21)])
    def test_spec_without_closed_forms_agrees(self, arcs, n):
        # A hand-built spec reads its spectrum from its window and has no
        # period operator, so the full circle reads the per-period average
        # of its residue counts, M / (2 n + 1) (q or q + 1), not one period.
        pair = build_multiplication_pair(ARC_SETS[arcs], 8, n_max=n)
        fresh = OrbitSpec(T=pair.T, f0=pair.f0, index_set="Z", n_max=n)
        if arcs == "full_circle":
            counts = np.array(residue_counts(8, n))
            expected = float(np.max(np.abs(8.0 * counts / (2 * n + 1) - 1.0)))
            assert parseval_defect(pair, 8) == 0.0
        else:
            expected = parseval_defect(pair, 8)
        assert parseval_defect(fresh, 8) == pytest.approx(expected, abs=1e-13)

    def test_window_doubling_shrinks_defect(self):
        sigma = ArcSet(((0.0, math.pi),))
        defects = [
            parseval_defect(build_multiplication_pair(sigma, 64, n_max=n), 64)
            for n in (64, 128, 256, 512)
        ]
        assert all(b < a for a, b in zip(defects, defects[1:]))

    def test_rejects_negative_window(self):
        with pytest.raises(ValueError, match="nonnegative"):
            build_multiplication_pair(FULL_CIRCLE, 8, n_max=-1)


class TestClosedForm:
    @pytest.mark.parametrize("M, arcs, n", CLOSED_FORM_CASES)
    def test_frame_operator_matches_columns(self, M, arcs, n):
        pair = build_multiplication_pair(ARC_SETS[arcs], M, n_max=n)
        assert "columns" not in pair.__dict__
        assert_close(pair.frame_operator, brute_force_frame_operator(pair))

    @pytest.mark.parametrize("M, arcs, n", CLOSED_FORM_CASES)
    def test_reseeded_frame_operator_matches_columns(self, M, arcs, n):
        pair = build_multiplication_pair(ARC_SETS[arcs], M, n_max=n)
        rng = np.random.default_rng(M + n)
        psi = rng.uniform(0.5, 2.0, pair.dim) * np.exp(2j * np.pi * rng.uniform(size=pair.dim))
        reseeded = commutant_multiplier(pair, psi)
        assert "columns" not in reseeded.__dict__
        assert_close(reseeded.frame_operator, brute_force_frame_operator(reseeded))

    @pytest.mark.parametrize("M, arcs, n", CLOSED_FORM_CASES)
    def test_period_operator_matches_columns(self, M, arcs, n):
        # The pair hands over its period whatever n_max; its sum is applied
        # when the window holds a whole period.
        pair = build_multiplication_pair(ARC_SETS[arcs], M, n_max=n)
        oracle = first_period_operator(pair, M)
        assert pair.period[0] == M // math.gcd(M, *grid_indices(pair, M))
        if oracle is None:
            assert pair.period_sum is None
        else:
            assert_close(np.diag(pair.period_sum), oracle)

    def test_short_period_mask(self):
        # Grid indices {0, 8} of M = 16 repeat every 2 steps: one period is (2/16) I.
        pair = build_multiplication_pair(ArcSet(((0.0, 0.1), (math.pi, math.pi + 0.1))), 16, n_max=3)
        assert pair.period[0] == 2
        assert np.array_equal(pair.period_sum, np.full(2, 1 / 8))
        assert_close(np.diag(pair.period_sum), first_period_operator(pair, 16))

    def test_full_circle_period_is_identity(self):
        pair = build_multiplication_pair(FULL_CIRCLE, 16, n_max=16)
        assert np.array_equal(pair.period_sum, np.ones(16))
        assert parseval_defect(pair, 16) == 0.0

    def test_operators_are_read_only(self):
        pair = build_multiplication_pair(ArcSet(((0.0, math.pi),)), 16)
        reseeded = commutant_multiplier(pair, np.full(pair.dim, 2.0))
        for array in (pair.frame_operator, pair.period_sum, reseeded.frame_operator, reseeded.period_sum):
            assert not array.flags.writeable

    def test_non_diagonal_pair_rejected(self):
        T = np.array([[1.0, 0.5], [0.0, -1.0]])
        pair = OrbitSpec(T=T, f0=[1.0, 1.0], index_set="Z", n_max=4)
        with pytest.raises(ValueError, match="diagonal"):
            commutant_multiplier(pair, np.ones(2))

    def test_mask_count_gate(self):
        M = GRID_MASK_MAX + 1
        with pytest.raises(ValueError, match=rf"M = {M} masks {M} points"):
            build_multiplication_pair(FULL_CIRCLE, M)


class TestSpectrum:
    @pytest.mark.parametrize("M", [7, 16, 256])
    @pytest.mark.parametrize("window", ["3", "5", "M", "4M"])
    def test_full_circle_spectrum_is_residue_counts(self, M, window):
        N = {"3": 3, "5": 5, "M": M, "4M": 4 * M}[window]
        pair = build_multiplication_pair(FULL_CIRCLE, M, n_max=N)
        counts = np.sort(residue_counts(M, N)).astype(float)
        np.testing.assert_array_equal(pair.spectrum, counts)
        assert not pair.spectrum.flags.writeable
        # The power loop's error grows with the window: about eps per step.
        oracle = np.linalg.eigvalsh(brute_force_frame_operator(pair))
        assert np.max(np.abs(pair.spectrum - oracle)) <= 1e-15 * (2 * N + 1) * oracle[-1]
        report = frame_bounds(pair)
        assert (report.lower_bound, report.upper_bound) == (counts[0], counts[-1])

    def test_short_window_lower_bound_is_exactly_zero(self):
        # 11 window indices on 16 grid points: 5 residues are never hit.
        report = frame_bounds(build_multiplication_pair(FULL_CIRCLE, 16, n_max=5))
        assert report.lower_bound == 0.0
        assert report.upper_bound == 1.0

    @pytest.mark.parametrize("M, arcs, n", CLOSED_FORM_CASES)
    def test_reseeded_spectrum_matches_complex_eigvalsh(self, M, arcs, n):
        # With one residue past whole periods (n = 0 and n = M) the reseeded
        # spectrum holds only its extremes, all that the reports read.
        pair = build_multiplication_pair(ARC_SETS[arcs], M, n_max=n)
        rng = np.random.default_rng(3 * M + n)
        psi = rng.uniform(0.5, 2.0, pair.dim) * np.exp(2j * np.pi * rng.uniform(size=pair.dim))
        reseeded = commutant_multiplier(pair, psi)
        oracle = np.linalg.eigvalsh(psi[:, None] * pair.frame_operator * psi.conj())
        held = [0, -1] if pair.rank_one is not None else slice(None)
        assert np.max(np.abs(reseeded.spectrum - oracle[held])) <= 1e-14 * np.max(np.abs(oracle))
        assert not reseeded.spectrum.flags.writeable

    @pytest.mark.parametrize("M, arcs, n", SUB_ARC_CASES)
    def test_sub_arc_bounds_are_exact(self, M, arcs, n):
        # S_N = q I + (1/M) U_R U_R* with U_R of r < D columns: the lower bound
        # is q, and with r = 1 the upper is q + D / M, rounded once.
        pair = build_multiplication_pair(ARC_SETS[arcs], M, n_max=n)
        q, r = divmod(2 * n + 1, M)
        report = frame_bounds(pair)
        assert report.lower_bound == q
        if r == 1:
            assert report.upper_bound == (q * M + pair.dim) / M
        oracle = np.linalg.eigvalsh(brute_force_frame_operator(pair))
        assert abs(report.upper_bound - oracle[-1]) <= 1e-13 * oracle[-1]

    @pytest.mark.parametrize("M, arcs, n", CLOSED_FORM_CASES)
    def test_parseval_defect_matches_svd_norm(self, M, arcs, n):
        pair = build_multiplication_pair(ARC_SETS[arcs], M, n_max=n)
        if pair.dim == M and n >= M - 1:
            S = np.diag(pair.period_sum)
        else:
            S = (M / (2.0 * n + 1.0)) * brute_force_frame_operator(pair)
        expected = float(np.linalg.norm(S - np.eye(pair.dim), 2))
        assert parseval_defect(pair, M) == pytest.approx(expected, rel=1e-13, abs=1e-13)


def exact_reseeded_extremes(pair, M, psi):
    """Least and largest eigenvalue at 50 digits of the reseeded window sum
    sum_{|n| <= N} (psi t^n f0)(psi t^n f0)*, t the exact M-th roots of unity
    of the mask and f0 = M^(-1/2) 1, psi as its floats."""
    import mpmath

    k = grid_indices(pair, M)
    N = pair.n_max
    with mpmath.workdps(50):
        sums = {}
        for a in k:
            for b in k:
                if a - b not in sums:
                    terms = (mpmath.expjpi(mpmath.mpf(2 * n * (a - b)) / M) for n in range(-N, N + 1))
                    sums[a - b] = mpmath.fsum(terms)
        z = [mpmath.mpc(float(x.real), float(x.imag)) for x in psi]
        S = mpmath.matrix(len(k))
        for i, a in enumerate(k):
            for j, b in enumerate(k):
                S[i, j] = z[i] * mpmath.conj(z[j]) * sums[a - b] / M
        eigs = mpmath.eighe(S, eigvals_only=True)
        return min(eigs), max(eigs)


class TestSecularExtremes:
    @pytest.mark.parametrize("arcs", ["sub_arc", "two_arcs"])
    @pytest.mark.parametrize("n", [0, 32, 128])
    @pytest.mark.parametrize("spread", [3.0, 1e6])
    def test_reseeded_extremes_against_50_digits(self, arcs, n, spread):
        # One residue past whole periods (q = 0, 2, 8): the extremes are roots
        # of the secular equation.  The lower bound holds to its floor; the
        # upper, which carries no floor of its own, to two: the rounding of
        # q |psi_K|^2 and of the root's last addition.
        M = 32
        pair = build_multiplication_pair(ARC_SETS[arcs], M, n_max=n)
        rng = np.random.default_rng([n, int(spread)])
        mods = spread ** rng.uniform(-0.5, 0.5, pair.dim)
        psi = mods * np.exp(2j * np.pi * rng.uniform(size=pair.dim))
        report = frame_bounds(commutant_multiplier(pair, psi))
        low, high = exact_reseeded_extremes(pair, M, psi)
        assert abs(report.lower_bound - low) <= report.lower_bound_floor
        assert abs(report.upper_bound - high) <= 2 * report.lower_bound_floor

    def test_equal_least_moduli_give_a_pole(self):
        # Two masked points with the least |psi|: their difference vector is
        # orthogonal to the rank-one term, so q |psi|^2 is an eigenvalue.
        pair = build_multiplication_pair(ARC_SETS["sub_arc"], 16)
        psi = np.linspace(1.0, 2.0, pair.dim).astype(complex)
        psi[1] = 1j
        reseeded = commutant_multiplier(pair, psi)
        assert reseeded.spectrum[0] == 2.0
        oracle = np.linalg.eigvalsh(brute_force_frame_operator(reseeded))
        assert abs(reseeded.spectrum[-1] - oracle[-1]) <= 1e-14 * oracle[-1]

    def test_one_point_mask(self):
        # D = 1: the one eigenvalue |psi|^2 (q + 1 / M).
        pair = build_multiplication_pair(ArcSet(((0.0, 0.1),)), 16)
        assert pair.dim == 1
        reseeded = commutant_multiplier(pair, [3.0])
        np.testing.assert_array_equal(reseeded.spectrum, [9.0 * 33 / 16] * 2)

    def test_plain_and_reseeded_pairs_build_no_kernel(self, monkeypatch):
        # With r = 1 and a whole period inside the window nothing reads the
        # D x D window sum, so no ifft kernel is built.
        calls = []
        real = np.fft.ifft
        monkeypatch.setattr(np.fft, "ifft", lambda *a, **k: calls.append(1) or real(*a, **k))
        for arcs in ("sub_arc", "two_arcs", "full_circle"):
            pair = build_multiplication_pair(ARC_SETS[arcs], 64)
            frame_bounds(pair), parseval_defect(pair, 64), unitarity_defect(pair)
            reseeded = commutant_multiplier(pair, np.linspace(0.5, 1.5, pair.dim))
            frame_bounds(reseeded)
            assert "frame_operator" not in pair.__dict__
            assert "frame_operator" not in reseeded.__dict__
        assert calls == []


class TestUnitarityOnGrid:
    def test_masked_pair_is_unitary(self):
        spec = build_multiplication_pair(ArcSet(((0.0, math.pi),)), 32, n_max=64)
        assert unitarity_defect(spec) < 1e-12

    def test_window_without_period_reads_its_boundary(self):
        # p = 64 > 2 n_max: no period's sum applies, a dense window sum, and
        # the boundary t^n f0 read without building the window.
        pair = build_multiplication_pair(ARC_SETS["sub_arc"], 64, n_max=30)
        assert pair.period[0] == 64 and pair.period_sum is None
        defect = unitarity_defect(pair)
        assert "columns" not in pair.__dict__
        expected = unitarity_by_square_roots(pair.T, brute_force_frame_operator(pair))
        assert defect == pytest.approx(expected, rel=1e-10)
        assert defect > 0.1

    def test_window_keeps_the_period(self):
        # The period does not depend on n_max: a window cut from a deeper pair
        # reads the defect of the pair built at its depth.
        built = build_multiplication_pair(ARC_SETS["sub_arc"], 16, n_max=40)
        cut = build_multiplication_pair(ARC_SETS["sub_arc"], 16, n_max=64).window(40)
        assert unitarity_defect(cut) == unitarity_defect(built) == 0.0
        assert np.array_equal(cut.period_sum, built.period_sum)

    def test_reseeded_pair_keeps_the_period(self):
        # diag(psi) commutes with T, so one period's sum is |psi|^2 times the pair's.
        pair = build_multiplication_pair(ARC_SETS["sub_arc"], 16, n_max=64)
        reseeded = commutant_multiplier(pair, np.full(pair.dim, 2.0))
        assert unitarity_defect(reseeded) == unitarity_defect(pair) == 0.0
        assert np.array_equal(reseeded.period_sum, 4.0 * pair.period_sum)

    def test_full_circle_pair_is_unitary(self):
        spec = build_multiplication_pair(FULL_CIRCLE, 16, n_max=40)
        assert unitarity_defect(spec) < 1e-12

    @pytest.mark.parametrize("arcs", sorted(ARC_SETS))
    def test_closed_form_period_defect_at_rounding(self, arcs):
        spec = build_multiplication_pair(ARC_SETS[arcs], 256)
        assert unitarity_defect(spec) <= 1e-15

    @pytest.mark.parametrize("M, arcs, n", [c for c in CLOSED_FORM_CASES if c[2] >= c[0]])
    def test_defect_matches_eigh_route(self, M, arcs, n):
        pair = build_multiplication_pair(ARC_SETS[arcs], M, n_max=n)
        t = np.diagonal(pair.T)
        assert unitarity_defect(pair) == float(np.max(np.abs(np.abs(t) ** 2 - 1.0)))
        expected = unitarity_by_square_roots(pair.T, np.diag(pair.period_sum))
        assert unitarity_defect(pair) == pytest.approx(expected, abs=1e-15)


class TestTranslatesPhi:
    def grid(self, P, m):
        return -P + np.arange(2 * P * m) / m

    def test_single_block_indicator_is_flat(self):
        P, m = 4, 512
        x = self.grid(P, m)
        samples = ((x >= 0.0) & (x < 1.0)).astype(float)
        profile = translates_phi(samples, P)
        assert np.max(np.abs(profile.phi - 1.0)) == 0.0
        assert profile.measure == 1.0
        assert profile.ess_inf == 1.0
        assert profile.ess_sup == 1.0

    def test_half_band_measure(self):
        P, m = 4, 512
        x = self.grid(P, m)
        samples = ((x >= 0.0) & (x < 0.5)).astype(float)
        profile = translates_phi(samples, P)
        assert abs(profile.measure - 0.5) <= 2.0 / m
        assert profile.ess_sup == 1.0

    def test_triangle_partition_of_unity(self):
        P, m = 4, 256
        x = self.grid(P, m)
        samples = np.maximum(0.0, 1.0 - np.abs(x))
        profile = translates_phi(samples, P)
        assert np.max(np.abs(profile.phi - 1.0)) < 1e-12
        assert profile.measure == 1.0

    def test_triangle_squared_profile(self):
        P, m = 4, 256
        x = self.grid(P, m)
        samples = np.maximum(0.0, 1.0 - np.abs(x)) ** 2
        profile = translates_phi(samples, P)
        # Folding gives (1-w)^2 + w^2 on [0, 1), pinched to 1/2 at w = 1/2.
        assert profile.ess_inf == pytest.approx(0.5, abs=1e-12)
        assert profile.ess_sup == pytest.approx(1.0, abs=1e-12)
        assert profile.measure == 1.0
        grid_size = profile.phi.shape[0]
        omegas = np.arange(grid_size) / grid_size
        expected = (1.0 - omegas) ** 2 + omegas**2
        assert np.max(np.abs(profile.phi - expected)) < 1e-12

    def test_threshold_excludes_trace_leakage(self):
        P, m = 2, 64
        x = self.grid(P, m)
        samples = ((x >= 0.0) & (x < 0.5)).astype(float)
        samples[x >= 1.0] = 1e-8  # far below threshold relative to peak 1
        profile = translates_phi(samples, P)
        assert abs(profile.measure - 0.5) <= 2.0 / m
        assert profile.threshold == pytest.approx(1e-6, rel=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="identically zero"):
            translates_phi(np.zeros(64), 4)

    @pytest.mark.parametrize("bad", [np.nan, 1.7e308])
    def test_non_finite_fold_rejected(self, bad):
        samples = np.ones(64)
        samples[[3, 35]] = bad  # both land in folding slot 3
        with pytest.raises(ValueError, match="finite profile"):
            translates_phi(samples, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            translates_phi(np.full(64, -1.0), 4)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match="tile"):
            translates_phi(np.ones(10), 4)

    def test_bad_period_count_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            translates_phi(np.ones(8), 0)


class TestCommutantMultiplier:
    def test_unit_multiplier_is_noop(self):
        sigma = ArcSet(((0.0, math.pi),))
        base = build_multiplication_pair(sigma, 16, n_max=16)
        reseeded = commutant_multiplier(base, np.ones(base.dim))
        assert np.array_equal(reseeded.T, base.T)
        assert np.array_equal(reseeded.f0, base.f0)

    def test_constant_two_scales_bounds(self):
        sigma = ArcSet(((0.0, math.pi),))
        pair = build_multiplication_pair(sigma, 16, n_max=16)
        base = frame_bounds(pair)
        moved = frame_bounds(commutant_multiplier(pair, 2.0 * np.ones(8)))
        assert moved.lower_bound == pytest.approx(4.0 * base.lower_bound, rel=1e-12)
        assert moved.upper_bound == pytest.approx(4.0 * base.upper_bound, rel=1e-12)

    def test_bounds_inside_multiplier_envelope(self):
        sigma = ArcSet(((0.0, math.pi),))
        rng = np.random.default_rng(21)
        psi = rng.uniform(0.5, 2.0, 8) * np.exp(2j * np.pi * rng.uniform(size=8))
        pair = build_multiplication_pair(sigma, 16, n_max=16)
        base = frame_bounds(pair)
        moved = frame_bounds(commutant_multiplier(pair, psi))
        lo, hi = np.min(np.abs(psi)) ** 2, np.max(np.abs(psi)) ** 2
        assert moved.lower_bound >= base.lower_bound * lo * (1 - 1e-12)
        assert moved.upper_bound <= base.upper_bound * hi * (1 + 1e-12)

    def test_vanishing_multiplier_rejected_with_location(self):
        sigma = ArcSet(((0.0, math.pi),))
        psi = np.ones(8)
        psi[3] = 1e-9
        pair = build_multiplication_pair(sigma, 16)
        # Point 3 of the masked half circle is the grid angle 2 pi * 3 / 16.
        with pytest.raises(ValueError, match=r"masked point 3 \(angle 1\.178097 rad\)"):
            commutant_multiplier(pair, psi)

    def test_reseeding_runs_no_condition_svd(self, monkeypatch):
        pair = build_multiplication_pair(ArcSet(((0.0, math.pi),)), 16, n_max=16)
        calls = []
        real = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda *a: calls.append(1) or real(*a))
        psi = np.linspace(1.0, 2.0, pair.dim)
        reseeded = commutant_multiplier(pair, psi)
        assert calls == []
        assert reseeded.T is pair.T and not reseeded.f0.flags.writeable
        np.testing.assert_array_equal(reseeded.f0, psi * pair.f0)

    def test_nan_multiplier_rejected_with_location(self):
        pair = build_multiplication_pair(ArcSet(((0.0, math.pi),)), 16)
        psi = np.ones(pair.dim, dtype=np.complex128)
        psi[5] = np.nan
        with pytest.raises(ValueError, match="masked point 5 is"):
            commutant_multiplier(pair, psi)

    def test_overflowing_seed_is_numerical_error(self):
        pair = build_multiplication_pair(ArcSet(((0.0, math.pi),)), 8)
        with pytest.raises(NumericalError, match="column norm"):
            commutant_multiplier(pair, np.full(pair.dim, 1e200))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="multiplier samples"):
            commutant_multiplier(
                build_multiplication_pair(ArcSet(((0.0, math.pi),)), 16), np.ones(5)
            )
