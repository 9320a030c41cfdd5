"""Arc-set grids, two-sided multiplication orbits, translate profiles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitframes import (
    ArcSet,
    build_multiplication_pair,
    commutant_multiplier,
    frame_bounds,
    full_circle,
    grid_parseval_defect,
    translates_phi,
    unitarity_defect,
)

TWO_PI = 2.0 * math.pi
EXACT_PERIOD_TOL = 1e-12
ORACLE_TOL = 1e-12


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

    def test_full_circle_helper(self):
        assert full_circle().measure == 1.0

    def test_to_json_round_trips(self):
        sigma = ArcSet(((0.25, 1.0), (2.0, 3.0)))
        assert ArcSet(tuple(map(tuple, sigma.to_json()))).arcs == sigma.arcs


class TestGrid:
    def test_half_circle_mask_count(self):
        spec = build_multiplication_pair(ArcSet(((0.0, math.pi),)), 8)
        assert spec.dim == 4
        theta = TWO_PI * np.arange(4) / 8
        assert np.array_equal(np.diag(spec.T), np.exp(1j * theta))

    def test_weight(self):
        spec = build_multiplication_pair(full_circle(), 16)
        assert np.all(spec.f0 == math.sqrt(1.0 / 16))
        assert np.linalg.norm(spec.f0) ** 2 == pytest.approx(1.0)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="at least 1"):
            build_multiplication_pair(full_circle(), 0)

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
        spec = build_multiplication_pair(full_circle(), 6, n_max=4)
        P = np.linalg.matrix_power(np.asarray(spec.T), 6)
        assert np.max(np.abs(P - np.eye(6))) < 1e-14


class TestParsevalDefect:
    def test_full_circle_exact(self):
        for n in (7, 40):
            pair = build_multiplication_pair(full_circle(), 8, n_max=n)
            assert grid_parseval_defect(pair, 8) < EXACT_PERIOD_TOL

    def test_masked_one_period_window_exact(self):
        # Odd M lets the symmetric window hold exactly one period, where
        # the root-of-unity sum cancels off the diagonal for any mask.
        pair = build_multiplication_pair(ArcSet(((0.0, math.pi),)), 9, n_max=4)
        defect = grid_parseval_defect(pair, 9)
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
        assert grid_parseval_defect(pair, M) == pytest.approx(
            expected, abs=ORACLE_TOL
        )

    def test_window_doubling_shrinks_defect(self):
        sigma = ArcSet(((0.0, math.pi),))
        defects = [
            grid_parseval_defect(build_multiplication_pair(sigma, 64, n_max=n), 64)
            for n in (64, 128, 256, 512)
        ]
        assert all(b < a for a, b in zip(defects, defects[1:]))

    def test_rejects_negative_window(self):
        with pytest.raises(ValueError, match="nonnegative"):
            build_multiplication_pair(full_circle(), 8, n_max=-1)


class TestUnitarityOnGrid:
    def test_masked_pair_is_unitary(self):
        spec = build_multiplication_pair(ArcSet(((0.0, math.pi),)), 32, n_max=64)
        assert unitarity_defect(spec) < 1e-12

    def test_full_circle_pair_is_unitary(self):
        spec = build_multiplication_pair(full_circle(), 16, n_max=40)
        assert unitarity_defect(spec) < 1e-12


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
        expected = (1.0 - profile.omegas) ** 2 + profile.omegas**2
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

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="multiplier samples"):
            commutant_multiplier(
                build_multiplication_pair(ArcSet(((0.0, math.pi),)), 16), np.ones(5)
            )
