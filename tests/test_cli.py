"""End-to-end CLI checks: intake rule, reports, exit codes."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitframes
from orbitframes import cli, config, orbits
from orbitframes.cli import main

from helpers import power_loop

CAPACITY_HALF = 76.36141955583651


def write_problem(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run_to_report(tmp_path, payload, capsys):
    rc = main(["run", str(write_problem(tmp_path, payload))])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return json.loads(captured.out)


def frame_bounds_by_columns(T, f0, n_max):
    """Ascending eigenvalues of U U* from an explicit power loop."""
    U = power_loop(np.array(T, dtype=complex), np.array(f0, dtype=complex), n_max)
    return np.linalg.eigvalsh(U @ U.conj().T)


@pytest.fixture
def power_loops(monkeypatch):
    """Records the window length of every run of the orbit power loop."""
    calls = []
    real = orbits.orbit_columns

    def counted(T, v, n_max):
        calls.append(n_max)
        return real(T, v, n_max)

    monkeypatch.setattr(orbits, "orbit_columns", counted)
    return calls


class TestCarleson:
    def test_pair_report(self, tmp_path, capsys):
        payload = {
            "kind": "carleson",
            "parameters": {"zeros": [[0.0, 0.0], [0.5, 0.0]]},
        }
        report = run_to_report(tmp_path, payload, capsys)
        assert report["kind"] == "carleson"
        assert report["results"]["delta"] == pytest.approx(0.5, rel=1e-14)
        assert report["results"]["capacity"] == pytest.approx(
            CAPACITY_HALF, rel=1e-12
        )
        assert "log" in report["certificates"]["capacity_formula"]

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "huge-int"]
    )
    def test_non_finite_zero_exit_2(self, tmp_path, capsys, bad):
        payload = {"kind": "carleson", "parameters": {"zeros": [[bad, 0.0]]}}
        rc = main(["run", str(write_problem(tmp_path, payload))])
        assert rc == 2
        err = capsys.readouterr().err
        assert "finite" in err
        assert "zeros" in err

    def test_duplicate_zeros_exit_2(self, tmp_path, capsys):
        payload = {
            "kind": "carleson",
            "parameters": {"zeros": [[0.3, 0.0], [0.3, 0.0]]},
        }
        rc = main(["run", str(write_problem(tmp_path, payload))])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestModelSpace:
    def test_double_zero_report(self, tmp_path, capsys):
        payload = {
            "kind": "model_space",
            "parameters": {"zeros": [[0.0, 0.0], [0.0, 0.0]]},
        }
        report = run_to_report(tmp_path, payload, capsys)
        results = report["results"]
        assert results["dim"] == 2
        assert results["shift_matrix"][1][0] == [1.0, 0.0]
        assert results["gram_residual"] <= 1e-10

    def test_zero_near_boundary_uses_closed_form(self, tmp_path, capsys):
        payload = {"kind": "model_space", "parameters": {"zeros": [[0.9999, 0.0]]}}
        results = run_to_report(tmp_path, payload, capsys)["results"]
        assert results["shift_matrix"] == [[[0.9999, 0.0]]]
        assert results["gram_residual"] <= 1e-10

    def test_decay_profile_and_csv(self, tmp_path, capsys):
        # The profile n -> ||A^n phi|| is in the report, the one file a run writes.
        payload = {
            "kind": "model_space",
            "parameters": {"zeros": [[0.6, 0.0]], "decay_n_max": 8},
        }
        report = run_to_report(tmp_path, payload, capsys)
        profile = report["results"]["decay_profile"]
        assert len(profile) == 9
        assert profile == pytest.approx([0.8 * 0.6**n for n in range(9)], rel=1e-12)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.json"]


class TestOrbitAnalysis:
    def test_recover_scalar_generator(self, tmp_path, capsys):
        payload = {
            "kind": "orbit_analysis",
            "parameters": {
                "T": [[[0.5, 0.0]]],
                "f0": [[1.0, 0.0]],
                "index_set": "N",
                "n_max": 40,
                "recover_generator": True,
            },
        }
        report = run_to_report(tmp_path, payload, capsys)
        results = report["results"]
        assert results["kernel_residual"] < 1e-10
        assert results["generator"][0][0][0] == pytest.approx(0.5, abs=1e-10)
        assert results["generator_consistency"] < 1e-10
        assert results["frame_report"]["tail_estimate"] is not None

    def test_one_orbit_build(self, tmp_path, capsys, power_loops):
        payload = {
            "kind": "orbit_analysis",
            "parameters": {
                "T": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.25, 0.0]]],
                "f0": [[1.0, 0.0], [1.0, 0.0]],
                "index_set": "N",
                "n_max": 40,
                "recover_generator": True,
            },
        }
        run_to_report(tmp_path, payload, capsys)
        assert power_loops == [40]

    def test_schedule_windows_build_no_columns(self, tmp_path, capsys, power_loops):
        # Windows inside n_max read a prefix of the built columns; the long
        # one past it takes the doubling factor.
        payload = {
            "kind": "orbit_analysis",
            "parameters": {
                "T": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.25, 0.0]]],
                "f0": [[1.0, 0.0], [1.0, 0.0]],
                "index_set": "N",
                "n_max": 40,
                "recover_generator": True,
                "bounds_schedule": [8, 40, 4096],
            },
        }
        report = run_to_report(tmp_path, payload, capsys)
        assert power_loops == [40]
        results = report["results"]
        rows = results["bounds_schedule"]
        assert rows[1]["upper_bound"] == results["frame_report"]["upper_bound"]
        expected = frame_bounds_by_columns([[0.5, 0.0], [0.0, 0.25]], [1.0, 1.0], 4096)
        assert rows[2]["upper_bound"] == pytest.approx(expected[-1], rel=1e-13)
        assert rows[2]["lower_bound"] == pytest.approx(expected[0], rel=1e-13)

    def test_schedule_row_is_the_window_report(self, tmp_path, capsys):
        T, f0 = [[0.5, 0.0], [0.1, 0.25]], [1.0, 1.0]
        payload = {
            "kind": "orbit_analysis",
            "parameters": {
                "T": [[[x, 0.0] for x in row] for row in T],
                "f0": [[x, 0.0] for x in f0],
                "index_set": "N",
                "n_max": 40,
                "bounds_schedule": [8, 40, 4096],
            },
        }
        rows = run_to_report(tmp_path, payload, capsys)["results"]["bounds_schedule"]
        spec = orbits.OrbitSpec(T=T, f0=f0, index_set="N", n_max=40)
        for row, m in zip(rows, [8, 40, 4096]):
            assert row == dataclasses.asdict(orbits.frame_bounds(spec.window(m)))
            assert row["tail_estimate"] is not None

    def test_overflowing_block_powers_exit_0(self, tmp_path, capsys):
        # diag(0.5, 2)^(2^k) overflows while the orbit of (1, 0) decays; the
        # 16384 window then takes the columns route, with no inf or nan.
        payload = {
            "kind": "orbit_analysis",
            "parameters": {
                "T": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
                "f0": [[1.0, 0.0], [0.0, 0.0]],
                "index_set": "N",
                "n_max": 8,
                "bounds_schedule": [16384],
            },
        }
        row = run_to_report(tmp_path, payload, capsys)["results"]["bounds_schedule"][0]
        assert row["lower_bound"] == 0.0
        assert row["upper_bound"] == pytest.approx(4 / 3, rel=1e-15)

    def test_two_sided_unitarity(self, tmp_path, capsys):
        payload = {
            "kind": "orbit_analysis",
            "parameters": {
                "T": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
                "f0": [[1.0, 0.0], [0.0, 0.0]],
                "index_set": "Z",
                "n_max": 6,
            },
        }
        report = run_to_report(tmp_path, payload, capsys)
        assert report["results"]["unitarity_defect"] < 1e-12

    def test_bounds_schedule_csv(self, tmp_path, capsys):
        # Each schedule row holds its window's bounds; no other file is written.
        payload = {
            "kind": "orbit_analysis",
            "parameters": {
                "T": [[[0.5, 0.0]]],
                "f0": [[1.0, 0.0]],
                "index_set": "N",
                "n_max": 16,
                "bounds_schedule": [4, 8, 16],
            },
        }
        report = run_to_report(tmp_path, payload, capsys)
        rows = report["results"]["bounds_schedule"]
        assert [r["n_max"] for r in rows] == [4, 8, 16]
        uppers = [r["upper_bound"] for r in rows]
        assert uppers[0] < uppers[1] < uppers[2]
        for row in rows:
            assert {"lower_bound", "upper_bound", "parseval_defect"} <= set(row)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.json"]

    def test_one_step_orbit_recovers_its_generator(self, tmp_path, capsys):
        # Two columns, f0 and T f0: the window alone names T; the test reads no
        # column past it.
        payload = {
            "kind": "orbit_analysis",
            "parameters": {
                "T": [[[0.5, 0.0]]],
                "f0": [[1.0, 0.0]],
                "index_set": "N",
                "n_max": 1,
                "recover_generator": True,
            },
        }
        results = run_to_report(tmp_path, payload, capsys)["results"]
        assert results["kernel_residual"] == 0.0
        assert results["generator"] == [[[0.5, 0.0]]]
        assert results["generator_consistency"] == 0.0

    def test_non_finite_two_sided_operator_exit_2(self, tmp_path, capsys):
        payload = {
            "kind": "orbit_analysis",
            "parameters": {
                "T": [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                "f0": [[1.0, 0.0], [0.0, 0.0]],
                "index_set": "Z",
                "n_max": 4,
            },
        }
        rc = main(["run", str(write_problem(tmp_path, payload))])
        assert rc == 2
        assert "T must be finite" in capsys.readouterr().err

    def test_divergent_orbit_exit_3(self, tmp_path, capsys):
        payload = {
            "kind": "orbit_analysis",
            "parameters": {
                "T": [[[2.0, 0.0]]],
                "f0": [[1.0, 0.0]],
                "index_set": "N",
                "n_max": 60,
            },
        }
        rc = main(["run", str(write_problem(tmp_path, payload))])
        captured = capsys.readouterr()
        assert rc == 3
        assert "numerical error" in captured.err

    def test_divergent_schedule_window_exit_3(self, tmp_path, capsys):
        # 1.05^8000 stays finite in the doubling, but its factor's floor
        # would pass the float range; the window must still end in exit 3.
        payload = {
            "kind": "orbit_analysis",
            "parameters": {
                "T": [[[1.05, 0.0]]],
                "f0": [[1.0, 0.0]],
                "index_set": "N",
                "n_max": 8,
                "bounds_schedule": [8000],
            },
        }
        rc = main(["run", str(write_problem(tmp_path, payload))])
        captured = capsys.readouterr()
        assert rc == 3
        assert "diverges" in captured.err


class TestNormalConstruction:
    def test_containment_flag(self, tmp_path, capsys):
        payload = {
            "kind": "normal_construction",
            "parameters": {
                "zeros": [[0.0, 0.0], [0.5, 0.0]],
                "coeffs": [[1.0, 0.0], [0.8660254037844386, 0.0]],
            },
        }
        report = run_to_report(tmp_path, payload, capsys)
        assert report["results"]["certificate_contains_measured"] is True
        assert report["certificates"]["lower"] == pytest.approx(
            1.0 / CAPACITY_HALF, rel=1e-12
        )
        assert report["certificates"]["upper"] == pytest.approx(
            CAPACITY_HALF, rel=1e-12
        )


class TestPerturbation:
    def test_report_fields(self, tmp_path, capsys):
        payload = {
            "kind": "perturbation",
            "parameters": {
                "zeros": [[0.5, 0.0], [0.75, 0.0], [0.875, 0.0]],
                "coeffs": [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]],
                "k": 0,
                "l": 1,
                "tau": [0.1, 0.0],
            },
        }
        report = run_to_report(tmp_path, payload, capsys)
        results = report["results"]
        assert results["commutator_kk"] == pytest.approx(0.01, rel=1e-12)
        assert results["excluded_tau"] == [pytest.approx(-0.25), pytest.approx(0.0)]
        assert results["perturbed"]["biorthogonality_residual"] < 1e-12
        assert report["certificates"]["lower"] > 0.0

    def test_automatic_depth(self, tmp_path, capsys):
        # max|lambda| = 0.875 and growth near 1: 0.875^(2^9) is the first
        # squared power below eps, so the depth is 2^8 - 1.
        zeros = [0.5, 0.75, 0.875]
        payload = {
            "kind": "perturbation",
            "parameters": {
                "zeros": [[z, 0.0] for z in zeros],
                "coeffs": [[math.sqrt(1.0 - z * z), 0.0] for z in zeros],
                "k": 0,
                "l": 1,
                "tau": [0.1, 0.0],
            },
        }
        assert run_to_report(tmp_path, payload, capsys)["results"]["n_max"] == 255

    def test_commutator_kk_is_the_dense_entry(self, tmp_path, capsys):
        # The report reads |(TT* - T*T)_kk| from row and column k of T.
        zeros = [[0.5, 0.1], [-0.3, 0.6], [0.2, -0.7]]
        payload = {
            "kind": "perturbation",
            "parameters": {
                "zeros": zeros,
                "coeffs": [[1.0, 0.5], [0.3, -1.0], [0.8, 0.0]],
                "k": 2,
                "l": 0,
                "tau": [0.7, -1.3],
                "n_max": 8,
            },
        }
        results = run_to_report(tmp_path, payload, capsys)["results"]
        T = np.diag([complex(*z) for z in zeros])
        T[0, 2] = 0.7 - 1.3j
        dense = abs((T @ T.conj().T - T.conj().T @ T)[2, 2])
        assert results["commutator_kk"] == pytest.approx(dense, rel=1e-14)
        assert results["commutator_kk"] == pytest.approx(abs(0.7 - 1.3j) ** 2, rel=1e-14)

    def test_excluded_tau_exit_2(self, tmp_path, capsys):
        payload = {
            "kind": "perturbation",
            "parameters": {
                "zeros": [[0.5, 0.0], [0.75, 0.0]],
                "coeffs": [[1.0, 0.0], [1.0, 0.0]],
                "k": 0,
                "l": 1,
                "tau": [-0.25, 0.0],
            },
        }
        rc = main(["run", str(write_problem(tmp_path, payload))])
        captured = capsys.readouterr()
        assert rc == 2
        assert "excluded" in captured.err

    def test_tau_past_float_range_diverges_exit_3(self, tmp_path, capsys):
        # The Riesz block stays resolved at this tau (its small eigenvalue
        # no longer cancels to 0), so the orbit itself is what fails.
        payload = {
            "kind": "perturbation",
            "parameters": {
                "zeros": [[0.5, 0.0], [0.75, 0.0]],
                "coeffs": [[1.0, 0.0], [1.0, 0.0]],
                "k": 0,
                "l": 1,
                "tau": [3.4e16, 0.0],
            },
        }
        rc = main(["run", str(write_problem(tmp_path, payload))])
        captured = capsys.readouterr()
        assert rc == 3
        assert "diverges" in captured.err


class TestBiinfinite:
    def test_full_circle(self, tmp_path, capsys):
        payload = {
            "kind": "biinfinite",
            "parameters": {"arcs": [[0.0, 6.283185307179586]], "M": 8},
        }
        report = run_to_report(tmp_path, payload, capsys)
        results = report["results"]
        assert results["mask_count"] == 8
        assert results["parseval_defect"] < 1e-12
        assert results["unitarity_defect"] < 1e-12

    def test_reseeded_multiplier(self, tmp_path, capsys):
        payload = {
            "kind": "biinfinite",
            "parameters": {
                "arcs": [[0.0, 3.141592653589793]],
                "M": 8,
                "n_max": 8,
                "psi": [[2.0, 0.0]] * 4,
            },
        }
        report = run_to_report(tmp_path, payload, capsys)
        results = report["results"]
        assert results["mask_count"] == 4
        assert results["reseeded_within_multiplier_bounds"] is True
        assert results["reseeded_report"]["upper_bound"] == pytest.approx(
            4.0 * results["frame_report"]["upper_bound"], rel=1e-12
        )

    def test_vanishing_multiplier_exit_2(self, tmp_path, capsys):
        payload = {
            "kind": "biinfinite",
            "parameters": {
                "arcs": [[0.0, 3.141592653589793]],
                "M": 8,
                "psi": [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
            },
        }
        rc = main(["run", str(write_problem(tmp_path, payload))])
        captured = capsys.readouterr()
        assert rc == 2
        assert "vanishes" in captured.err

    def test_mask_count_past_gate_exit_2(self, tmp_path, capsys):
        M = config.GRID_MASK_MAX + 1
        payload = {"kind": "biinfinite", "parameters": {"arcs": [[0.0, 6.283185307179586]], "M": M}}
        rc = main(["run", str(write_problem(tmp_path, payload))])
        assert rc == 2
        assert f"M = {M} masks {M} points" in capsys.readouterr().err

    def test_one_orbit_build_per_pair(self, tmp_path, capsys, power_loops):
        # The pair and the reseeded orbit carry their frame operators in
        # closed form: no power loop runs for bounds, defects or psi.
        payload = {
            "kind": "biinfinite",
            "parameters": {
                "arcs": [[0.0, 3.141592653589793]],
                "M": 8,
                "n_max": 12,
                "psi": [[2.0, 0.0]] * 4,
            },
        }
        run_to_report(tmp_path, payload, capsys)
        assert power_loops == []
        # The full circle reads its one period, I, from the pair.
        power_loops.clear()
        payload = {
            "kind": "biinfinite",
            "parameters": {"arcs": [[0.0, 6.283185307179586]], "M": 8, "n_max": 12},
        }
        report = run_to_report(tmp_path, payload, capsys)
        assert report["results"]["mask_count"] == 8
        assert report["results"]["parseval_defect"] == 0.0
        assert power_loops == []


    @pytest.mark.parametrize(
        "arcs, M, psi",
        [
            ([[0.0, 6.283185307179586]], 16, False),
            ([[0.0, 3.141592653589793]], 16, True),
            ([[0.3, 1.2], [3.0, 4.5]], 32, False),
        ],
        ids=["full_circle", "sub_arc_psi", "two_arcs"],
    )
    def test_no_svd_or_eigh(self, tmp_path, capsys, monkeypatch, arcs, M, psi):
        # Diagonal T and period operator: no condition SVD, no eigh for the
        # unitarity defect, no 2-norm SVD.  At n_max = M one residue is left
        # past whole periods (r = 1), so no frame report runs an eigvalsh: the
        # pair's spectrum is q and q + D / M, the reseeded pair's extremes are
        # roots of the secular equation.
        calls = {"svd": 0, "cond": 0, "eigh": 0, "eigvalsh": 0, "norm_2": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in ("svd", "cond", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        real_norm = np.linalg.norm

        def norm(x, ord=None, *args, **kwargs):
            calls["norm_2"] += ord == 2 and np.ndim(x) == 2
            return real_norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", norm)
        params = {"arcs": arcs, "M": M, "n_max": M}
        if psi:
            params["psi"] = [[1.5, 0.5]] * (M // 2 - 1) + [[0.5, 0.0]]
        report = run_to_report(tmp_path, {"kind": "biinfinite", "parameters": params}, capsys)
        assert ("reseeded_report" in report["results"]) == psi
        assert calls == {"svd": 0, "cond": 0, "eigh": 0, "eigvalsh": 0, "norm_2": 0}


class TestTranslates:
    def test_flat_band_with_csv(self, tmp_path, capsys):
        # phi is the profile on omega_i = i / m; no other file is written.
        m = 64
        x = -2 + np.arange(4 * m) / m
        samples = ((x >= 0.0) & (x < 1.0)).astype(float)
        payload = {
            "kind": "translates",
            "parameters": {"fhat_samples": samples.tolist(), "period_count": 2},
        }
        report = run_to_report(tmp_path, payload, capsys)
        results = report["results"]
        assert results["grid_size"] == m
        assert results["support_measure"] == 1.0
        assert results["ess_inf"] == 1.0
        assert results["ess_sup"] == 1.0
        assert results["phi"] == [1.0] * m
        assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.json"]


class TestOutputRouting:
    PAYLOAD = {"kind": "carleson", "parameters": {"zeros": [[0.5, 0.0]]}}

    def test_stdout_by_default(self, tmp_path, capsys):
        rc = main(["run", str(write_problem(tmp_path, self.PAYLOAD))])
        captured = capsys.readouterr()
        assert rc == 0
        assert json.loads(captured.out)["results"]["delta"] == 1.0
        assert "completed carleson" in captured.err

    def test_problem_output_field(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        payload = dict(self.PAYLOAD, output=str(out_path))
        rc = main(["run", str(write_problem(tmp_path, payload))])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == ""
        assert json.loads(out_path.read_text())["kind"] == "carleson"

    def test_out_flag_overrides(self, tmp_path, capsys):
        ignored = tmp_path / "ignored.json"
        chosen = tmp_path / "chosen.json"
        payload = dict(self.PAYLOAD, output=str(ignored))
        rc = main(
            ["run", str(write_problem(tmp_path, payload)), "--out", str(chosen)]
        )
        capsys.readouterr()
        assert rc == 0
        assert chosen.exists()
        assert not ignored.exists()

    def test_reports_byte_stable(self, tmp_path, capsys):
        payload = {
            "kind": "normal_construction",
            "parameters": {
                "zeros": [[0.2, 0.1], [-0.4, 0.3]],
                "coeffs": [[1.0, 0.5], [0.7, -0.2]],
            },
        }
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        problem = write_problem(tmp_path, payload)
        assert main(["run", str(problem), "--out", str(first)]) == 0
        assert main(["run", str(problem), "--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("where", ["--out a directory", "output in a missing directory"])
    def test_unwritable_report_path_exit_2(self, where, tmp_path, capsys):
        reports = tmp_path / "reports"
        if where == "--out a directory":
            reports.mkdir()
            argv = ["run", str(write_problem(tmp_path, self.PAYLOAD)), "--out", str(reports)]
        else:
            payload = dict(self.PAYLOAD, output=str(reports / "report.json"))
            argv = ["run", str(write_problem(tmp_path, payload))]
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write report: ")
        assert sorted(tmp_path.rglob("*")) == before

    def test_closed_stdout_pipe_exit_2(self, tmp_path):
        # A reader that has gone (``| head -c 10``): exit 2 with one line on
        # stderr, and no traceback from the interpreter's last flush.
        src = str(Path(orbitframes.__file__).parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "orbitframes", "run", str(write_problem(tmp_path, self.PAYLOAD))],
                env=dict(os.environ, PYTHONPATH=path),
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot write report: [Errno 32] Broken pipe")
        assert "Traceback" not in proc.stderr


class TestRepeatedMain:
    """``main`` builds its parser once per process and stays reusable."""

    PAYLOAD = TestOutputRouting.PAYLOAD

    def test_parser_built_at_most_once(self, tmp_path, capsys, monkeypatch):
        built = []
        init = cli.argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counted)
        problem = str(write_problem(tmp_path, self.PAYLOAD))
        for _ in range(3):
            assert main(["run", problem, "--out", str(tmp_path / "report.json")]) == 0
        capsys.readouterr()
        assert built.count("orbitframes") <= 1

    def test_usage_error_leaves_the_next_run_intact(self, tmp_path, capsys):
        problem = str(write_problem(tmp_path, self.PAYLOAD))
        with pytest.raises(SystemExit) as exc_info:
            main(["run", problem, "--tol", "1e-8"])
        assert exc_info.value.code == 2
        here, fresh = tmp_path / "here.json", tmp_path / "fresh.json"
        assert main(["run", problem, "--out", str(here)]) == 0
        capsys.readouterr()
        src = str(Path(orbitframes.__file__).parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        subprocess.run(
            [sys.executable, "-m", "orbitframes", "run", problem, "--out", str(fresh)],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            check=True,
        )
        assert here.read_bytes() == fresh.read_bytes()


class TestInputGate:
    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_missing_parameters_exit_2(self, tmp_path, capsys):
        rc = main(["run", str(write_problem(tmp_path, {"kind": "carleson"}))])
        assert rc == 2
        assert "missing a required argument: 'parameters'" in capsys.readouterr().err

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        rc = main(["run", str(path)])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_deeply_nested_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        nested = "[" * 100_000 + "]" * 100_000
        path.write_text(f'{{"kind": "carleson", "parameters": {{"zeros": {nested}}}}}')
        rc = main(["run", str(path)])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, name, value, message",
        [
            (
                "model_space",
                "decay_n_max",
                -1,
                "decay_n_max must be nonnegative, got -1",
            ),
            (
                "orbit_analysis",
                "bounds_schedule",
                [4, -3],
                "bounds_schedule entry must be nonnegative, got -3",
            ),
        ],
    )
    def test_negative_window_names_parameter(
        self, kind, name, value, message, tmp_path, capsys
    ):
        parameters = dict(TestIntakeProperty.BASE[kind], **{name: value})
        payload = {"kind": kind, "parameters": parameters}
        rc = main(["run", str(write_problem(tmp_path, payload))])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, parameters, message",
        [
            (
                "orbit_analysis",
                {"T": [[[2.0, 0.0]]], "f0": [[1.0, 0.0]], "index_set": "N", "n_max": 2000, "bounds_schedule": [-1]},
                "bounds_schedule entry must be nonnegative, got -1",
            ),
            ("model_space", {"zeros": [[0.5, 0.0]], "decay_n_max": -1}, "decay_n_max must be nonnegative, got -1"),
        ],
        ids=["diverging_orbit", "model_space"],
    )
    def test_window_range_checked_before_computation(
        self, kind, parameters, message, tmp_path, capsys, monkeypatch
    ):
        # The orbit of T = 2 overflows (exit 3 once computed); a bad schedule
        # entry or decay length exits 2 before the first library call.
        def no_call(*args, **kwargs):
            raise AssertionError("a library call ran before the range check")

        for name in ("OrbitSpec", "BlaschkeProduct"):
            monkeypatch.setattr(cli, name, no_call)
        rc = main(["run", str(write_problem(tmp_path, {"kind": kind, "parameters": parameters}))])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, parameters, message",
        [
            (
                "orbit_analysis",
                {"index_set": "Z"},
                "invalid problem file: recover_generator needs index_set N",
            ),
            (
                "orbit_analysis",
                {"bounds_schedule": [8], "bounds_csv": "bounds.csv"},
                "got an unexpected keyword argument 'bounds_csv'",
            ),
            (
                "model_space",
                {"decay_csv": "decay.csv"},
                "got an unexpected keyword argument 'decay_csv'",
            ),
        ],
        ids=["recover_generator", "bounds_csv", "decay_csv"],
    )
    def test_work_the_problem_does_not_do_exit_2(
        self, kind, parameters, message, tmp_path, capsys
    ):
        # A generator a two-sided window does not recover, and a CSV side
        # file no run writes: each exits 2 and names its key, writing nothing.
        parameters = dict(TestIntakeProperty.BASE[kind], **parameters)
        for name in ("bounds_csv", "decay_csv"):
            if name in parameters:
                parameters[name] = str(tmp_path / parameters[name])
        payload = {"kind": kind, "parameters": parameters}
        rc = main(["run", str(write_problem(tmp_path, payload))])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.json"]

    def test_unknown_kind_exit_2(self, tmp_path, capsys):
        rc = main(
            ["run", str(write_problem(tmp_path, {"kind": "mystery", "parameters": {}}))]
        )
        assert rc == 2
        assert "invalid problem" in capsys.readouterr().err

    def test_missing_required_parameter_exit_2(self, tmp_path, capsys):
        payload = {"kind": "carleson", "parameters": {}}
        rc = main(["run", str(write_problem(tmp_path, payload))])
        assert rc == 2
        assert "invalid problem" in capsys.readouterr().err

    def test_unexpected_parameter_exit_2(self, tmp_path, capsys):
        payload = {
            "kind": "carleson",
            "parameters": {"zeros": [[0.5, 0.0]], "extra": 1},
        }
        rc = main(["run", str(write_problem(tmp_path, payload))])
        assert rc == 2
        assert "invalid problem" in capsys.readouterr().err

    def test_model_space_constant_is_unknown_key(self, tmp_path, capsys):
        # The model space depends on the zeros alone; no computation reads a constant.
        payload = {
            "kind": "model_space",
            "parameters": {"zeros": [[0.5, 0.0]], "constant": [1.0, 0.0]},
        }
        rc = main(["run", str(write_problem(tmp_path, payload))])
        assert rc == 2
        assert "unexpected keyword argument 'constant'" in capsys.readouterr().err

    NAN = float("nan")

    @pytest.mark.parametrize(
        "kind, parameters, name",
        [
            ("model_space", {"zeros": [[0.5, NAN]]}, "zeros"),
            (
                "perturbation",
                {
                    "zeros": [[0.5, 0.0], [0.75, 0.0]],
                    "coeffs": [[1.0, 0.0], [1.0, 0.0]],
                    "k": 0,
                    "l": 1,
                    "tau": [NAN, 0.0],
                },
                "tau",
            ),
            (
                "translates",
                {"fhat_samples": [0.0, 1.0, NAN, 0.0], "period_count": 1},
                "fhat_samples",
            ),
            (
                "biinfinite",
                {"arcs": [[0.0, 3.141592653589793]], "M": 8, "psi": [[NAN, 0.0]] * 4},
                "psi",
            ),
            ("biinfinite", {"arcs": [[0.0, 10**400]], "M": 8}, "arcs"),
            ("carleson", {"zeros": [[True, 0.0]]}, "zeros"),
            ("carleson", {"zeros": [[0.5, "0"]]}, "zeros"),
            ("carleson", {"zeros": [[0.5, 0.0, 0.0]]}, "zeros"),
            ("carleson", {"zeros": [[[0.5, 0.0]]]}, "zeros"),
            (
                "orbit_analysis",
                {
                    "T": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
                    "f0": [[1.0, 0.0], [0.0, 0.0]],
                    "index_set": "N",
                    "n_max": 4,
                },
                "T",
            ),
        ],
    )
    def test_bad_numeric_payload_names_parameter(
        self, tmp_path, capsys, kind, parameters, name
    ):
        payload = {"kind": kind, "parameters": parameters}
        rc = main(["run", str(write_problem(tmp_path, payload))])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {name} ")

    @pytest.mark.parametrize(
        "kind, parameters, expected",
        [
            (
                "carleson",
                '{"zeros": [[-Infinity, 0.0]]}',
                "zeros must be finite, got -inf",
            ),
            ("carleson", '{"zeros": [[0.5, 0.0]], "extra": NaN}', "invalid problem file"),
            (
                "carleson",
                '{"zeros": NaN}',
                "zeros must be a nested list of numbers of shape (n, 2)",
            ),
            (
                "normal_construction",
                '{"zeros": [[0.5, 0.0]], "coeffs": [[1.0, 0.0]], "n_max": Infinity}',
                "n_max must be an integer, got inf",
            ),
            (
                "orbit_analysis",
                '{"T": [[[0.5, 0.0], [1e400, 0.0]], [[0.0, 0.0], [0.5, 0.0]]], '
                '"f0": [[1.0, 0.0], [1.0, 0.0]], "index_set": "N", "n_max": 4}',
                "T must be finite, got inf",
            ),
        ],
    )
    def test_non_finite_json_number_exit_2(
        self, tmp_path, capsys, kind, parameters, expected
    ):
        path = tmp_path / "problem.json"
        path.write_text(f'{{"kind": "{kind}", "parameters": {parameters}}}')
        rc = main(["run", str(path)])
        assert rc == 2
        assert expected in capsys.readouterr().err

    def test_signed_zeros_survive_intake(self, tmp_path, capsys):
        payload = {
            "kind": "normal_construction",
            "parameters": {
                "zeros": [[-0.0, -0.0], [0.5, 0.0]],
                "coeffs": [[1.0, -0.0], [-0.0, 1.0]],
            },
        }
        spec = run_to_report(tmp_path, payload, capsys)["results"]["spec"]
        pairs = spec["zeros"] + spec["coeffs"]
        signs = [math.copysign(1.0, x) for pair in pairs for x in pair]
        assert signs == [-1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0]

    def test_removed_tol_flag_exit_2(self, tmp_path, capsys):
        payload = {"kind": "carleson", "parameters": {"zeros": [[0.5, 0.0]]}}
        path = write_problem(tmp_path, payload)
        with pytest.raises(SystemExit) as exc_info:
            main(["run", str(path), "--tol", "1e-8"])
        assert exc_info.value.code == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("library", ["jsonschema", "scipy", "mpmath"])
    def test_import_loads_no_schema_library(self, library):
        # numpy is the one runtime dependency; the rest are test-only.
        src = str(Path(orbitframes.__file__).parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        code = f"import sys, orbitframes.cli; print({library!r} in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"

    def test_non_finite_report_exit_3(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "report.json"
        monkeypatch.setitem(
            cli._HANDLERS, "carleson", lambda zeros: ({"delta": math.nan}, {}, {})
        )
        payload = {"kind": "carleson", "parameters": {"zeros": [[0.5, 0.0]]}}
        rc = main(["run", str(write_problem(tmp_path, payload)), "--out", str(out)])
        assert rc == 3
        assert "non-finite number: results.delta (nan)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "results, where",
        [
            ({"delta": [1.0, -math.inf]}, "results.delta[1] (-inf)"),
            ({"a": {"b": [[0.0], [1.0, math.inf]]}}, "results.a.b[1][1] (inf)"),
            ({"a": [{"x": 1.0}, {"y": np.float64(math.nan)}]}, "results.a[1].y (nan)"),
        ],
    )
    def test_non_finite_report_names_path(self, results, where):
        report = {"kind": "carleson", "inputs": {}, "results": results}
        with pytest.raises(orbitframes.NumericalError) as info:
            cli._report_text(report)
        assert str(info.value).endswith(f"non-finite number: {where}")


def _reject_constant(token):
    raise ValueError(f"report holds {token}")


def _same_shape(value, leaf):
    """Strategy for ``value``'s nested list shape with every leaf drawn from ``leaf``."""
    if isinstance(value, list):
        return st.tuples(*(_same_shape(v, leaf) for v in value)).map(list)
    return leaf


class TestIntakeProperty:
    """Any numeric payload, finite or not, and any value of an integer, flag
    or string parameter ends in exit 0, 2 or 3; any size past the truncation
    ceiling or integer given as another JSON type ends in exit 2."""

    BASE = {
        "carleson": {"zeros": [[0.5, 0.0], [-0.3, 0.2]]},
        "model_space": {"zeros": [[0.5, 0.0]], "decay_n_max": 4},
        "orbit_analysis": {
            "T": [[[0.5, 0.0], [0.0, 0.0]], [[0.1, 0.0], [0.3, 0.0]]],
            "f0": [[1.0, 0.0], [1.0, 0.0]],
            "index_set": "N",
            "n_max": 40,
            "recover_generator": True,
        },
        "normal_construction": {
            "zeros": [[0.0, 0.0], [0.5, 0.0]],
            "coeffs": [[1.0, 0.0], [0.8, 0.0]],
            "n_max": 16,
        },
        "perturbation": {
            "zeros": [[0.5, 0.0], [0.75, 0.0]],
            "coeffs": [[1.0, 0.0], [1.0, 0.0]],
            "k": 0,
            "l": 1,
            "tau": [0.1, 0.0],
            "n_max": 16,
        },
        "biinfinite": {
            "arcs": [[0.0, 3.141592653589793]],
            "M": 8,
            "n_max": 8,
            "psi": [[1.0, 0.0]] * 4,
        },
        "translates": {"fhat_samples": [0.0, 1.0, 1.0, 0.5], "period_count": 1},
    }
    NUMERIC = {
        "carleson": ["zeros"],
        "model_space": ["zeros"],
        "orbit_analysis": ["T", "f0"],
        "normal_construction": ["zeros", "coeffs"],
        "perturbation": ["zeros", "coeffs", "tau"],
        "biinfinite": ["arcs", "psi"],
        "translates": ["fhat_samples"],
    }
    #: The integer, flag and string parameters of each kind.
    OTHER = {
        "carleson": [],
        "model_space": ["trunc_n", "decay_n_max"],
        "orbit_analysis": [
            "index_set",
            "n_max",
            "recover_generator",
            "bounds_schedule",
        ],
        "normal_construction": ["n_max"],
        "perturbation": ["k", "l", "n_max"],
        "biinfinite": ["M", "n_max"],
        "translates": ["period_count"],
    }
    FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers())
    LEAF = st.one_of(
        FINITE,
        st.floats(),
        st.sampled_from([10**400, -(10**400), True, None, "1"]),
    )
    TREE = st.recursive(LEAF, lambda inner: st.lists(inner, max_size=3), max_leaves=8)
    SCALAR = st.one_of(
        st.sampled_from([1.0, True, None, "1", -1, 10**400]), st.integers(0, 48)
    )

    @pytest.mark.parametrize("kind", sorted(BASE))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_exit_code_and_report(self, kind, data):
        parameters = dict(self.BASE[kind])
        names = st.sampled_from(self.NUMERIC[kind] + self.OTHER[kind])
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            for name in data.draw(st.sets(names, min_size=1)):
                if name in self.NUMERIC[kind]:
                    value = st.one_of(
                        _same_shape(parameters[name], self.FINITE),
                        _same_shape(parameters[name], self.LEAF),
                        self.TREE,
                    )
                elif name == "bounds_schedule":
                    value = st.one_of(self.SCALAR, st.lists(self.SCALAR, max_size=3))
                else:
                    value = self.SCALAR
                parameters[name] = data.draw(value, label=name)
            path = Path(tmp) / "problem.json"
            path.write_text(json.dumps({"kind": kind, "parameters": parameters}))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["run", str(path)])
        assert rc in (0, 2, 3), err.getvalue()
        if rc == 0:
            json.loads(out.getvalue(), parse_constant=_reject_constant)

    CEILING = 64
    SIZES = [
        ("model_space", "trunc_n"),
        ("model_space", "decay_n_max"),
        ("orbit_analysis", "n_max"),
        ("orbit_analysis", "bounds_schedule"),
        ("normal_construction", "n_max"),
        ("perturbation", "n_max"),
        ("biinfinite", "M"),
        ("biinfinite", "n_max"),
    ]

    @pytest.mark.parametrize("value", [CEILING + 1, 10**12, 10**30])
    @pytest.mark.parametrize("kind, name", SIZES)
    def test_oversized_size_exit_2(
        self, kind, name, value, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("ORBITFRAMES_MAX_TRUNC", str(self.CEILING))
        parameters = dict(self.BASE[kind])
        parameters[name] = [4, value] if name == "bounds_schedule" else value
        payload = {"kind": kind, "parameters": parameters}
        rc = main(["run", str(write_problem(tmp_path, payload))])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"= {value} exceeds the ceiling {self.CEILING}" in err

    @pytest.mark.parametrize("value", [8.0, True, "8", None])
    @pytest.mark.parametrize(
        "kind, name",
        SIZES
        + [("perturbation", "k"), ("perturbation", "l"), ("translates", "period_count")],
    )
    def test_non_integer_exit_2(self, kind, name, value, tmp_path, capsys):
        parameters = dict(self.BASE[kind])
        parameters[name] = [4, value] if name == "bounds_schedule" else value
        payload = {"kind": kind, "parameters": parameters}
        rc = main(["run", str(write_problem(tmp_path, payload))])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"invalid problem file: {name} must be " in err

    def test_float_index_names_it(self, tmp_path, capsys):
        parameters = dict(self.BASE["perturbation"], k=1.0, l=0)
        payload = {"kind": "perturbation", "parameters": parameters}
        rc = main(["run", str(write_problem(tmp_path, payload))])
        err = capsys.readouterr().err
        assert rc == 2
        assert "k must be an integer, got 1.0" in err


def _compact_text(value) -> str:
    """The reference encoding: json's compact text with sorted keys."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2e-308, 1e308, -1e308, 1.7976931348623157e308]),
)
_NUMBERS = st.one_of(_FLOATS, _FLOATS.map(np.float64), st.integers(), st.booleans(), st.none())
_TEXT = st.text(st.one_of(st.sampled_from('[]{},:"\\ \n'), st.characters()), max_size=6)


def _uniform(depth: int):
    """Ragged lists whose numbers all sit ``depth`` brackets deep; any list
    may be empty."""
    if depth == 0:
        return _NUMBERS
    return st.lists(_uniform(depth - 1), max_size=4)


class TestReportEncoding:
    """``_report_text`` writes the bytes of json's compact text with sorted keys."""

    JSON = st.recursive(
        st.one_of(_NUMBERS, _TEXT),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.tuples(inner, inner),
            st.dictionaries(_TEXT, inner, max_size=4),
            st.integers(1, 4).flatmap(_uniform),
        ),
        max_leaves=30,
    )

    @settings(max_examples=400, deadline=None)
    @given(value=JSON)
    def test_matches_json_dumps(self, value):
        assert "".join(cli._report_text(value)) == _compact_text(value)

    @pytest.mark.parametrize("kind", sorted(TestIntakeProperty.BASE))
    def test_reports_of_every_kind(self, kind):
        parameters = TestIntakeProperty.BASE[kind]
        report = cli.run_problem({"kind": kind, "parameters": parameters})
        assert "".join(cli._report_text(report)) == _compact_text(report)

    def test_dense_report_skips_pure_encoder(self, monkeypatch):
        """The D = 200 two-sided report's arrays never reach the pure encoder."""
        rng = np.random.default_rng(0)
        parameters = {
            "T": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
            "f0": [[1.0, 0.0], [1.0, 0.0]],
            "index_set": "Z",
            "n_max": 8,
        }
        report = cli.run_problem({"kind": "orbit_analysis", "parameters": parameters})
        report["inputs"]["T"] = rng.standard_normal((200, 200, 2)).tolist()
        report["inputs"]["f0"] = rng.standard_normal((200, 2)).tolist()
        expected = _compact_text(report)

        def refuse(*args, **kwargs):
            raise AssertionError("the pure-Python encoder ran")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        with pytest.raises(AssertionError, match="pure-Python"):
            json.JSONEncoder(indent=2).iterencode([1.0])
        assert "".join(cli._report_text(report)) == expected

    def test_report_written_in_pieces(self, tmp_path, monkeypatch):
        # A 200 x 200 matrix of [re, im] pairs is encoded row by row and
        # written piece by piece: no string as long as the report is formed.
        # The problem's parameters text "{}" is also the canonical text of {}.
        rng = np.random.default_rng(1)
        report = {
            "kind": "orbit_analysis",
            "inputs": {},
            "results": {"T": rng.standard_normal((200, 200, 2)).tolist()},
        }
        monkeypatch.setattr(cli, "run_problem", lambda problem: report)
        problem = write_problem(tmp_path, {"kind": "orbit_analysis", "parameters": {}})
        out = tmp_path / "report.json"
        tracemalloc.start()
        try:
            assert main(["run", str(problem), "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.read_text(encoding="utf-8") == _compact_text(report)
        assert peak <= 1.3 * out.stat().st_size

    def test_stderr_times_the_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        payload = {"kind": "carleson", "parameters": {"zeros": [[0.5, 0.0]]}}
        assert main(["run", str(write_problem(tmp_path, payload)), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "s (read " in err and " s, report " in err
        assert f" s, {out.stat().st_size} bytes)" in err

    def test_stderr_times_the_read(self, tmp_path, capsys, monkeypatch):
        read = cli._read_problem

        def slow_read(path):
            time.sleep(0.05)
            return read(path)

        monkeypatch.setattr(cli, "_read_problem", slow_read)
        payload = {"kind": "carleson", "parameters": {"zeros": [[0.5, 0.0]]}}
        problem = str(write_problem(tmp_path, payload))
        assert main(["run", problem, "--out", str(tmp_path / "report.json")]) == 0
        err = capsys.readouterr().err
        fields = re.fullmatch(
            r"completed carleson in (\S+) s \(read (\S+) s, report (\S+) s, \d+ bytes\)\n", err
        )
        assert fields, err
        run, read, _ = map(float, fields.groups())
        assert read >= 0.05 > run


def _read_error(text: str) -> str:
    """The message ``json.loads`` gives for ``text``, as ``run`` prints it."""
    with pytest.raises(ValueError) as info:
        json.loads(text)
    return f"error: cannot read problem file: {info.value}\n"


_PROBLEM = {"kind": "carleson", "parameters": {"zeros": [[0.5, 0.0]]}}


class TestInputsText:
    """A CLI report's ``inputs`` is the problem's ``parameters`` text as read."""

    @pytest.mark.parametrize("kind", sorted(TestIntakeProperty.BASE))
    def test_report_splices_the_parameters_text(self, kind, tmp_path, capsys):
        parameters = TestIntakeProperty.BASE[kind]
        problem = {"kind": kind, "parameters": parameters}
        out = tmp_path / "report.json"
        assert main(["run", str(write_problem(tmp_path, problem)), "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        report = json.loads(text)
        assert report["inputs"] == parameters
        assert f'"inputs":{json.dumps(parameters)},' in text
        assert _compact_text(report) == "".join(cli._report_text(cli.run_problem(problem)))

    def test_text_is_written_as_it_is(self):
        pieces = cli._report_text({"inputs": cli._Text('{"a":  1.50}'), "kind": "x"})
        assert "".join(pieces) == '{"inputs":{"a":  1.50},"kind":"x"}\n'

    SEPARATORS = st.tuples(
        st.sampled_from([",", ", ", " ,\n "]), st.sampled_from([":", ": ", " :\t"])
    )
    LAYOUT = st.fixed_dictionaries(
        {
            "indent": st.one_of(st.none(), st.integers(0, 4), st.just("\t")),
            "separators": SEPARATORS,
            "sort_keys": st.booleans(),
        }
    )

    @settings(max_examples=40, deadline=None)
    @given(
        outer=SEPARATORS,
        inner=LAYOUT,
        order=st.permutations(["kind", "parameters"]),
        names=st.permutations(["zeros", "coeffs", "n_max"]),
        decoy=st.one_of(st.none(), st.integers(), st.dictionaries(st.text(max_size=3), st.integers())),
    )
    def test_any_layout_gives_the_same_report(self, outer, inner, order, names, decoy):
        base = TestIntakeProperty.BASE["normal_construction"]
        problem = {"kind": "normal_construction", "parameters": {name: base[name] for name in names}}
        items = [(key, json.dumps(problem[key], **inner)) for key in order]
        # The key repeats: the first "parameters" is a decoy, and the last one wins.
        items.insert(order.index("parameters"), ("parameters", json.dumps(decoy, **inner)))
        comma, colon = outer
        text = "{" + comma.join(json.dumps(key) + colon + value for key, value in items) + "}\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "problem.json"
            path.write_text(text, encoding="utf-8")
            out = Path(tmp) / "report.json"
            with contextlib.redirect_stderr(io.StringIO()):
                assert main(["run", str(path), "--out", str(out)]) == 0
            report = json.loads(out.read_text(encoding="utf-8"))
        assert report == json.loads("".join(cli._report_text(cli.run_problem(problem))))

    @pytest.mark.parametrize(
        "text, expected",
        [
            (json.dumps(_PROBLEM) + " x", _read_error(json.dumps(_PROBLEM) + " x")),
            ("\ufeff" + json.dumps(_PROBLEM), _read_error("\ufeff" + json.dumps(_PROBLEM))),
            ("[1, 2]", "error: invalid problem file: problem must be an object, got [1, 2]\n"),
            (json.dumps(_PROBLEM)[:-8], _read_error(json.dumps(_PROBLEM)[:-8])),
            (
                '{"kind": "orbit_analysis", "parameters": {"T": [[[0.5, NaN]]], '
                '"f0": [[1.0, 0.0]], "index_set": "N", "n_max": 4}}',
                "error: T must be finite, got nan\n",
            ),
        ],
        ids=["trailing data", "byte order mark", "top-level array", "truncated", "NaN in T"],
    )
    def test_unreadable_file_exit_2(self, text, expected, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == expected
        assert not out.exists()


class TestRunProblem:
    """``run_problem`` is a function of the problem alone; the report is the
    one file a run writes."""

    @pytest.mark.parametrize("kind", sorted(TestIntakeProperty.BASE))
    def test_writes_no_file_and_returns_the_report(self, kind, tmp_path, monkeypatch, capsys):
        problem = {"kind": kind, "parameters": TestIntakeProperty.BASE[kind]}
        workdir = tmp_path / "work"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        report = cli.run_problem(problem)
        assert list(workdir.iterdir()) == []
        loaded = run_to_report(tmp_path, problem, capsys)
        del report["inputs"], loaded["inputs"]
        assert json.loads(json.dumps(report)) == loaded


class TestTolerances:
    @pytest.mark.parametrize("kind", sorted(TestIntakeProperty.BASE))
    def test_block_holds_registry_constants(self, kind):
        parameters = TestIntakeProperty.BASE[kind]
        report = cli.run_problem({"kind": kind, "parameters": parameters})
        tolerances = report["tolerances"]
        numeric = {key: v for key, v in tolerances.items() if not isinstance(v, str)}
        assert numeric == {key: getattr(config, key.upper()) for key in numeric}


class TestVerifyCommand:
    def test_quick_level_passes(self, capsys):
        rc = main(["verify"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "11/11 criteria passed" in captured.out
        assert "FAIL" not in captured.out

    @pytest.mark.parametrize("seed", ["-1", "-5000", "1.5", "x"])
    def test_seed_not_a_non_negative_integer_exit_2(self, seed, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_battery", lambda seed: pytest.fail("the battery ran"))
        with pytest.raises(SystemExit) as info:
            main(["verify", "--seed", seed])
        assert info.value.code == 2
        assert f"--seed: must be a non-negative integer, got {seed!r}" in capsys.readouterr().err

    def test_seed_reaches_the_battery(self, monkeypatch, capsys):
        seeds = []
        monkeypatch.setattr(cli, "run_battery", lambda seed: seeds.append(seed) or [])
        assert main(["verify", "--seed", "5000"]) == 0
        assert seeds == [5000]
