"""End-to-end CLI checks: schema gate, reports, side files, exit codes."""

import json

import numpy as np
import pytest

from orbitframes.cli import main

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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_zero_exit_2(self, tmp_path, capsys, bad):
        payload = {"kind": "carleson", "parameters": {"zeros": [[bad, 0.0]]}}
        rc = main(["run", str(write_problem(tmp_path, payload))])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

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
        csv_path = tmp_path / "decay.csv"
        payload = {
            "kind": "model_space",
            "parameters": {
                "zeros": [[0.6, 0.0]],
                "decay_n_max": 8,
                "decay_csv": str(csv_path),
            },
        }
        report = run_to_report(tmp_path, payload, capsys)
        profile = report["results"]["decay_profile"]
        assert len(profile) == 9
        assert profile[1] == pytest.approx(0.6 * profile[0], rel=1e-12)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "n,orbit_norm"
        assert len(lines) == 10


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
        csv_path = tmp_path / "bounds.csv"
        payload = {
            "kind": "orbit_analysis",
            "parameters": {
                "T": [[[0.5, 0.0]]],
                "f0": [[1.0, 0.0]],
                "index_set": "N",
                "n_max": 16,
                "bounds_schedule": [4, 8, 16],
                "bounds_csv": str(csv_path),
            },
        }
        report = run_to_report(tmp_path, payload, capsys)
        rows = report["results"]["bounds_schedule"]
        assert [r["n_max"] for r in rows] == [4, 8, 16]
        uppers = [r["upper_bound"] for r in rows]
        assert uppers[0] < uppers[1] < uppers[2]
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "n_max,lower_bound,upper_bound,parseval_defect"
        assert len(lines) == 4

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


class TestTranslates:
    def test_flat_band_with_csv(self, tmp_path, capsys):
        m = 64
        x = -2 + np.arange(4 * m) / m
        samples = ((x >= 0.0) & (x < 1.0)).astype(float)
        csv_path = tmp_path / "phi.csv"
        payload = {
            "kind": "translates",
            "parameters": {
                "fhat_samples": samples.tolist(),
                "period_count": 2,
                "phi_csv": str(csv_path),
            },
        }
        report = run_to_report(tmp_path, payload, capsys)
        results = report["results"]
        assert results["grid_size"] == m
        assert results["support_measure"] == 1.0
        assert results["ess_inf"] == 1.0
        assert results["ess_sup"] == 1.0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "omega,phi"
        assert len(lines) == m + 1


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


class TestInputGate:
    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        rc = main(["run", str(path)])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

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


class TestVerifyCommand:
    def test_quick_level_passes(self, capsys):
        rc = main(["verify"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "11/11 criteria passed" in captured.out
        assert "FAIL" not in captured.out
