"""Batch front end: declarative JSON problems in, JSON reports out.

Problem files name a kind, kind-specific parameters, and optionally an
output path.  Parameters are schema-validated before any computation;
complex numbers travel as [re, im] pairs.  Reports are byte-stable for
identical inputs (sorted keys, default float repr, no timestamps); wall
time goes to stderr as a log line instead of into the report.  CSV side
outputs (decay profiles, periodization profiles, bound-vs-truncation
curves) are written when the problem asks for them.

Exit codes: 0 success, 1 failed verification criteria, 2 input or
validation error, 3 numerical error from an inner module.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import jsonschema
import numpy as np

from .acceptance import format_line, run_battery
from .biinfinite import (
    SUPPORT_THRESHOLD_REL,
    ArcSet,
    build_grid,
    build_multiplication_pair,
    commutant_multiplier,
    parseval_defect,
    translates_phi,
)
from .blaschke import BlaschkeProduct, carleson_delta, delta_capacity
from .constructions import (
    EXCLUDED_TAU_RTOL,
    NormalOrbitSpec,
    build_normal_pair,
    certificate_bounds,
    excluded_tau,
    perturb_tau,
)
from .errors import NumericalError
from .model_space import GRAM_TARGET, build_model_space, decay_profile
from .orbits import (
    OrbitSpec,
    frame_bounds,
    generator_closure,
    kernel_shift_invariance,
    synthesis_matrix,
    unitarity_defect,
)

DEFAULT_TOL = 1e-10

_COMPLEX = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}
_COMPLEX_LIST = {"type": "array", "items": _COMPLEX, "minItems": 1}
_COMPLEX_MATRIX = {
    "type": "array",
    "items": {"type": "array", "items": _COMPLEX, "minItems": 1},
    "minItems": 1,
}
_ARC = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

_PARAMETER_SCHEMAS = {
    "carleson": {
        "type": "object",
        "required": ["zeros"],
        "additionalProperties": False,
        "properties": {"zeros": _COMPLEX_LIST},
    },
    "model_space": {
        "type": "object",
        "required": ["zeros"],
        "additionalProperties": False,
        "properties": {
            "zeros": _COMPLEX_LIST,
            "constant": _COMPLEX,
            "trunc_n": {"type": "integer", "minimum": 1},
            "decay_n_max": {"type": "integer", "minimum": 0},
            "decay_csv": {"type": "string"},
        },
    },
    "orbit_analysis": {
        "type": "object",
        "required": ["T", "f0", "index_set", "n_max"],
        "additionalProperties": False,
        "properties": {
            "T": _COMPLEX_MATRIX,
            "f0": _COMPLEX_LIST,
            "index_set": {"enum": ["N", "Z"]},
            "n_max": {"type": "integer", "minimum": 0},
            "recover_generator": {"type": "boolean"},
            "bounds_schedule": {
                "type": "array",
                "items": {"type": "integer", "minimum": 0},
                "minItems": 1,
            },
            "bounds_csv": {"type": "string"},
        },
    },
    "normal_construction": {
        "type": "object",
        "required": ["zeros", "coeffs"],
        "additionalProperties": False,
        "properties": {
            "zeros": _COMPLEX_LIST,
            "coeffs": _COMPLEX_LIST,
            "n_max": {"type": "integer", "minimum": 0},
            "tail_energy": {"type": "number", "minimum": 0},
        },
    },
    "perturbation": {
        "type": "object",
        "required": ["zeros", "coeffs", "k", "l", "tau"],
        "additionalProperties": False,
        "properties": {
            "zeros": _COMPLEX_LIST,
            "coeffs": _COMPLEX_LIST,
            "k": {"type": "integer", "minimum": 0},
            "l": {"type": "integer", "minimum": 0},
            "tau": _COMPLEX,
            "n_max": {"type": "integer", "minimum": 0},
        },
    },
    "biinfinite": {
        "type": "object",
        "required": ["arcs", "M"],
        "additionalProperties": False,
        "properties": {
            "arcs": {"type": "array", "items": _ARC, "minItems": 1},
            "M": {"type": "integer", "minimum": 1},
            "n_max": {"type": "integer", "minimum": 0},
            "psi": _COMPLEX_LIST,
        },
    },
    "translates": {
        "type": "object",
        "required": ["fhat_samples", "period_count"],
        "additionalProperties": False,
        "properties": {
            "fhat_samples": {
                "type": "array",
                "items": {"type": "number"},
                "minItems": 2,
            },
            "period_count": {"type": "integer", "minimum": 1},
            "phi_csv": {"type": "string"},
        },
    },
}

_PROBLEM_SCHEMA = {
    "type": "object",
    "required": ["kind", "parameters"],
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": sorted(_PARAMETER_SCHEMAS)},
        "parameters": {"type": "object"},
        "output": {"type": "string"},
    },
}

_SEPARATION_FORMULA = (
    "inf_j prod_{k != j} |(lambda_j - lambda_k) / (1 - conj(lambda_j) lambda_k)|"
)
_CAPACITY_FORMULA = "2/delta^4 * (1 - 2*log(delta))"


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _clist(pairs) -> np.ndarray:
    return np.array([_c(p) for p in pairs], dtype=np.complex128)


def _cmatrix(rows) -> np.ndarray:
    return np.array([[_c(p) for p in row] for row in rows], dtype=np.complex128)


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _pairs(vec) -> list:
    return [_pair(z) for z in np.asarray(vec).reshape(-1)]


def _pair_matrix(mat) -> list:
    return [[_pair(z) for z in row] for row in np.asarray(mat)]


def _write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
            fh.write("\n")


def _run_carleson(params: dict, tol: float) -> tuple[dict, dict, dict]:
    zeros = _clist(params["zeros"])
    delta = carleson_delta(zeros)
    capacity = delta_capacity(delta)
    results = {"zero_count": len(zeros), "delta": delta, "capacity": capacity}
    certificates = {
        "separation_formula": _SEPARATION_FORMULA,
        "capacity_formula": _CAPACITY_FORMULA,
    }
    return results, certificates, {}


def _run_model_space(params: dict, tol: float) -> tuple[dict, dict, dict]:
    constant = _c(params["constant"]) if "constant" in params else 1.0
    h = BlaschkeProduct(zeros=_clist(params["zeros"]), constant=constant)
    ms = build_model_space(h, n_trunc=params.get("trunc_n"))
    results = ms.to_dict()
    if "decay_n_max" in params:
        profile = decay_profile(ms, ms.phi, params["decay_n_max"])
        results["decay_profile"] = [float(x) for x in profile]
        if "decay_csv" in params:
            _write_csv(
                params["decay_csv"],
                ["n", "orbit_norm"],
                [(n, float(x)) for n, x in enumerate(profile)],
            )
    return results, {}, {"gram_target": GRAM_TARGET}


def _run_orbit_analysis(params: dict, tol: float) -> tuple[dict, dict, dict]:
    spec = OrbitSpec(
        T=_cmatrix(params["T"]),
        f0=_clist(params["f0"]),
        index_set=params["index_set"],
        n_max=params["n_max"],
    )
    results = {"frame_report": frame_bounds(spec).to_dict()}
    if spec.index_set == "N":
        U = synthesis_matrix(spec)
        results["kernel_residual"] = kernel_shift_invariance(U, tol)
        if params.get("recover_generator"):
            recovered = generator_closure(U, tol)
            gaps = np.linalg.norm(recovered @ U[:, :-1] - U[:, 1:], axis=0)
            results["generator"] = _pair_matrix(recovered)
            results["generator_consistency"] = float(gaps.max()) if gaps.size else 0.0
    else:
        results["unitarity_defect"] = unitarity_defect(spec)
    if "bounds_schedule" in params:
        rows = []
        for m in params["bounds_schedule"]:
            rep = frame_bounds(
                OrbitSpec(T=spec.T, f0=spec.f0, index_set=spec.index_set, n_max=m)
            )
            rows.append(
                {
                    "n_max": m,
                    "lower_bound": rep.lower_bound,
                    "upper_bound": rep.upper_bound,
                    "parseval_defect": rep.parseval_defect,
                }
            )
        results["bounds_schedule"] = rows
        if "bounds_csv" in params:
            _write_csv(
                params["bounds_csv"],
                ["n_max", "lower_bound", "upper_bound", "parseval_defect"],
                [
                    (r["n_max"], r["lower_bound"], r["upper_bound"], r["parseval_defect"])
                    for r in rows
                ],
            )
    return results, {}, {"kernel_tol": tol}


def _run_normal_construction(params: dict, tol: float) -> tuple[dict, dict, dict]:
    spec = NormalOrbitSpec(
        zeros=_clist(params["zeros"]),
        coeffs=_clist(params["coeffs"]),
        tail_energy=params.get("tail_energy"),
    )
    pair = build_normal_pair(spec, params.get("n_max"))
    rep = frame_bounds(pair)
    lo, hi = certificate_bounds(spec)
    tail = rep.tail_estimate or 0.0
    contained = rep.lower_bound >= lo - tail - tol and rep.upper_bound <= hi + tol
    results = {
        "spec": spec.to_dict(),
        "n_max": pair.n_max,
        "frame_report": rep.to_dict(),
        "certificate_contains_measured": bool(contained),
    }
    certificates = {
        "lower": lo,
        "upper": hi,
        "lower_formula": "alpha / capacity",
        "upper_formula": "beta * capacity",
        "capacity_formula": _CAPACITY_FORMULA,
    }
    return results, certificates, {"containment_slack": tol}


def _run_perturbation(params: dict, tol: float) -> tuple[dict, dict, dict]:
    spec = NormalOrbitSpec(zeros=_clist(params["zeros"]), coeffs=_clist(params["coeffs"]))
    pair = perturb_tau(
        spec, params["k"], params["l"], _c(params["tau"]), params.get("n_max")
    )
    rep = frame_bounds(pair.orbit)
    T = pair.orbit.T
    comm = T @ T.conj().T - T.conj().T @ T
    results = {
        "perturbed": pair.to_dict(),
        "n_max": pair.orbit.n_max,
        "frame_report": rep.to_dict(),
        "excluded_tau": _pair(excluded_tau(spec, params["k"], params["l"])),
        "commutator_kk": abs(comm[params["k"], params["k"]]),
    }
    certificates = {
        "lower": pair.certificate_lower,
        "upper": pair.certificate_upper,
        "lower_formula": "alpha' / capacity * riesz_lower_block",
        "upper_formula": "beta' * capacity * riesz_upper_block",
    }
    return results, certificates, {"excluded_tau_rtol": EXCLUDED_TAU_RTOL}


def _run_biinfinite(params: dict, tol: float) -> tuple[dict, dict, dict]:
    sigma = ArcSet(tuple(tuple(a) for a in params["arcs"]))
    M = params["M"]
    n_max = params.get("n_max", M)
    grid = build_grid(sigma, M)
    pair = build_multiplication_pair(sigma, M, n_max=n_max)
    rep = frame_bounds(pair)
    results = {
        "arcs": sigma.to_json(),
        "M": M,
        "n_max": n_max,
        "mask_count": grid.count,
        "mask_measure": grid.count / M,
        "arc_measure": sigma.measure,
        "parseval_defect": parseval_defect(sigma, M, n_max),
        "unitarity_defect": unitarity_defect(pair),
        "frame_report": rep.to_dict(),
    }
    if "psi" in params:
        psi = _clist(params["psi"])
        reseeded = commutant_multiplier(sigma, M, psi, n_max=n_max)
        rep2 = frame_bounds(reseeded)
        mods2 = np.abs(psi) ** 2
        results["reseeded_report"] = rep2.to_dict()
        results["reseeded_within_multiplier_bounds"] = bool(
            rep2.lower_bound >= rep.lower_bound * float(np.min(mods2)) - tol
            and rep2.upper_bound <= rep.upper_bound * float(np.max(mods2)) + tol
        )
    return results, {}, {"window_normalization": "M / (2*n_max + 1)"}


def _run_translates(params: dict, tol: float) -> tuple[dict, dict, dict]:
    prof = translates_phi(params["fhat_samples"], params["period_count"])
    results = {
        "grid_size": int(prof.phi.shape[0]),
        "support_measure": prof.measure,
        "ess_inf": prof.ess_inf,
        "ess_sup": prof.ess_sup,
        "threshold": prof.threshold,
    }
    if "phi_csv" in params:
        _write_csv(
            params["phi_csv"],
            ["omega", "phi"],
            [(float(w), float(p)) for w, p in zip(prof.omegas, prof.phi)],
        )
    return results, {}, {"support_threshold_rel": SUPPORT_THRESHOLD_REL}


_HANDLERS = {
    "carleson": _run_carleson,
    "model_space": _run_model_space,
    "orbit_analysis": _run_orbit_analysis,
    "normal_construction": _run_normal_construction,
    "perturbation": _run_perturbation,
    "biinfinite": _run_biinfinite,
    "translates": _run_translates,
}


def run_problem(problem: dict, tol: float = DEFAULT_TOL) -> dict:
    """Validate and execute one problem dict, returning the report dict."""
    jsonschema.validate(problem, _PROBLEM_SCHEMA)
    kind = problem["kind"]
    jsonschema.validate(problem["parameters"], _PARAMETER_SCHEMAS[kind])
    results, certificates, tolerances = _HANDLERS[kind](problem["parameters"], tol)
    tolerances["tol"] = tol
    return {
        "kind": kind,
        "inputs": problem["parameters"],
        "results": results,
        "certificates": certificates,
        "tolerances": tolerances,
    }


def _cmd_run(args) -> int:
    try:
        with open(args.problem, "r", encoding="utf-8") as fh:
            problem = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read problem file: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        report = run_problem(problem, tol=args.tol)
    except jsonschema.ValidationError as exc:
        print(f"error: invalid problem file: {exc.message}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - start
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    out_path = args.out or problem.get("output")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"completed {problem['kind']} in {elapsed:.3f} s", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    results = run_battery(seed=args.seed)
    for result in results:
        print(format_line(result))
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} criteria passed")
    return 0 if passed == len(results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orbitframes",
        description="Frame analysis of operator orbits: batch runner and self-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON problem file")
    p_run.add_argument("problem", help="path to the problem JSON")
    p_run.add_argument("--out", help="report path (overrides the file's 'output')")
    p_run.add_argument("--tol", type=float, default=DEFAULT_TOL, help="residual tolerance")

    p_verify = sub.add_parser("verify", help="run the acceptance battery")
    p_verify.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
