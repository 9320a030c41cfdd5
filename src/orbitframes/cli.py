"""Batch front end: declarative JSON problems in, JSON reports out.

A problem names a kind, its parameters and optionally an output path.
This module alone decides what a valid problem is, before any
computation: each kind's handler takes its parameters as keyword
arguments, so a missing or unknown key is one its signature does not
bind; each value then meets one type rule keyed by its name (sizes and
indices are JSON integers, so ``8.0`` or ``true`` is rejected); and each
numeric payload is parsed in one bulk pass that checks its shape and
that every entry is a finite JSON number.  Ranges are checked by the
library, but ``decay_n_max`` and ``bounds_schedule`` entries here, so the
message names them.  A key that asks for work its problem does not do
(``decay_csv`` without ``decay_n_max``, say) is rejected too.  Complex
numbers travel as [re, im] pairs.  The ``NaN``, ``Infinity`` and
``-Infinity`` literals are rejected, and a report that would hold a
non-finite number is a numerical error that names its key path.  A
report is the bytes ``json.dumps(report, sort_keys=True, indent=2)``
writes, but its arrays of numbers are C-encoded and re-indented; it is
byte-stable for identical inputs (default float repr, no timestamps).
Wall time, encoding time and report size go to stderr.  CSV side outputs
are written when the problem asks for them.  A report's ``tolerances``
lists the ``config`` constants its kind compares against.

Exit codes: 0 success, 1 failed verification criteria, 2 input or
validation error, 3 numerical error from an inner module.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import reprlib
import sys
import time

import numpy as np

from . import config
from .acceptance import format_line, run_battery
from .biinfinite import (
    ArcSet,
    build_multiplication_pair,
    commutant_multiplier,
    parseval_defect,
    translates_phi,
)
from .blaschke import BlaschkeProduct, carleson_delta, delta_capacity
from .coeffs import re_im
from .constructions import (
    NormalOrbitSpec,
    build_normal_pair,
    certificate_bounds,
    excluded_tau,
    perturb_tau,
)
from .errors import NumericalError
from .model_space import build_model_space, decay_profile
from .orbits import (
    OrbitSpec,
    frame_bounds,
    generator_closure,
    kernel_shift_invariance,
    unitarity_defect,
)

_SEPARATION_FORMULA = (
    "inf_j prod_{k != j} |(lambda_j - lambda_k) / (1 - conj(lambda_j) lambda_k)|"
)
_CAPACITY_FORMULA = "2/delta^4 * (1 - 2*log(delta))"


#: Names the type rule of ``_check_type`` reads as integers and as strings.
_INTEGERS = frozenset({"n_max", "trunc_n", "decay_n_max", "k", "l", "M", "period_count"})
_STRINGS = frozenset({"index_set", "decay_csv", "bounds_csv", "phi_csv", "output"})


class _Literal:
    """A ``NaN``, ``Infinity`` or ``-Infinity`` token read from a problem file.

    The loader keeps the token instead of a float, so the check that meets
    it (the type rule or ``_numbers``) rejects it and names the token.
    """

    __slots__ = ("token",)

    def __init__(self, token: str):
        self.token = token

    def __repr__(self) -> str:
        return self.token


def _check_type(name: str, value) -> None:
    """Raise a ``ValueError`` naming ``name`` when ``value`` breaks the type rule.

    Sizes and indices must be ``int`` (not ``bool`` or ``float``); a name no
    rule lists is a numeric payload, which must not be null (``_numbers``
    parses it).
    """
    if name in _INTEGERS:
        ok, want = type(value) is int, "an integer"
    elif name == "bounds_schedule":
        ok = type(value) is list and value != [] and all(type(m) is int for m in value)
        want = "a nonempty list of integers"
    elif name == "recover_generator":
        ok, want = type(value) is bool, "a boolean"
    elif name in _STRINGS:
        ok, want = type(value) is str, "a string"
    elif name in ("problem", "parameters"):
        ok, want = type(value) is dict, "an object"
    elif name == "kind":
        ok = type(value) is str and value in _HANDLERS
        want = "one of " + ", ".join(sorted(_HANDLERS))
    else:
        ok, want = value is not None, "a nested list of numbers"
    if not ok:
        raise ValueError(
            f"invalid problem file: {name} must be {want}, got {reprlib.repr(value)}"
        )


def _bind(function, mapping: dict, what: str) -> dict:
    """``mapping`` bound to ``function``'s keywords, each value type-checked.

    A missing or unknown key is a ``ValueError`` that names the key.
    """
    try:
        arguments = inspect.signature(function).bind(**mapping).arguments
    except TypeError as exc:
        raise ValueError(f"invalid problem file: {what}: {exc}") from None
    for name, value in arguments.items():
        _check_type(name, value)
    return arguments


def _numbers(value, name: str, shape: tuple) -> np.ndarray:
    """Parse the numeric payload ``value`` of parameter ``name`` in one bulk pass.

    ``shape`` gives the length of each axis, ``None`` for any length.  Every
    leaf must be an ``int`` or a ``float`` (not a ``bool``) whose float64
    value is finite.  Returns the float64 array; any failure is a
    ``ValueError`` naming the parameter.
    """
    value = np.array(value, dtype=object)
    if value.ndim != len(shape) or any(
        want is not None and want != got for want, got in zip(shape, value.shape)
    ):
        dims = ", ".join("n" if want is None else str(want) for want in shape)
        raise ValueError(f"{name} must be a nested list of numbers of shape ({dims})")
    for leaf_type in set(map(type, value.flat)):
        if leaf_type is _Literal:
            token = next(x for x in value.flat if type(x) is _Literal)
            raise ValueError(f"{name} must be finite, got {token}")
        if not issubclass(leaf_type, (int, float)) or issubclass(leaf_type, bool):
            raise ValueError(f"{name} must hold only numbers, got {leaf_type.__name__}")
    try:
        floats = value.astype(np.float64)
    except OverflowError:
        raise ValueError(
            f"{name} holds an integer too large to be a finite float"
        ) from None
    if not np.isfinite(floats).all():
        raise ValueError(f"{name} must be finite")
    return floats


def _complex(value, name: str, ndim: int) -> np.ndarray:
    """``ndim`` nested lists of [re, im] pairs, each read as complex(re, im).

    The pairs are viewed as complex128 without arithmetic, so signed zeros
    survive bit for bit.
    """
    pairs = _numbers(value, name, (None,) * ndim + (2,))
    return pairs.view(np.complex128)[..., 0]


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def _run_carleson(zeros) -> tuple[dict, dict, dict]:
    zeros = _complex(zeros, "zeros", 1)
    delta = carleson_delta(zeros)
    capacity = delta_capacity(delta)
    results = {"zero_count": len(zeros), "delta": delta, "capacity": capacity}
    certificates = {
        "separation_formula": _SEPARATION_FORMULA,
        "capacity_formula": _CAPACITY_FORMULA,
    }
    return results, certificates, {}


def _run_model_space(
    zeros, trunc_n=None, decay_n_max=None, decay_csv=None
) -> tuple[dict, dict, dict]:
    if decay_csv is not None and decay_n_max is None:
        raise ValueError("invalid problem file: decay_csv needs decay_n_max")
    h = BlaschkeProduct(zeros=_complex(zeros, "zeros", 1))
    ms = build_model_space(h, n_trunc=trunc_n)
    results = ms.to_dict()
    if decay_n_max is not None:
        config.check_size("decay_n_max", decay_n_max)
        results["decay_profile"] = decay_profile(ms, ms.phi, decay_n_max).tolist()
        if decay_csv is not None:
            _write_csv(decay_csv, ["n", "orbit_norm"], enumerate(results["decay_profile"]))
    return results, {}, {"gram_target": config.GRAM_TARGET}


def _run_orbit_analysis(
    T,
    f0,
    index_set,
    n_max,
    recover_generator=False,
    bounds_schedule=None,
    bounds_csv=None,
) -> tuple[dict, dict, dict]:
    if recover_generator and index_set == "Z":
        raise ValueError("invalid problem file: recover_generator needs index_set N")
    if bounds_csv is not None and bounds_schedule is None:
        raise ValueError("invalid problem file: bounds_csv needs bounds_schedule")
    spec = OrbitSpec(
        T=_complex(T, "T", 2),
        f0=_complex(f0, "f0", 1),
        index_set=index_set,
        n_max=n_max,
    )
    results = {"frame_report": frame_bounds(spec).to_dict()}
    if spec.index_set == "N":
        U = spec.columns
        if recover_generator:
            recovered, results["kernel_residual"] = generator_closure(U)
            gaps = np.linalg.norm(recovered @ U[:, :-1] - U[:, 1:], axis=0)
            results["generator"] = re_im(recovered)
            results["generator_consistency"] = float(gaps.max()) if gaps.size else 0.0
        else:
            results["kernel_residual"] = kernel_shift_invariance(U)
    else:
        results["unitarity_defect"] = unitarity_defect(spec)
    if bounds_schedule is not None:
        rows = []
        for m in bounds_schedule:
            config.check_size("bounds_schedule entry", m)
            rows.append(frame_bounds(spec.window(m)).to_dict())
        results["bounds_schedule"] = rows
        if bounds_csv is not None:
            keys = ["n_max", "lower_bound", "upper_bound", "parseval_defect"]
            _write_csv(bounds_csv, keys, [[row[key] for key in keys] for row in rows])
    return results, {}, {"kernel_tol": config.KERNEL_TOL}


def _run_normal_construction(zeros, coeffs, n_max=None) -> tuple[dict, dict, dict]:
    spec = NormalOrbitSpec(
        zeros=_complex(zeros, "zeros", 1), coeffs=_complex(coeffs, "coeffs", 1)
    )
    pair = build_normal_pair(spec, n_max)
    rep = frame_bounds(pair)
    lo, hi = certificate_bounds(spec)
    tail = rep.tail_estimate or 0.0
    slack = config.CONTAINMENT_SLACK
    contained = rep.lower_bound >= lo - tail - slack and rep.upper_bound <= hi + slack
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
    return results, certificates, {"containment_slack": slack}


def _run_perturbation(zeros, coeffs, k, l, tau, n_max=None) -> tuple[dict, dict, dict]:
    spec = NormalOrbitSpec(
        zeros=_complex(zeros, "zeros", 1), coeffs=_complex(coeffs, "coeffs", 1)
    )
    tau = complex(_complex(tau, "tau", 0))
    pair = perturb_tau(spec, k, l, tau, n_max)
    rep = frame_bounds(pair.orbit)
    T = pair.orbit.T
    comm = T @ T.conj().T - T.conj().T @ T
    results = {
        "perturbed": pair.to_dict(),
        "n_max": pair.orbit.n_max,
        "frame_report": rep.to_dict(),
        "excluded_tau": re_im(excluded_tau(spec, k, l)),
        "commutator_kk": abs(comm[k, k]),
    }
    certificates = {
        "lower": pair.certificate_lower,
        "upper": pair.certificate_upper,
        "lower_formula": "alpha' / capacity * riesz_lower_block",
        "upper_formula": "beta' * capacity * riesz_upper_block",
    }
    return results, certificates, {"excluded_tau_rtol": config.EXCLUDED_TAU_RTOL}


def _run_biinfinite(arcs, M, n_max=None, psi=None) -> tuple[dict, dict, dict]:
    sigma = ArcSet(tuple(map(tuple, _numbers(arcs, "arcs", (None, 2)).tolist())))
    pair = build_multiplication_pair(sigma, M, n_max=n_max)
    rep = frame_bounds(pair)
    slack = config.CONTAINMENT_SLACK
    results = {
        "arcs": sigma.to_json(),
        "M": M,
        "n_max": pair.n_max,
        "mask_count": pair.dim,
        "mask_measure": pair.dim / M,
        "arc_measure": sigma.measure,
        "parseval_defect": parseval_defect(pair, M),
        "unitarity_defect": unitarity_defect(pair),
        "frame_report": rep.to_dict(),
    }
    if psi is not None:
        psi = _complex(psi, "psi", 1)
        reseeded = commutant_multiplier(pair, psi)
        rep2 = frame_bounds(reseeded)
        mods2 = np.abs(psi) ** 2
        results["reseeded_report"] = rep2.to_dict()
        results["reseeded_within_multiplier_bounds"] = bool(
            rep2.lower_bound >= rep.lower_bound * float(np.min(mods2)) - slack
            and rep2.upper_bound <= rep.upper_bound * float(np.max(mods2)) + slack
        )
    window = "M / (2*n_max + 1)"
    return results, {}, {"containment_slack": slack, "window_normalization": window}


def _run_translates(
    fhat_samples, period_count, phi_csv=None
) -> tuple[dict, dict, dict]:
    samples = _numbers(fhat_samples, "fhat_samples", (None,))
    prof = translates_phi(samples, period_count)
    results = {
        "grid_size": int(prof.phi.shape[0]),
        "support_measure": prof.measure,
        "ess_inf": prof.ess_inf,
        "ess_sup": prof.ess_sup,
        "threshold": prof.threshold,
    }
    if phi_csv is not None:
        _write_csv(phi_csv, ["omega", "phi"], zip(prof.omegas.tolist(), prof.phi.tolist()))
    return results, {}, {"support_threshold_rel": config.SUPPORT_THRESHOLD_REL}


_HANDLERS = {
    "carleson": _run_carleson,
    "model_space": _run_model_space,
    "orbit_analysis": _run_orbit_analysis,
    "normal_construction": _run_normal_construction,
    "perturbation": _run_perturbation,
    "biinfinite": _run_biinfinite,
    "translates": _run_translates,
}


def _problem_keys(kind, parameters, output=None) -> None:
    """The keys of a problem object: ``_bind`` checks a problem against this
    signature, and the function is never called."""


_COMPACT = json.JSONEncoder(check_circular=False, allow_nan=False, separators=(",", ":"))
_ESCAPE = json.encoder.encode_basestring_ascii


def _array_text(value: list, level: int) -> str | None:
    """``_encode``'s text for an array whose numbers all sit equally deep, else None:
    the C encoder's compact text, re-indented by one ``str.replace`` per depth."""
    text = _COMPACT.encode(value)
    k = len(text) - len(text.rstrip("]"))
    if '"' in text or "{" in text or "[]" in text or text[:k] != "[" * k:
        return None
    if text.count("[") != k + sum(text.count("]" * j + "," + "[" * j) for j in range(1, k)):
        return None  # a bracket outside the ends and the ]...],[...[ separators
    pad = ["\n" + "  " * (level + n) for n in range(k + 1)]
    shut = [pad[n] + "]" for n in range(k - 1, -1, -1)]  # shut[:j] closes j levels
    reopen = ["[" + pad[n] for n in range(1, k + 1)]  # reopen[-j:] opens j levels
    body = text[k:-k].replace(",", "," + pad[k])
    for j in range(k - 1, 0, -1):  # longest first: "],[" is inside "]],[["
        sep = "".join(shut[:j]) + "," + pad[k - j] + "".join(reopen[-j:])
        body = body.replace("]" * j + "," + pad[k] + "[" * j, sep)
    return "".join(reopen) + body + "".join(shut)


def _encode(value, level: int) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` at nesting ``level``."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    if type(value) is int:
        return int.__repr__(value)
    inner = "\n" + "  " * (level + 1)
    if isinstance(value, dict) and value:
        items = (f"{_ESCAPE(k)}: {_encode(v, level + 1)}" for k, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(items) + inner[:-2] + "}"
    if isinstance(value, (list, tuple)) and value:
        text, items = _array_text(value, level), (_encode(v, level + 1) for v in value)
        return text or "[" + inner + ("," + inner).join(items) + inner[:-2] + "]"
    return _COMPACT.encode(value)  # str, bool, None, {}, []; raises what json.dumps raises


def _non_finite(value, path: str):
    """Yield ``path (token)`` for each non-finite float in ``value``."""
    if isinstance(value, dict):
        for k, v in sorted(value.items()):
            yield from _non_finite(v, f"{path}.{k}")
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from _non_finite(v, f"{path}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        yield f"{path} ({float.__repr__(value)})"


def _report_text(report: dict) -> str:
    """``json.dumps(report, sort_keys=True, indent=2, allow_nan=False)`` plus a newline."""
    try:
        return _encode(report, 0) + "\n"
    except ValueError:
        where = next(_non_finite(report, ""))[1:]  # the path without its leading dot
        raise NumericalError(f"the report holds a non-finite number: {where}") from None


def run_problem(problem: dict) -> dict:
    """Validate and execute one problem dict, returning the report dict."""
    _check_type("problem", problem)
    _bind(_problem_keys, problem, "problem")
    kind = problem["kind"]
    handler = _HANDLERS[kind]
    results, certificates, tolerances = handler(
        **_bind(handler, problem["parameters"], f"{kind} parameters")
    )
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
            problem = json.load(fh, parse_constant=_Literal)
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: cannot read problem file: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        report = run_problem(problem)
        elapsed = time.perf_counter() - start
        text = _report_text(report)
        encoding = time.perf_counter() - start - elapsed
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    out_path = args.out or problem.get("output")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    size = f"report {encoding:.3f} s, {len(text)} bytes"
    print(f"completed {problem['kind']} in {elapsed:.3f} s ({size})", file=sys.stderr)
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

    p_verify = sub.add_parser("verify", help="run the acceptance battery")
    p_verify.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
