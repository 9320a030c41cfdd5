"""Batch front end: declarative JSON problems in, JSON reports out.

A problem names a kind, its parameters and optionally an output path.
This module alone decides what a valid problem is, before any
computation, and alone knows what a report holds: the library's types
carry numbers, and each kind's handler builds its report's keys from
them as plain dicts.  Each handler takes its parameters as keyword
arguments, so a missing or unknown key is one its signature does not
bind; each value then meets one type rule keyed by its name (sizes and
indices are JSON integers, so ``8.0`` or ``true`` is rejected); and each
numeric payload is parsed in one bulk pass that checks its shape and
that every entry is a finite JSON number.  Ranges are checked by the
library, but ``decay_n_max`` and ``bounds_schedule`` entries here, so the
message names them.  ``recover_generator`` on a two-sided orbit is
rejected too.  Complex numbers travel as [re, im] pairs.  The ``NaN``,
``Infinity`` and ``-Infinity`` literals load as json's floats, which the
type rule and the finiteness check reject by value, and a report that
would hold a non-finite number is a numerical error that names its key
path.  A report is json's compact text, ``json.dumps(report, sort_keys=True,
separators=(",", ":"))`` and a newline (``python -m json.tool`` lays one out
for reading), but its ``inputs`` is the problem's ``parameters`` text as the
file writes it, kept while json's C scanner parses the file.  One
``writelines`` writes it as pieces (a matrix of pairs row by row), with no
string as long as the report.  It is byte-stable for a given problem file,
numpy build and BLAS thread count, and the one file a run writes:
``run_problem``, a function of the problem alone, writes none and returns
the report dict, the parsed parameters as ``inputs``.
Wall time, the time to read the problem, encoding time and report size go to
stderr.  A report's ``tolerances`` lists the ``config`` constants its kind
compares against.  Repeated ``main`` calls in one process share one parser.

Exit codes: 0 success, 1 failed verification criteria, 2 input, validation
or report-writing error (an unwritable path, a stdout pipe closed early), 3
numerical error from an inner module.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import math
import os
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
_STRINGS = frozenset({"index_set", "output"})


class _Text(str):
    """JSON text that ``_encode`` writes as it is: the ``parameters`` value of
    a problem file, spliced into its report as ``inputs``."""

    __slots__ = ()


_DECODER = json.JSONDecoder()
_SPACE = json.decoder.WHITESPACE.match


def _read_problem(path: str) -> tuple[object, _Text | None]:
    """The problem in the file at ``path`` and the text of its ``parameters`` value.

    The file parses as ``json.loads(text)`` parses it, with json's own
    messages: ``json.decoder.JSONObject`` reads the top-level object and
    hands each of its values to one call of the decoder's C scanner, whose
    span of the text is kept for ``parameters`` (the last one, if the key
    repeats).  A top level that is not an object goes to ``json.loads``
    whole, and its text is None.  Only the slice outlives the call.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    start = _SPACE(text, 0).end()
    if text[start : start + 1] != "{":
        return json.loads(text), None
    spans = []

    def scan_once(s, idx):
        value, end = _DECODER.scan_once(s, idx)
        spans.append((idx, end))
        return value, end

    pairs, end = json.decoder.JSONObject(
        (text, start + 1), _DECODER.strict, scan_once, None, list, {}
    )
    end = _SPACE(text, end).end()
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    span = dict(zip([key for key, _ in pairs], spans)).get("parameters")
    if span is None:
        return dict(pairs), None
    piece = text[span[0] : span[1]]
    del text  # so the whole file and two copies of the slice are never held at once
    return dict(pairs), _Text(piece)


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


_signature = functools.cache(inspect.signature)


def _bind(function, mapping: dict, what: str) -> dict:
    """``mapping`` bound to ``function``'s keywords, each value type-checked.

    A missing or unknown key is a ``ValueError`` that names the key.
    """
    try:
        arguments = _signature(function).bind(**mapping).arguments
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
    ``ValueError`` naming the parameter (and the first entry that is not finite).
    """
    value = np.array(value, dtype=object)
    if value.ndim != len(shape) or any(
        want is not None and want != got for want, got in zip(shape, value.shape)
    ):
        dims = ", ".join("n" if want is None else str(want) for want in shape)
        raise ValueError(f"{name} must be a nested list of numbers of shape ({dims})")
    for leaf_type in set(map(type, value.flat)):
        if not issubclass(leaf_type, (int, float)) or issubclass(leaf_type, bool):
            raise ValueError(f"{name} must hold only numbers, got {leaf_type.__name__}")
    try:
        floats = value.astype(np.float64)
    except OverflowError:
        raise ValueError(
            f"{name} holds an integer too large to be a finite float"
        ) from None
    finite = np.isfinite(floats)
    if not finite.all():
        raise ValueError(f"{name} must be finite, got {floats.flat[np.argmin(finite)]}")
    return floats


def _complex(value, name: str, ndim: int) -> np.ndarray:
    """``ndim`` nested lists of [re, im] pairs, each read as complex(re, im).

    The pairs are viewed as complex128 without arithmetic, so signed zeros
    survive bit for bit.
    """
    pairs = _numbers(value, name, (None,) * ndim + (2,))
    return pairs.view(np.complex128)[..., 0]


def _pairs(a) -> list:
    """Complex ``a`` as nested lists of [re, im] floats, signed zeros kept."""
    return np.stack([a.real, a.imag], -1).tolist()


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


def _run_model_space(zeros, trunc_n=None, decay_n_max=None) -> tuple[dict, dict, dict]:
    h = BlaschkeProduct(zeros=_complex(zeros, "zeros", 1))
    ms = build_model_space(h, n_trunc=trunc_n)
    results = {
        "zeros": _pairs(h.zeros),
        "dim": ms.dim,
        "trunc_n": ms.trunc_n,
        "shift_matrix": _pairs(ms.shift_matrix),
        "phi": _pairs(ms.phi),
        "gram_residual": ms.gram_residual,
    }
    if decay_n_max is not None:
        config.check_size("decay_n_max", decay_n_max)
        results["decay_profile"] = decay_profile(ms, ms.phi, decay_n_max).tolist()
    return results, {}, {"gram_target": config.GRAM_TARGET}


def _run_orbit_analysis(
    T,
    f0,
    index_set,
    n_max,
    recover_generator=False,
    bounds_schedule=None,
) -> tuple[dict, dict, dict]:
    if recover_generator and index_set == "Z":
        raise ValueError("invalid problem file: recover_generator needs index_set N")
    spec = OrbitSpec(
        T=_complex(T, "T", 2),
        f0=_complex(f0, "f0", 1),
        index_set=index_set,
        n_max=n_max,
    )
    results = {"frame_report": dataclasses.asdict(frame_bounds(spec))}
    if spec.index_set == "N":
        U = spec.columns
        if recover_generator:
            recovered, results["kernel_residual"] = generator_closure(U)
            gaps = np.linalg.norm(recovered @ U[:, :-1] - U[:, 1:], axis=0)
            results["generator"] = _pairs(recovered)
            results["generator_consistency"] = float(gaps.max()) if gaps.size else 0.0
        else:
            results["kernel_residual"] = kernel_shift_invariance(U)
    else:
        results["unitarity_defect"] = unitarity_defect(spec)
    if bounds_schedule is not None:
        rows = []
        for m in bounds_schedule:
            config.check_size("bounds_schedule entry", m)
            rows.append(dataclasses.asdict(frame_bounds(spec.window(m))))
        results["bounds_schedule"] = rows
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
        "spec": {
            "zeros": _pairs(spec.zeros),
            "coeffs": _pairs(spec.coeffs),
            "alpha": spec.alpha,
            "beta": spec.beta,
            "delta": spec.delta,
            "capacity": spec.capacity,
        },
        "n_max": pair.n_max,
        "frame_report": dataclasses.asdict(rep),
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
    T, k = pair.orbit.T, pair.k
    results = {
        "perturbed": {
            "k": pair.k,
            "l": pair.l,
            "tau": _pairs(pair.tau),
            "riesz_lower": pair.riesz_lower,
            "riesz_upper": pair.riesz_upper,
            "certificate_lower": pair.certificate_lower,
            "certificate_upper": pair.certificate_upper,
            "biorthogonality_residual": pair.biorthogonality_residual,
            "diagonalization_residual": pair.diagonalization_residual,
        },
        "n_max": pair.orbit.n_max,
        "frame_report": dataclasses.asdict(rep),
        "excluded_tau": _pairs(excluded_tau(spec, k, l)),
        "commutator_kk": abs(np.vdot(T[k], T[k]) - np.vdot(T[:, k], T[:, k])),  # (TT* - T*T)_kk
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
        "arcs": [list(arc) for arc in sigma.arcs],
        "M": M,
        "n_max": pair.n_max,
        "mask_count": pair.dim,
        "mask_measure": pair.dim / M,
        "arc_measure": sigma.measure,
        "parseval_defect": parseval_defect(pair, M),
        "unitarity_defect": unitarity_defect(pair),
        "frame_report": dataclasses.asdict(rep),
    }
    if psi is not None:
        psi = _complex(psi, "psi", 1)
        reseeded = commutant_multiplier(pair, psi)
        rep2 = frame_bounds(reseeded)
        mods2 = np.abs(psi) ** 2
        results["reseeded_report"] = dataclasses.asdict(rep2)
        results["reseeded_within_multiplier_bounds"] = bool(
            rep2.lower_bound >= rep.lower_bound * float(np.min(mods2)) - slack
            and rep2.upper_bound <= rep.upper_bound * float(np.max(mods2)) + slack
        )
    window = "M / (2*n_max + 1)"
    return results, {}, {"containment_slack": slack, "window_normalization": window}


def _run_translates(fhat_samples, period_count) -> tuple[dict, dict, dict]:
    samples = _numbers(fhat_samples, "fhat_samples", (None,))
    prof = translates_phi(samples, period_count)
    results = {
        "grid_size": int(prof.phi.shape[0]),
        "support_measure": prof.measure,
        "ess_inf": prof.ess_inf,
        "ess_sup": prof.ess_sup,
        "threshold": prof.threshold,
        "phi": prof.phi.tolist(),
    }
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


_COMPACT = json.JSONEncoder(
    check_circular=False, allow_nan=False, separators=(",", ":"), sort_keys=True
)
_ESCAPE = json.encoder.encode_basestring_ascii


def _encode(value, pieces: list) -> None:
    """Append ``_COMPACT.encode(value)`` to ``pieces``, dicts key by key and a matrix
    of [re, im] pairs row by row (so no piece is as long as it), a ``_Text`` as it is."""
    row = value[0] if isinstance(value, (list, tuple)) and value else None
    if type(value) is _Text:
        pieces.append(value)
    elif isinstance(value, dict) and value:
        sep = "{"
        for k, v in sorted(value.items()):
            pieces.append(f"{sep}{_ESCAPE(k)}:")
            _encode(v, pieces)
            sep = ","
        pieces.append("}")
    elif isinstance(row, (list, tuple)) and row and isinstance(row[0], (list, tuple)):
        sep = "["
        for row in value:
            pieces.append(sep)
            _encode(row, pieces)
            sep = ","
        pieces.append("]")
    else:  # raises what json.dumps raises
        pieces.append(_COMPACT.encode(value))


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


def _report_text(report: dict) -> list[str]:
    """The pieces of ``json.dumps(report, sort_keys=True, separators=(",", ":"),
    allow_nan=False)`` plus a newline, in order; joined, they are that text."""
    pieces = []
    try:
        _encode(report, pieces)
    except ValueError:
        where = next(_non_finite(report, ""))[1:]  # the path without its leading dot
        raise NumericalError(f"the report holds a non-finite number: {where}") from None
    pieces.append("\n")
    return pieces


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
    start = time.perf_counter()
    try:
        problem, parameters = _read_problem(args.problem)
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: cannot read problem file: {exc}", file=sys.stderr)
        return 2
    read = time.perf_counter() - start
    start = time.perf_counter()
    try:
        report = run_problem(problem)
        elapsed = time.perf_counter() - start
        pieces = _report_text(dict(report, inputs=parameters))
        encoding = time.perf_counter() - start - elapsed
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    out_path = args.out or problem.get("output")
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except BrokenPipeError as exc:
            # The interpreter flushes stdout again at exit: point it at devnull
            # so that flush does not raise too (Python's ``signal`` docs, SIGPIPE).
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    size = f"read {read:.3f} s, report {encoding:.3f} s, {sum(map(len, pieces))} bytes"
    print(f"completed {problem['kind']} in {elapsed:.3f} s ({size})", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    results = run_battery(seed=args.seed)
    for result in results:
        print(format_line(result))
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} criteria passed")
    return 0 if passed == len(results) else 1


def _seed(text: str) -> int:
    """``verify --seed``: each criterion seeds numpy with seed + 1000 * index."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args`` leaves it
    unchanged, so repeated ``main`` calls share it."""
    parser = argparse.ArgumentParser(
        prog="orbitframes",
        description="Frame analysis of operator orbits: batch runner and self-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON problem file")
    p_run.add_argument("problem", help="path to the problem JSON")
    p_run.add_argument("--out", help="report path (overrides the file's 'output')")

    p_verify = sub.add_parser("verify", help="run the acceptance battery")
    p_verify.add_argument("--seed", type=_seed, default=0)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return _cmd_run(args) if args.command == "run" else _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
