"""Spans around the package's layer functions, patched in from outside.

``Tracer.install`` replaces each listed function by a wrapper in every
``orbitframes`` module that binds it (``cli``, ``biinfinite``,
``constructions`` and ``model_space`` import names directly, so patching
the defining module alone would miss their calls).  ``OrbitSpec`` is traced
through its ``__post_init__`` checks.  Each span records its name, start,
end, parent span, operation id and whether it ended by raising; spans stay
in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _gram_flops(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    L = spec.n_max + 1 if spec.index_set == "N" else 2 * spec.n_max + 1
    return 8 * spec.T.shape[0] ** 2 * L


def _vh_bytes(args, kwargs, result):
    U = args[0] if args else kwargs["frame_columns"]
    return 16 * U.shape[1] ** 2


def _columns(args, kwargs, result):
    return result.shape[1]


def _taylor_length(args, kwargs, result):
    return len(result.coeffs)


#: (module, attribute, counter name, counter) for every traced function.
#: Each counter is computed from the sizes of the arguments or the result.
TARGETS = (
    ("cli", "run_problem", None, None),
    ("orbits", "OrbitSpec", None, None),
    ("orbits", "synthesis_matrix", "columns", _columns),
    ("orbits", "frame_bounds", "gram_flops", _gram_flops),
    ("orbits", "kernel_shift_invariance", "vh_bytes", _vh_bytes),
    ("orbits", "generator_closure", None, None),
    ("orbits", "unitarity_defect", None, None),
    ("model_space", "build_model_space", None, None),
    ("model_space", "decay_profile", None, None),
    ("model_space", "project_model", None, None),
    ("model_space", "projected_monomial", None, None),
    ("model_space", "basis_coordinates", None, None),
    ("blaschke", "carleson_delta", None, None),
    ("blaschke", "delta_capacity", None, None),
    ("blaschke", "taylor_coeffs", "coeffs", _taylor_length),
    ("coeffs", "multiply", None, None),
    ("coeffs", "inner_product", None, None),
    ("constructions", "build_normal_pair", None, None),
    ("constructions", "perturb_tau", None, None),
    ("constructions", "certificate_bounds", None, None),
    ("biinfinite", "build_multiplication_pair", None, None),
    ("biinfinite", "parseval_defect", None, None),
    ("biinfinite", "commutant_multiplier", None, None),
    ("biinfinite", "translates_phi", None, None),
)

#: Field positions in a span.
NAME, OP, PARENT, START, END, RAISED = range(6)


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.op, self._stack[-1] if self._stack else None, time.perf_counter(), None, False]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                self.counters[f"{name}.{counter[0]}"] += counter[1](args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every module binding of every target function."""
        modules = [m for n, m in list(sys.modules.items()) if n == "orbitframes" or n.startswith("orbitframes.")]
        for mod_name, attr, counter_name, counter in TARGETS:
            owner = sys.modules[f"orbitframes.{mod_name}"]
            name = f"{mod_name}.{attr}"
            original = getattr(owner, attr)
            counter_pair = (counter_name, counter) if counter else None
            if isinstance(original, type):
                init = original.__post_init__
                self._undo.append((original, "__post_init__", init))
                setattr(original, "__post_init__", self.wrap(name, init, counter_pair))
                continue
            wrapper = self.wrap(name, original, counter_pair)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "op": s[OP], "parent": s[PARENT],
                                     "start": s[START], "end": s[END], "raised": s[RAISED]}) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return [(s[END] - s[START]) - _union_length(children[i]) for i, s in enumerate(spans)]


def summarize(spans: list[list]) -> dict[str, float]:
    """calls, self_ms and errors per span name."""
    out: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        out[f"{s[NAME]}.calls"] += 1
        out[f"{s[NAME]}.self_ms"] += own * 1e3
        out[f"{s[NAME]}.errors"] += 1 if s[RAISED] else 0
    return out
