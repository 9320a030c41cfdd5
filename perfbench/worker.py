"""The workload process: import the package, warm up, then run the ops.

Started by ``run.py`` in a fresh interpreter for every workload run.  It
prints ``ready`` once ``orbitframes.cli`` is imported and one warm-up
problem has run, so the parent can time set-up.  Without ``--setup-only``
it then runs whole cycles of the op list, one op at a time (one client,
closed loop), for the whole number of cycles nearest to ``--seconds``
(at least one), and writes
``results.json`` to the work directory.  With ``--trace 1`` each cycle
runs twice, untraced and traced (alternating which goes first), and the
spans go to ``spans.jsonl``.

JSON problems run in-process through
``orbitframes.cli.main(["run", <file>, "--out", <report>])``.  Every run of
an op must write the same bytes (or, for library sessions, the same
arrays) as its first run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import orbitframes.cli as cli  # noqa: E402
from orbitframes import blaschke, coeffs, model_space  # noqa: E402

from tracer import Tracer  # noqa: E402


def _cvec(pairs) -> np.ndarray:
    return np.array([complex(a, b) for a, b in pairs], dtype=np.complex128)


def library_session(s: dict) -> dict:
    """build_model_space -> basis_coordinates, project_model -> projected_monomial -> taylor_coeffs.

    Calls go through the module attributes so that a tracer's patches apply.
    """
    h = blaschke.BlaschkeProduct(zeros=_cvec(s["zeros"]))
    ms = model_space.build_model_space(h)
    f = coeffs.CoeffVec(0, _cvec(s["poly"]))
    coords = model_space.basis_coordinates(ms, f)
    proj = model_space.project_model(ms, f)
    mono = model_space.projected_monomial(ms, s["m"])
    taylor = blaschke.taylor_coeffs(h, s["n"])
    return {
        "shift_matrix": ms.shift_matrix,
        "phi": ms.phi,
        "coords": coords,
        "proj": proj.coeffs,
        "proj_lo": np.array(proj.lo),
        "monomial": mono,
        "taylor": taylor.coeffs,
    }


class Runner:
    """Runs ops and checks that every repeat reproduces the first run."""

    def __init__(self, workdir: str):
        self.reports = os.path.join(workdir, "reports")
        self.first: dict[str, object] = {}

    def run_cli(self, op: dict) -> tuple[float, str | None]:
        seen = op["id"] in self.first
        out = os.path.join(self.reports, op["id"] + (".again.json" if seen else ".json"))
        t0 = time.perf_counter()
        try:
            code = cli.main(["run", op["file"], "--out", out])
        except Exception as exc:  # an uncaught exception is an outcome to record
            return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"[:300]
        elapsed = time.perf_counter() - t0
        if code != 0:
            return elapsed, f"exit {code}"
        with open(out, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if not seen:
            self.first[op["id"]] = digest
        elif digest != self.first[op["id"]]:
            return elapsed, "report bytes differ from the first run"
        return elapsed, None

    def run_session(self, op: dict) -> tuple[float, str | None]:
        t0 = time.perf_counter()
        try:
            out = library_session(op["session"])
        except Exception as exc:  # an uncaught exception is an outcome to record
            return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"[:300]
        elapsed = time.perf_counter() - t0
        first = self.first.setdefault(op["id"], out)
        if first is not out and any(not np.array_equal(first[k], out[k]) for k in out):
            return elapsed, "session arrays differ from the first run"
        return elapsed, None

    def run(self, op: dict) -> tuple[float, str | None]:
        return self.run_session(op) if "session" in op else self.run_cli(op)

    def save_sessions(self) -> None:
        for key, value in self.first.items():
            if isinstance(value, dict):
                np.savez(os.path.join(self.reports, key + ".npz"), **value)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    warm = os.path.join(args.workdir, "warmup.json")
    if cli.main(["run", warm, "--out", warm + ".report"]) != 0:
        print("warm-up problem failed", file=sys.stderr)
        return 1
    print("ready", flush=True)
    if args.setup_only:
        return 0

    with open(os.path.join(args.workdir, "ops.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    ops = manifest["ops"]
    runner = Runner(args.workdir)
    executions = []  # [op id, seconds, failure or None, traced]
    tracer = Tracer()
    cycle_s = []
    t0 = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        # A traced run alternates which of its two passes comes first.
        for traced in ((False, True) if len(cycle_s) % 2 == 0 else (True, False))[: 1 + args.trace]:
            if traced:
                tracer.install()
            try:
                for op in ops:
                    tracer.op = op["id"]
                    executions.append([op["id"], *runner.run(op), traced])
            finally:
                tracer.uninstall()
        cycle_s.append(time.perf_counter() - c0)
        # Stop at the whole cycle that ends nearest to --seconds.
        if time.perf_counter() - t0 + sum(cycle_s) / len(cycle_s) / 2 >= args.seconds:
            break
    elapsed = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    probes = []
    for op in manifest.get("probes", []):
        probes.append([op["id"], *runner.run(op)])
    runner.save_sessions()
    if args.trace:
        tracer.write(os.path.join(args.workdir, "spans.jsonl"))
    result = {
        "cycle_s": cycle_s,
        "elapsed_s": elapsed,
        "peak_rss_mb": rss_mb,
        "executions": executions,
        "counters": dict(tracer.counters),
        "probes": probes,
    }
    with open(os.path.join(args.workdir, "results.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
