"""Layer sweep: best-of-k time and peak traced memory of single layers.

    python bench/layers.py --out BENCH_<n>.json         # the full sweep
    python bench/layers.py --out /tmp/b.json --tiny     # two sizes per axis, one run each

Run from the root of a source checkout.  It imports only ``orbitframes``
(from ``src/``), numpy and the standard library, runs with one BLAS thread
and writes one JSON object:

* ``two_sided``: ``frame_bounds`` then ``unitarity_defect`` of a dense
  two-sided orbit, T = W diag(e^(i theta)) W^-1 with W = I + 0.3 G /
  sqrt(2D) (G complex Gaussian) and aperiodic angles, over D x n_max.  Each
  row holds the best-of-k ms and the tracemalloc peak over the window's
  16 D (2 N + 1) bytes; ``slopes`` fits log ms against log n_max at each
  D and against log D at each n_max.
* ``layers``: one row per layer and swept axis, with the best-of-k ms at
  each size, the fitted log-log slope of ms against the axis and the
  tracemalloc peak over the named bytes unit.
* ``cli``: ``cli.main(["run", problem, "--out", report])`` in-process, with
  stderr silenced (read, run, encode and write), on generated problem files:
  the dense two-sided orbit above at D in {50, 200} and n_max = 1024, and a
  ``model_space`` of ring zeros with ``decay_n_max`` = 2000.  Each row holds
  the best-of-k ms, the report's bytes and the tracemalloc peak over the
  problem file's bytes.
* ``run_problem``: ``cli.run_problem(problem)`` in-process on a generated
  problem dict, so no file is read or written, one row per kind at the size
  of the benchmark's largest op of that kind (``perfbench/workloads.py``):
  20 zeros up to radius 0.95 for ``carleson``; 20 up to 0.99 with
  ``decay_n_max`` = 2000 for ``model_space``; the dense two-sided orbit
  above at D = 200, n_max = 1024 for ``orbit_analysis``; 200 ring zeros at
  0.98 with n_max = 16384 for ``normal_construction``; 9 zeros at radii
  1 - 2^(-j-1) for ``perturbation``; two quarter arcs on M = 512 with n_max
  = 2048 for ``biinfinite``; 2048 samples, 128 per unit interval, with
  ``period_count`` = 8 for ``translates``.  An eighth row, again of kind
  ``orbit_analysis``, is the benchmark's scheduled recover op: a one-sided
  T = W diag(lambda) W^-1 at D = 8 (radii 0.3 to 0.9, W as above), n_max =
  499, ``recover_generator`` and ``bounds_schedule`` [62, 124, 249], whose
  four frame reports read one doubling walk.  A ninth row, again of kind
  ``biinfinite``, is the benchmark's reseeded grid op: a half arc on M =
  512 (D = 256) with n_max = 512 and ``psi`` of modulus in [0.5, 1.5],
  whose reseeded extremes are roots of the secular equation.
  Each row holds the best-of-k ms and the tracemalloc peak in bytes.
* ``battery``: ``acceptance.run_battery(seed=0)`` in-process, the
  acceptance battery that ``orbitframes verify`` prints, after one untimed
  run: the best-of-k total ms, and one row per criterion of that run with
  its index, name, verdict and ms (its ``CriterionResult.elapsed``).  A
  criterion over its time budget reads ``passed`` false.
* ``environment``: numpy, BLAS, BLAS threads, Python, CPU count, git sha.

Inputs are built outside the timed call, and each timed call gets a fresh
``OrbitSpec`` (its cached operators would otherwise answer the repeats).
No value is gated: the file records what this machine measured.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc

THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from orbitframes import acceptance, biinfinite, blaschke, cli, model_space, orbits  # noqa: E402

TWO_PI = 2.0 * np.pi


def measure(make, run, repeat: int) -> tuple[float, int]:
    """Best-of-``repeat`` ms of ``run(make())`` after one untimed call, and the
    tracemalloc peak of one more call; ``make()`` runs outside all three."""
    run(make())
    best = np.inf
    for _ in range(repeat):
        arg = make()
        t0 = time.perf_counter()
        run(arg)
        best = min(best, time.perf_counter() - t0)
    arg = make()
    tracemalloc.start()
    try:
        run(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return 1e3 * best, peak


def slope(xs, ms) -> float:
    """Least-squares slope of log ms against log x."""
    return float(np.polyfit(np.log(xs), np.log(ms), 1)[0])


def skew(rng, D: int) -> np.ndarray:
    G = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    return np.eye(D) + 0.3 * G / np.sqrt(2.0 * D)


def dense_unimodular(D: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(D)
    theta = TWO_PI * (np.arange(D) + rng.uniform(-0.3, 0.3, D)) / D
    W = skew(rng, D)
    T = W @ np.diag(np.exp(1j * theta)) @ np.linalg.inv(W)
    return T, W @ (rng.standard_normal(D) + 1j * rng.standard_normal(D))


def dense_contraction(D: int, radius: float = 0.9) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(D)
    G = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    T = radius * G / np.max(np.abs(np.linalg.eigvals(G)))
    return T, rng.standard_normal(D) + 1j * rng.standard_normal(D)


def ring(d: int, radius: float) -> np.ndarray:
    rng = np.random.default_rng(d)
    return radius * np.exp(1j * TWO_PI * (np.arange(d) + rng.uniform(-0.1, 0.1, d)) / d)


def two_sided(Ds, ns, repeat: int) -> dict:
    rows = []
    for D in Ds:
        T, f0 = dense_unimodular(D)
        for n in ns:
            def make():
                return orbits.OrbitSpec(T=T, f0=f0, index_set="Z", n_max=n)

            def run(spec):
                orbits.frame_bounds(spec)
                orbits.unitarity_defect(spec)

            ms, peak = measure(make, run, repeat)
            rows.append({"D": D, "n_max": n, "ms": ms, "peak_over_window": peak / (16 * D * (2 * n + 1))})
    slopes = {}
    for D in Ds:
        pick = [r for r in rows if r["D"] == D]
        slopes[f"n_max at D = {D}"] = slope([r["n_max"] for r in pick], [r["ms"] for r in pick])
    for n in ns:
        pick = [r for r in rows if r["n_max"] == n]
        slopes[f"D at n_max = {n}"] = slope([r["D"] for r in pick], [r["ms"] for r in pick])
    return {
        "layer": "orbits.frame_bounds + orbits.unitarity_defect, two-sided dense unimodular",
        "rows": rows,
        "slopes": slopes,
    }


def layer(name: str, axis: str, fixed: str, unit: str, target, sizes, case, repeat: int, fit=None) -> dict:
    """One layer row: ``case(size)`` returns (make, run, unit bytes)."""
    rows = []
    for size in sizes:
        make, run, unit_bytes = case(size)
        ms, peak = measure(make, run, repeat)
        rows.append({axis: size, "ms": ms, "peak_over_unit": peak / unit_bytes})
    xs = [fit(s) for s in sizes] if fit else sizes
    return {
        "layer": name,
        "axis": axis,
        "fixed": fixed,
        "bytes_unit": unit,
        "target": target,
        "rows": rows,
        "slope": slope(xs, [r["ms"] for r in rows]),
        "slope_axis": f"log2 {axis}" if fit else axis,
    }


def shift_case(d):
    zeros = ring(d, 0.9)
    return (lambda: zeros), blaschke._compressed_shift, 16 * d * d


def model_space_case(d):
    h = blaschke.BlaschkeProduct(zeros=ring(d, 0.9))
    return (lambda: h), model_space.build_model_space, 16 * d * d


def bounds_in_L(L, D=20):
    T, f0 = dense_contraction(D)
    return (lambda: orbits.OrbitSpec(T=T, f0=f0, index_set="N", n_max=L - 1)), orbits.frame_bounds, 16 * D * L


def bounds_in_D(D, L=4096):
    return bounds_in_L(L, D)


def closure_case(L, d=10):
    ms = model_space.build_model_space(blaschke.BlaschkeProduct(zeros=ring(d, 0.9)))
    U = orbits.orbit_columns(ms.shift_matrix, ms.phi, L - 1)
    return (lambda: U), orbits.generator_closure, 16 * d * L


def taylor_case(n, d=10):
    h = blaschke.BlaschkeProduct(zeros=ring(d, 0.9))
    return (lambda: h), (lambda b: blaschke.taylor_coeffs(b, n)), 16 * d * (n + 1)


def pairs(z) -> list:
    """Complex entries as the nested [re, im] pairs of a problem file."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], axis=-1).tolist()


def cli_problems(Ds, d: int) -> dict:
    """The problems of the ``cli`` rows, keyed by their names."""
    problems = {}
    for D in Ds:
        T, f0 = dense_unimodular(D)
        parameters = {"T": pairs(T), "f0": pairs(f0), "index_set": "Z", "n_max": 1024}
        problems[f"orbit_analysis, dense two-sided, D = {D}, n_max = 1024"] = {
            "kind": "orbit_analysis",
            "parameters": parameters,
        }
    parameters = {"zeros": pairs(ring(d, 0.9)), "decay_n_max": 2000}
    problems[f"model_space, d = {d} ring zeros at 0.9, decay_n_max = 2000"] = {
        "kind": "model_space",
        "parameters": parameters,
    }
    return problems


def cli_rows(problems: dict, repeat: int) -> dict:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, problem in problems.items():
            path = os.path.join(tmp, "problem.json")
            report = os.path.join(tmp, "report.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(problem, fh)

            def run(argv):
                with contextlib.redirect_stderr(io.StringIO()):
                    if cli.main(argv) != 0:
                        raise RuntimeError(f"{name}: the run failed")

            ms, peak = measure(lambda: ["run", path, "--out", report], run, repeat)
            rows.append({
                "problem": name,
                "ms": ms,
                "report_bytes": os.path.getsize(report),
                "peak_over_problem": peak / os.path.getsize(path),
            })
    return {"path": 'cli.main(["run", problem, "--out", report]), stderr silenced', "rows": rows}


def run_problem_problems() -> list:
    """One problem per kind, then the scheduled recover op and the reseeded grid
    op, as a problem file would hold them."""
    rng = np.random.default_rng(0)
    spread = np.exp(2.4j * np.arange(20))  # about the golden angle apart
    T, f0 = dense_unimodular(200)
    boundary = (1.0 - 2.0 ** (-np.arange(9) - 1.0)) * np.exp(1j * rng.uniform(0.0, TWO_PI, 9))
    weights = rng.uniform(0.5, 1.5, 200) * np.exp(1j * rng.uniform(0.0, TWO_PI, 200))
    quarter = TWO_PI * 128 / 512
    omega = np.arange(2 * 8 * 128) / 128 - 8
    bumps = np.exp(-(omega**2)) * (1.0 + 0.5 * np.sin(3.0 * omega)) ** 2
    bumps[np.abs(np.mod(omega, 1.0) - 0.5) < 0.1] = 0.0
    parameters = {
        "carleson": {"zeros": pairs(np.linspace(0.0, 0.95, 20) * spread)},
        "model_space": {"zeros": pairs(np.linspace(0.1, 0.99, 20) * spread), "decay_n_max": 2000},
        "orbit_analysis": {"T": pairs(T), "f0": pairs(f0), "index_set": "Z", "n_max": 1024},
        "normal_construction": {"zeros": pairs(ring(200, 0.98)), "coeffs": pairs(weights), "n_max": 16384},
        "perturbation": {
            "zeros": pairs(boundary), "coeffs": pairs(weights[:9]), "k": 0, "l": 1, "tau": [0.3, 0.1],
        },
        "biinfinite": {"arcs": [[0.01, 0.01 + quarter], [3.0, 3.0 + quarter]], "M": 512, "n_max": 2048},
        "translates": {"fhat_samples": bumps.tolist(), "period_count": 8},
    }
    W = skew(rng, 8)
    lam = np.linspace(0.3, 0.9, 8) * np.exp(1j * TWO_PI * (np.arange(8) + rng.uniform(-0.2, 0.2, 8)) / 8)
    scheduled = {
        "T": pairs(W @ np.diag(lam) @ np.linalg.inv(W)), "f0": pairs(W @ weights[:8]), "index_set": "N",
        "n_max": 499, "recover_generator": True, "bounds_schedule": [62, 124, 249],
    }
    half = [[TWO_PI / 1024, TWO_PI * 513 / 1024]]
    D = int(np.count_nonzero(biinfinite.ArcSet(tuple(map(tuple, half))).contains(TWO_PI * np.arange(512) / 512)))
    psi = rng.uniform(0.5, 1.5, D) * np.exp(1j * rng.uniform(0.0, TWO_PI, D))
    reseeded = {"arcs": half, "M": 512, "n_max": 512, "psi": pairs(psi)}
    problems = [{"kind": kind, "parameters": params} for kind, params in parameters.items()]
    return problems + [
        {"kind": "orbit_analysis", "parameters": scheduled},
        {"kind": "biinfinite", "parameters": reseeded},
    ]


def run_problem_rows(problems: list, repeat: int) -> dict:
    rows = []
    for problem in problems:
        ms, peak = measure(lambda: problem, cli.run_problem, repeat)
        rows.append({"kind": problem["kind"], "ms": ms, "peak_bytes": peak})
    return {"path": "cli.run_problem(problem) in-process, the problem dict built outside the timed call", "rows": rows}


def battery_rows(repeat: int) -> dict:
    acceptance.run_battery(seed=0)
    runs = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        results = acceptance.run_battery(seed=0)
        runs.append((1e3 * (time.perf_counter() - t0), results))
    ms, results = min(runs, key=lambda run: run[0])
    rows = [{"index": r.index, "name": r.name, "passed": r.passed, "ms": 1e3 * r.elapsed} for r in results]
    return {"path": "acceptance.run_battery(seed=0) in-process", "ms": ms, "rows": rows}


def environment() -> dict:
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    except OSError:  # no git on this machine
        sha = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 prints its config only
        blas = None
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": THREADS,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="path of the JSON file to write")
    ap.add_argument("--tiny", action="store_true", help="two sizes per axis, one timed run each")
    args = ap.parse_args(argv)
    repeat = 1 if args.tiny else 5

    def sizes(*values):
        return values[:2] if args.tiny else values

    result = {
        "environment": environment(),
        "repeat": repeat,
        "two_sided": two_sided(sizes(25, 50, 100, 200), sizes(256, 1024, 4096), repeat),
        "layers": [
            layer("blaschke._compressed_shift", "d", "ring zeros, radius 0.9", "16 d^2", "O(d^2)",
                  sizes(25, 50, 100, 200, 400), shift_case, repeat),
            layer("model_space.build_model_space", "d", "ring zeros, radius 0.9", "16 d^2", None,
                  sizes(10, 20, 40, 80), model_space_case, repeat),
            layer("orbits.frame_bounds", "L", "one-sided dense, D = 20, spectral radius 0.9", "16 D L",
                  "O(D^3 log N)", sizes(1024, 2048, 4096, 8192, 16384), bounds_in_L, repeat, fit=np.log2),
            layer("orbits.frame_bounds", "D", "one-sided dense, L = 4096, spectral radius 0.9", "16 D L",
                  "O(D^3 log N)", sizes(25, 50, 100, 200), bounds_in_D, repeat),
            layer("orbits.generator_closure", "L", "compressed shift, d = 10 ring zeros at 0.9", "16 D L",
                  "O(D^2 L)", sizes(500, 1000, 2000, 4000, 8000), closure_case, repeat),
            layer("blaschke.taylor_coeffs", "n", "d = 10 ring zeros at 0.9", "16 d (n + 1)", "O(d^2 n)",
                  sizes(1024, 2048, 4096, 8192, 16383), taylor_case, repeat),
        ],
        "cli": cli_rows(cli_problems((50, 200), 10), repeat),
        "run_problem": run_problem_rows(run_problem_problems(), repeat),
        "battery": battery_rows(repeat),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
