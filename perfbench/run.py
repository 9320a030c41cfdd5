"""orbitframes benchmark: one workload, one seed, one line of metrics.

    python3 perfbench/run.py --workload orbit_frames --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout.  The inputs of the workload are
generated from the seed before anything is timed.  Set-up is measured by
spawning the workload process seven times (interpreter start, ``import
orbitframes.cli``, one warm-up problem).  The last of them then runs the
whole number of cycles of the op list nearest to ``--seconds``.  Every output is
checked against a numpy-only oracle (``oracles.py``) after the timed loop.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it records the environment, the tail percentile with its sample count,
every failure, and the per-layer detail.  See README.md in this
directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: Wall-clock budget of one run, set-up and checks included.
DEADLINE_S = 170.0

#: Number of set-up measurements per run (the last one goes on to measure).
SETUP_SAMPLES = 7

#: Tail percentile per workload.  It is fixed, so runs of different speed
#: compare the same point of the op mix; at the commit that defined the
#: benchmark at least 10 samples lie beyond it in a 45 s run.
TAIL_PERCENTILE = {
    "orbit_frames": 93,
    "model_space_series": 96,
}

END_TO_END = {
    "problems_per_s": "1/s",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

COMPUTED_COUNTS = {
    "orbits.synthesis_matrix.columns": "count",
    "orbits.frame_bounds.gram_flops": "flop",
    "orbits.kernel_shift_invariance.vh_bytes": "B",
    "blaschke.taylor_coeffs.coeffs": "count",
    "cli.input_numbers": "count",
    "cli.report_bytes": "B",
    "model_space.trunc_n_sum": "count",
    "constructions.auto_n_max_sum": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for mod, attr, _, _ in tracer.TARGETS:
        units[f"{mod}.{attr}.calls"] = "count"
        units[f"{mod}.{attr}.self_ms"] = "ms"
        units[f"{mod}.{attr}.errors"] = "count"
    units.update(COMPUTED_COUNTS)
    units["trace.overhead_frac"] = "ratio"
    for probe in workloads.probes(0):
        units[f"probe.{probe['id']}.failed"] = "count"
    return units


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, with weights from the
    Beta(q(n+1), (1-q)(n+1)) distribution.  Its run-to-run spread is much
    smaller than that of a single order statistic when the samples come from
    a mix of ops of very different cost.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    t = np.linspace(0.0, 1.0, 20001)
    mid = (t[1:] + t[:-1]) / 2.0
    log_pdf = (a - 1.0) * np.log(mid) + (b - 1.0) * np.log1p(-mid)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))])
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1]))
    return float(np.dot(weights, x))


def environment(seed: int) -> dict:
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "orbitframes")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "seed": seed,
    }


class Workdir:
    """Inputs, reports and spans of one run, under .perfbench_work/<workload>."""

    def __init__(self, workload: str):
        self.path = os.path.join(ROOT, ".perfbench_work", workload)
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(os.path.join(self.path, "problems"))
        os.makedirs(os.path.join(self.path, "reports"))

    def file(self, *parts: str) -> str:
        return os.path.join(self.path, *parts)

    def write_json(self, obj, *parts: str) -> str:
        path = self.file(*parts)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(1.0, self.end - time.monotonic())


def spawn_worker(work: Workdir, args, deadline: Deadline, setup_only: bool) -> float:
    """Start the workload process; return seconds from spawn to ready."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workdir", work.path,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    with open(work.file("worker.log"), "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=deadline.left())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("workload process ran past the deadline") from None
        finally:
            proc.stdout.close()
    if line.strip() != b"ready" or code != 0:
        with open(work.file("worker.log"), encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError(f"workload process failed (exit {code}):\n{tail}")
    return ready


def _load_report(path: str) -> dict:
    def reject(token):
        raise ValueError(f"non-finite number {token} in report")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


def check_op(op: dict, work: Workdir, projection_atol: float = oracles.PROJECTION_ATOL) -> list[str]:
    """Oracle problems of the first run of one op (repeats are byte-compared in the worker)."""
    try:
        if "session" in op:
            with np.load(work.file("reports", op["id"] + ".npz")) as data:
                out = {k: data[k] for k in data.files}
            return oracles.check_session(op, out, projection_atol)
        return oracles.check_report(op, _load_report(work.file("reports", op["id"] + ".json")))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{type(exc).__name__}: {exc}"]


def probe_failed(op: dict, failure, work: Workdir) -> str | None:
    """Why a probe failed, or None.  Carleson inputs may also be rejected (exit 2 or 3)."""
    if failure is None:
        errs = check_op(op, work, projection_atol=oracles.COEFF_ATOL)
        return "; ".join(errs) if errs else None
    if "problem" in op and op["problem"]["kind"] == "carleson" and failure in ("exit 2", "exit 3"):
        return None
    return failure


def layer_metrics(result: dict, ops: list[dict], work: Workdir) -> dict[str, float]:
    traced_cycles = len(result["cycle_s"])
    with open(work.file("spans.jsonl"), encoding="utf-8") as fh:
        spans = []
        for line in fh:
            s = json.loads(line)
            spans.append([s["name"], s["op"], s["parent"], s["start"], s["end"], s["raised"]])
    summary = tracer.summarize(spans)
    metrics = {}
    for name in per_layer_units():
        metrics[name] = summary.get(name, 0.0) / traced_cycles
    for name, value in result["counters"].items():
        metrics[name] = value / traced_cycles
    report_bytes = input_numbers = trunc_sum = auto_sum = 0
    for op in ops:
        if "problem" not in op:
            continue
        params = op["problem"]["parameters"]
        input_numbers += workloads.count_numbers(params)
        path = work.file("reports", op["id"] + ".json")
        report_bytes += os.path.getsize(path)
        res = _load_report(path)["results"]
        kind = op["problem"]["kind"]
        if kind == "model_space":
            trunc_sum += res["trunc_n"]
        if kind in ("normal_construction", "perturbation") and "n_max" not in params:
            auto_sum += res["n_max"]
    metrics["cli.input_numbers"] = input_numbers
    metrics["cli.report_bytes"] = report_bytes
    metrics["model_space.trunc_n_sum"] = trunc_sum
    metrics["constructions.auto_n_max_sum"] = auto_sum
    plain = sum(e[1] for e in result["executions"] if not e[3])
    traced = sum(e[1] for e in result["executions"] if e[3])
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = Deadline(DEADLINE_S)

    if not os.path.isfile(os.path.join(ROOT, "src", "orbitframes", "cli.py")):
        print(f"error: no orbitframes sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    work = Workdir(args.workload)
    ops = workloads.generate(args.workload, args.seed)
    probes = workloads.probes(args.seed) if args.trace else []
    for op in ops + probes:
        if "problem" in op:
            op["file"] = work.write_json(op["problem"], "problems", op["id"] + ".json")
    manifest = {
        "ops": [{k: op[k] for k in ("id", "file", "session") if k in op} for op in ops],
        "probes": [{k: p[k] for k in ("id", "file", "session") if k in p} for p in probes],
    }
    work.write_json(manifest, "ops.json")
    work.write_json(workloads.WARMUPS[args.workload], "warmup.json")

    try:
        setup = [spawn_worker(work, args, deadline, setup_only=True) for _ in range(SETUP_SAMPLES - 1)]
        setup.append(spawn_worker(work, args, deadline, setup_only=False))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(work.file("results.json"), encoding="utf-8") as fh:
        result = json.load(fh)

    by_id = {op["id"]: op for op in ops}
    oracle_errors = {op_id: check_op(by_id[op_id], work) for op_id in {e[0] for e in result["executions"]}}
    failures = []
    per_op: dict[str, list[float]] = {}
    for op_id, seconds, failure, _ in result["executions"]:
        why = failure or ("; ".join(oracle_errors[op_id]) if oracle_errors[op_id] else None)
        if why:
            failures.append({"op": op_id, "why": why})
        per_op.setdefault(op_id, []).append(seconds)
    attempted = len(result["executions"])
    failed = len(failures)
    # Each op's latency is the median of its repeats, so that a burst of load
    # from outside the process moves one sample of an op, not the op.
    op_latency = [float(np.median(v)) for v in per_op.values()]
    group_s = {}
    for op in ops:
        group_s[op["group"]] = group_s.get(op["group"], 0.0) + float(np.median(per_op[op["id"]]))

    detail = {
        "workload": args.workload,
        "environment": env,
        "ops_per_cycle": len(ops),
        "cycle_s": result["cycle_s"],
        "group_s_per_cycle": group_s,
        "loop_s": result["elapsed_s"],
        "setup_samples_s": setup,
        "failed_frac": failed / attempted,
        "failures": failures,
    }
    if args.trace:
        metrics = layer_metrics(result, ops, work)
        for probe, (op_id, _, failure) in zip(probes, result["probes"]):
            why = probe_failed(probe, failure, work)
            metrics[f"probe.{op_id}.failed"] = 1 if why else 0
            detail[f"probe.{op_id}"] = why
        units = per_layer_units()
        detail["spans_file"] = os.path.relpath(work.file("spans.jsonl"), ROOT)
    else:
        q = TAIL_PERCENTILE[args.workload] / 100.0
        metrics = {
            "problems_per_s": (attempted - failed) / result["elapsed_s"],
            "latency_tail_ms": harrell_davis(op_latency, q) * 1e3,
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": float(np.median(setup)),
        }
        # Recorded but not a gated metric: the median op of every workload is
        # short and memory-bound, and on a shared machine its time drifts
        # from run to run by about the largest bound a gate may use.
        detail["latency_p50_ms"] = harrell_davis(op_latency, 0.5) * 1e3
        detail["latency_tail_percentile"] = TAIL_PERCENTILE[args.workload]
        detail["latency_samples"] = attempted
        detail["latency_samples_beyond_tail"] = attempted - math.ceil(q * attempted)
        units = END_TO_END
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
