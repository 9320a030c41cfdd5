"""Self-time arithmetic, patching of every binding, and byte-stable reports."""

import json

import numpy as np
import pytest

import orbitframes
import orbitframes.cli as cli
from orbitframes import biinfinite, orbits

import oracles
import tracer
from tracer import END, NAME, PARENT, START, Tracer


def span(name, parent, start, end):
    return [name, "op", parent, start, end, False]


def test_self_time_on_a_synthetic_tree():
    spans = [
        span("root", None, 0.0, 10.0),
        span("a", 0, 1.0, 4.0),
        span("a.child", 1, 2.0, 3.0),
        span("b", 0, 5.0, 6.0),
        span("overlap", 0, 5.5, 7.0),
        span("other", None, 20.0, 21.0),
    ]
    own = tracer.self_times(spans)
    # root: 10 minus the union of [1, 4] and [5, 7].
    assert own == pytest.approx([5.0, 2.0, 1.0, 1.0, 1.5, 1.0])
    summary = tracer.summarize(spans)
    assert summary["root.self_ms"] == pytest.approx(5000.0)
    assert summary["a.calls"] == 1


def test_install_patches_every_binding_and_nests_spans():
    original = orbits.frame_bounds
    t = Tracer()
    t.install()
    try:
        assert cli.frame_bounds is orbits.frame_bounds is not original
        assert orbitframes.frame_bounds is orbits.frame_bounds
        assert biinfinite.synthesis_matrix is orbits.synthesis_matrix
        t.op = "x"
        spec = orbits.OrbitSpec(T=np.diag([0.5, 0.2]), f0=[1.0, 1.0], index_set="N", n_max=8)
        orbits.frame_bounds(spec)
        with pytest.raises(ValueError):
            orbits.kernel_shift_invariance(np.eye(2), tol=2.0)
    finally:
        t.uninstall()
    assert cli.frame_bounds is original and orbitframes.frame_bounds is original
    names = [s[NAME] for s in t.spans]
    assert names == ["orbits.OrbitSpec", "orbits.frame_bounds", "orbits.synthesis_matrix",
                     "orbits.kernel_shift_invariance"]
    assert t.spans[2][PARENT] == 1 and t.spans[1][PARENT] is None
    assert all(s[START] <= s[END] for s in t.spans)
    summary = tracer.summarize(t.spans)
    assert summary["orbits.kernel_shift_invariance.errors"] == 1
    assert t.counters["orbits.frame_bounds.gram_flops"] == 8 * 2**2 * 9
    assert t.counters["orbits.synthesis_matrix.columns"] == 9


def test_traced_reports_are_byte_identical(tmp_path):
    problem = tmp_path / "p.json"
    count = len(oracles.grid_mask([(0.5, 2.5)], 32))
    params = {"arcs": [[0.5, 2.5]], "M": 32, "n_max": 64, "psi": [[1.0, 0.5]] * count}
    problem.write_text(json.dumps({"kind": "biinfinite", "parameters": params}))
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert cli.main(["run", str(problem), "--out", str(plain)]) == 0
    t = Tracer()
    t.install()
    try:
        assert cli.main(["run", str(problem), "--out", str(traced)]) == 0
    finally:
        t.uninstall()
    assert plain.read_bytes() == traced.read_bytes()
    assert {s[NAME] for s in t.spans} >= {"cli.run_problem", "biinfinite.parseval_defect", "orbits.unitarity_defect"}
