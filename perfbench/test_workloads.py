"""The generator: deterministic per seed, fixed size classes across seeds."""

import json

import pytest

import workloads


def shape(op):
    if "session" in op:
        return ("session", len(op["session"]["zeros"]), op["session"]["n"])
    p = op["problem"]["parameters"]
    size = len(p.get("zeros", p.get("T", p.get("fhat_samples", p.get("arcs")))))
    return (op["problem"]["kind"], size, str(p.get("n_max")), str(p.get("M")))


@pytest.mark.parametrize("name", tuple(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    first = json.dumps(workloads.generate(name, 11), sort_keys=True)
    assert json.dumps(workloads.generate(name, 11), sort_keys=True) == first
    assert json.dumps(workloads.generate(name, 12), sort_keys=True) != first


@pytest.mark.parametrize("name", tuple(workloads.WORKLOADS))
def test_seeds_share_the_size_classes(name):
    a = sorted(map(shape, workloads.generate(name, 1)))
    b = sorted(map(shape, workloads.generate(name, 2)))
    assert a == b
    ids = [op["id"] for op in workloads.generate(name, 1)]
    assert len(set(ids)) == len(ids)


def test_probes_are_deterministic():
    assert json.dumps(workloads.probes(3)) == json.dumps(workloads.probes(3))


def test_count_numbers():
    assert workloads.count_numbers({"a": [[1.0, 2.0], [3, 4]], "b": True, "c": "x"}) == 4
