"""Seeded inputs for the two workloads.

A workload is made of op groups: ``orbit_frames`` of ``certify_sweep``,
``generator_recovery`` and ``two_sided_grid``, and ``model_space_series``
of itself.  ``generate(name, seed)`` returns the op list of one cycle.  The
size classes of a cycle are fixed; the seed draws only the numbers inside
them (zero angles, seed weights, changes of basis, arc positions) and the
order of the ops.  So the cost of a cycle barely depends on the seed, and
runs with different seeds measure the same mix.

An op is a dict with an ``id`` and either a ``problem`` (a JSON problem for
``orbitframes run``) or a ``session`` (a chain of library calls).  Its
``oracle`` entry holds what the generator knows and the problem does not
(eigenvectors, dual coefficients); the program never sees it.
"""

from __future__ import annotations

import math

import numpy as np

from oracles import grid_mask, shift_closed_form

TWO_PI = 2.0 * math.pi

#: The op groups a cycle of each workload is made of.
WORKLOADS = {
    "orbit_frames": ("certify_sweep", "generator_recovery", "two_sided_grid"),
    "model_space_series": ("model_space_series",),
}


def pairs(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.ravel(np.asarray(v, dtype=np.complex128))]


def pair_matrix(m) -> list:
    return [pairs(row) for row in np.asarray(m)]


def random_phases(rng, n: int) -> np.ndarray:
    return np.exp(1j * rng.uniform(0.0, TWO_PI, n))


def seed_weights(rng, n: int) -> np.ndarray:
    return rng.uniform(0.5, 1.5, n) * random_phases(rng, n)


def ring_zeros(rng, J: int, radius: float) -> np.ndarray:
    """J zeros near radius, angles jittered by a tenth of their spacing."""
    angles = TWO_PI * (np.arange(J) + rng.uniform(-0.1, 0.1, J)) / J
    radii = radius + rng.uniform(-0.002, 0.002, J)
    return radii * np.exp(1j * (angles + rng.uniform(0.0, TWO_PI)))


def separated_zeros(rng, d: int, r_max: float, r_min: float = 0.1) -> np.ndarray:
    """d zeros at radii evenly spaced on [r_min, r_max], in that order, and
    at seeded angles, with pseudo-hyperbolic distance >= 0.05.

    The radii are fixed because they set the cost: powers of small zeros
    reach subnormal floats, whose arithmetic is many times slower.
    """
    radii = np.linspace(r_min, r_max, d)
    while True:
        z = radii * random_phases(rng, d)
        diff = np.abs(z[:, None] - z[None, :]) / np.abs(1.0 - np.conj(z)[:, None] * z[None, :])
        if d < 2 or np.min(diff + np.eye(d)) >= 0.05:
            return z


def skew_basis(rng, D: int) -> np.ndarray:
    """Well-conditioned change of basis I + 0.3 G / sqrt(2D), G complex Gaussian."""
    G = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
    return np.eye(D) + 0.3 * G / math.sqrt(2.0 * D)


def boundary_zeros(rng, J: int) -> np.ndarray:
    """Radii 1 - 2^(-j-1), j < J, at random angles: an interpolating sequence."""
    return (1.0 - 2.0 ** (-np.arange(J) - 1.0)) * random_phases(rng, J)


# ------------------------------------------------------------ certify_sweep


def _normal(rng, zeros, n_max=None) -> dict:
    c = seed_weights(rng, len(zeros))
    params = {"zeros": pairs(zeros), "coeffs": pairs(c)}
    if n_max is not None:
        params["n_max"] = n_max
    return {"problem": {"kind": "normal_construction", "parameters": params}}


def _perturbation(rng, J: int) -> dict:
    zeros = boundary_zeros(rng, J)
    c = seed_weights(rng, J)
    k, l = (int(x) for x in rng.choice(J, size=2, replace=False))
    bad = (zeros[k] - zeros[l]) * c[l] / c[k]
    while True:
        tau = rng.uniform(0.1, 0.5) * random_phases(rng, 1)[0]
        if abs(tau - bad) > 0.05 * abs(bad):
            break
    params = {"zeros": pairs(zeros), "coeffs": pairs(c), "k": k, "l": l, "tau": pairs([tau])[0]}
    return {"problem": {"kind": "perturbation", "parameters": params}}


def certify_sweep(rng) -> list[dict]:
    ops = []
    radii = iter(np.linspace(0.9, 0.98, 9))
    for J in (8, 50, 200):
        for n_max in (256, 4096, 16384):
            ops.append(_normal(rng, ring_zeros(rng, J, next(radii)), n_max))
    for J in (8, 9):
        ops.append(_normal(rng, boundary_zeros(rng, J)))
        ops.append(_perturbation(rng, J))
    return ops


# ------------------------------------------------------------ model_space_series


def _model_space(rng, d: int, r_max: float, decay) -> dict:
    params = {"zeros": pairs(separated_zeros(rng, d, r_max))}
    if decay:
        params["decay_n_max"] = decay
    return {"problem": {"kind": "model_space", "parameters": params}}


def _session(rng, d: int, n: int) -> dict:
    zeros = separated_zeros(rng, d, 0.9)
    poly = rng.normal(size=17) + 1j * rng.normal(size=17)
    m = int(rng.integers(0, 61))
    return {"session": {"zeros": pairs(zeros), "poly": pairs(poly), "m": m, "n": n}}


def model_space_series(rng) -> list[dict]:
    ops = []
    decays = [0, 500, 2000]
    i = 0
    for d in (2, 5, 10, 20):
        for r in (0.5, 0.9, 0.99) * 2 + ((0.999,) if d <= 5 else ()):
            ops.append(_model_space(rng, d, r, decays[i % 3]))
            i += 1
    for d in (2, 5, 10, 20, 5, 10, 20):
        zeros = separated_zeros(rng, d, 0.95, r_min=0.0)
        ops.append({"problem": {"kind": "carleson", "parameters": {"zeros": pairs(zeros)}}})
    for d in (2, 10, 20):
        for n in (1024, 4096):
            ops.append(_session(rng, d, n))
    return ops


# ------------------------------------------------------------ generator_recovery


def _orbit(rng, n_max: int, index: int) -> dict:
    D = 2 + index % 9
    if index % 2 == 0:
        zeros = separated_zeros(rng, D, 0.9)
        T, f0 = shift_closed_form(zeros)
        oracle = {"model": "shift", "zeros": pairs(zeros)}
    else:
        radii = np.linspace(0.3, 0.9, D)
        lam = radii * np.exp(1j * TWO_PI * (np.arange(D) + rng.uniform(-0.2, 0.2, D)) / D)
        W = skew_basis(rng, D)
        c = seed_weights(rng, D)
        T = W @ np.diag(lam) @ np.linalg.inv(W)
        f0 = W @ c
        oracle = {"model": "diagonal", "lam": pairs(lam), "c": pairs(c), "W": pair_matrix(W)}
    params = {"T": pair_matrix(T), "f0": pairs(f0), "index_set": "N", "n_max": n_max, "recover_generator": True}
    if index % 3 == 0:
        params["bounds_schedule"] = [n_max // 8, n_max // 4, n_max // 2]
    return {"problem": {"kind": "orbit_analysis", "parameters": params}, "oracle": oracle}


def generator_recovery(rng) -> list[dict]:
    sizes = [3999] + [1999] * 2 + [499] * 24
    return [_orbit(rng, n, i) for i, n in enumerate(sizes)]


# ------------------------------------------------------------ two_sided_grid


def _odd_angle(k: int) -> float:
    """2 pi (2k+1) / 1024: never a grid point for M dividing 512."""
    return TWO_PI * (2 * k + 1) / 1024.0


def _arcs(rng, shape: str) -> list:
    if shape == "full":
        start = float(rng.uniform(0.0, 1.0))
        return [[start, start + TWO_PI + 0.25]]
    if shape == "half":
        k = int(rng.integers(0, 256))
        return [[_odd_angle(k), _odd_angle(k + 256)]]
    # Two arcs of a quarter circle each (fixed measure, so a fixed grid
    # dimension), at seeded places that do not overlap.
    first = int(rng.integers(0, 128))
    second = int(rng.integers(first + 136, 384))
    return [[_odd_angle(first), _odd_angle(first + 128)], [_odd_angle(second), _odd_angle(second + 128)]]


def _biinfinite(rng, shape: str, M: int, n_max: int, with_psi: bool) -> dict:
    arcs = _arcs(rng, shape)
    params = {"arcs": arcs, "M": M, "n_max": n_max}
    if with_psi:
        count = len(grid_mask([tuple(a) for a in arcs], M))
        params["psi"] = pairs(rng.uniform(0.5, 1.5, count) * random_phases(rng, count))
    return {"problem": {"kind": "biinfinite", "parameters": params}}


def _translates(rng, period_count: int, m: int) -> dict:
    omega = (np.arange(2 * period_count * m) / m) - period_count
    bumps = np.exp(-((omega / rng.uniform(0.5, 1.5)) ** 2)) * (1.0 + 0.5 * np.sin(rng.uniform(1, 5) * omega)) ** 2
    cut = rng.uniform(0.1, 0.4)
    bumps[np.abs(np.mod(omega, 1.0) - 0.5) < cut / 2] = 0.0
    params = {"fhat_samples": [float(x) for x in bumps], "period_count": period_count}
    return {"problem": {"kind": "translates", "parameters": params}}


def _dense_two_sided(rng, D: int) -> dict:
    theta = TWO_PI * (np.arange(D) + rng.uniform(-0.3, 0.3, D)) / D
    lam = np.exp(1j * theta)
    W = skew_basis(rng, D)
    c = seed_weights(rng, D)
    T = W @ np.diag(lam) @ np.linalg.inv(W)
    params = {"T": pair_matrix(T), "f0": pairs(W @ c), "index_set": "Z", "n_max": 1024}
    oracle = {"model": "diagonal", "lam": pairs(lam), "c": pairs(c), "W": pair_matrix(W)}
    return {"problem": {"kind": "orbit_analysis", "parameters": params}, "oracle": oracle}


def two_sided_grid(rng) -> list[dict]:
    ops = []
    for shape, sizes in (("full", (128, 256)), ("half", (128, 256, 512)), ("two", (128, 256, 512))):
        for M in sizes:
            for n_max in (M, 4 * M):
                ops.append(_biinfinite(rng, shape, M, n_max, shape != "full" and n_max == M))
    for period_count, m in ((2, 64), (4, 64), (2, 256), (8, 128)):
        ops.append(_translates(rng, period_count, m))
    for D in (50, 50, 200):
        ops.append(_dense_two_sided(rng, D))
    return ops


# ------------------------------------------------------------ entry points

_GROUPS = {
    "certify_sweep": certify_sweep,
    "model_space_series": model_space_series,
    "generator_recovery": generator_recovery,
    "two_sided_grid": two_sided_grid,
}

#: One small problem per workload, run once before the workload is ready.
WARMUPS = {
    "orbit_frames": {"kind": "normal_construction", "parameters": {"zeros": [[0.5, 0.0], [-0.3, 0.2]], "coeffs": [[1.0, 0.0], [0.5, 0.5]], "n_max": 64}},
    "model_space_series": {"kind": "model_space", "parameters": {"zeros": [[0.5, 0.0], [0.0, -0.3]], "decay_n_max": 16}},
}


def generate(name: str, seed: int) -> list[dict]:
    """The ops of one cycle of workload ``name``, in seeded order, with ids."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    ops = []
    for group in WORKLOADS[name]:
        for op in _GROUPS[group](rng):
            op["group"] = group
            ops.append(op)
    order = rng.permutation(len(ops))
    out = []
    for rank, i in enumerate(order):
        op = ops[i]
        op["id"] = f"{rank:03d}"
        out.append(op)
    return out


def probes(seed: int) -> list[dict]:
    """Inputs that fail at the commit that defined the benchmark.

    * a model space with one zero at 0.9999 (exit 3), whose closed form is
      the 1x1 matrix [[0.9999]];
    * 400 random zeros, whose separation constant's fourth power underflows
      (a raw ZeroDivisionError);
    * a degree-20 session whose ``project_model`` is held to float accuracy.

    They run once, outside the timed loop, in the traced run, so the timed
    workloads hold only inputs on which no operation fails.
    """
    rng = np.random.default_rng([seed, 99])
    zeros = 0.99 * np.sqrt(rng.uniform(0.0, 1.0, 400)) * random_phases(rng, 400)
    session = _session(rng, 20, 1024)
    session["id"] = "project_model_d20"
    return [
        {"id": "model_space_0p9999", "problem": {"kind": "model_space", "parameters": {"zeros": [[0.9999, 0.0]]}}},
        {"id": "carleson_400", "problem": {"kind": "carleson", "parameters": {"zeros": pairs(zeros)}}},
        session,
    ]


def count_numbers(obj) -> int:
    """Number leaves in a JSON value (the size of a problem's input)."""
    if isinstance(obj, bool):
        return 0
    if isinstance(obj, (int, float)):
        return 1
    if isinstance(obj, dict):
        return sum(count_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return sum(count_numbers(v) for v in obj)
    return 0
