"""Reference values for every benchmark output, computed with numpy alone.

Nothing here imports the package under test.  Each oracle is a closed form
or a brute-force loop:

* one-sided diagonalizable orbits (T = W diag(l) W^-1, f0 = W c):
  S_N = W C_N W* with C_N[j,k] = c_j conj(c_k) (1 - (l_j conj l_k)^(N+1))
  / (1 - l_j conj l_k);
* compressed-shift orbits of phi: S_N = I - A^(N+1) A*^(N+1);
* two-sided unimodular orbits (grids and dense W diag(e^{i theta}) W^-1):
  the Dirichlet kernel sum_{|n|<=N} e^{inx} = sin((N+1/2)x) / sin(x/2);
* the model space: the Garcia-Mashreghi-Ross closed form for A and phi;
* the separation constant: a double loop over the zero list;
* Taylor coefficients, basis coordinates and projections: quadrature on
  a fine grid of the circle (an FFT), where the rational functions are
  evaluated pointwise.

``check_*`` functions return a list of problems found; an empty list means
the output agrees with its oracle.
"""

from __future__ import annotations

import math

import numpy as np

#: Agreement required of frame bounds: upper bounds relatively, lower
#: bounds absolutely against the upper bound (eigvalsh of U U* cannot
#: resolve a lower bound below a small multiple of the upper one).
BOUND_RTOL = 1e-9

#: Entrywise agreement required of the compressed shift, phi and decay
#: profiles.  The package's series construction is within 1.3e-9 of the
#: closed form on its hardest case (d = 10, a zero at radius 0.999).
MODEL_ATOL = 1e-8

#: Agreement required of coefficient windows and coordinates.
COEFF_ATOL = 1e-9

#: Agreement required of ``project_model`` in the timed sessions.  At the
#: commit that defined the benchmark its last window coefficients are up to
#: 1e-8 off the exact projection for d = 20, although its docstring promises
#: float accuracy; the ``project_model_d20`` probe holds it to COEFF_ATOL
#: and records that defect.
PROJECTION_ATOL = 1e-7

#: Agreement required of closed-form scalars (separation, capacity, measures).
SCALAR_RTOL = 1e-9

#: Largest acceptable residual for quantities that vanish exactly
#: (kernel shift invariance of a true orbit, unitarity of a periodic grid).
ZERO_ATOL = 1e-9

#: Largest acceptable spectral-norm gap between a recovered generator and T.
GENERATOR_RTOL = 1e-8

#: Relative agreement required of the two-sided unitarity defect.
DEFECT_RTOL = 1e-6


def cvec(pairs) -> np.ndarray:
    return np.array([complex(a, b) for a, b in pairs], dtype=np.complex128)


def cmat(rows) -> np.ndarray:
    return np.array([[complex(a, b) for a, b in row] for row in rows], dtype=np.complex128)


# ---------------------------------------------------------------- closed forms


def diagonal_gram(lam, c, n_max: int) -> np.ndarray:
    """C_N for the one-sided orbit of diag(lam) seeded with c."""
    lam = np.asarray(lam, dtype=np.complex128)
    c = np.asarray(c, dtype=np.complex128)
    q = lam[:, None] * np.conj(lam)[None, :]
    geom = np.empty_like(q)
    one = np.isclose(q, 1.0, rtol=0.0, atol=1e-15)
    geom[one] = n_max + 1
    qq = q[~one]
    geom[~one] = (1.0 - qq ** (n_max + 1)) / (1.0 - qq)
    return c[:, None] * np.conj(c)[None, :] * geom


def diagonal_tail(lam, c, n_max: int) -> np.ndarray:
    """C_inf - C_N for a one-sided orbit with every |lam| < 1."""
    lam = np.asarray(lam, dtype=np.complex128)
    c = np.asarray(c, dtype=np.complex128)
    q = lam[:, None] * np.conj(lam)[None, :]
    return c[:, None] * np.conj(c)[None, :] * q ** (n_max + 1) / (1.0 - q)


def dirichlet(x, n_max: int) -> np.ndarray:
    """sum_{n=-N}^{N} e^{inx}, elementwise."""
    x = np.asarray(x, dtype=float)
    x = np.angle(np.exp(1j * x))  # wrap into (-pi, pi]
    half = np.sin(x / 2.0)
    out = np.full(x.shape, 2.0 * n_max + 1.0)
    nz = np.abs(half) > 1e-300
    out[nz] = np.sin((n_max + 0.5) * x[nz]) / half[nz]
    return out


def two_sided_gram(theta, c, n_max: int) -> np.ndarray:
    """Frame operator of the two-sided orbit of diag(e^{i theta}) seeded with c."""
    theta = np.asarray(theta, dtype=float)
    c = np.asarray(c, dtype=np.complex128)
    kernel = dirichlet(theta[:, None] - theta[None, :], n_max)
    return c[:, None] * np.conj(c)[None, :] * kernel


def shift_closed_form(zeros) -> tuple[np.ndarray, np.ndarray]:
    """Compressed shift A and seed phi in the Takenaka-Malmquist basis.

    A[j,j] = l_j; A[k,j] = sqrt(1-|l_j|^2) sqrt(1-|l_k|^2)
    prod_{j<m<k} (-conj l_m) for k > j; phi_k = sqrt(1-|l_k|^2)
    prod_{m<k} (-conj l_m).
    """
    zeros = np.asarray(zeros, dtype=np.complex128)
    d = len(zeros)
    w = np.sqrt(1.0 - np.abs(zeros) ** 2)
    A = np.diag(zeros)
    phi = np.empty(d, dtype=np.complex128)
    for k in range(d):
        phi[k] = w[k] * np.prod(-np.conj(zeros[:k]))
        for j in range(k):
            A[k, j] = w[j] * w[k] * np.prod(-np.conj(zeros[j + 1 : k]))
    return A, phi


def shift_gram(zeros, n_max: int) -> np.ndarray:
    """S_N = I - A^(N+1) A*^(N+1) for the orbit of phi under A."""
    A, _ = shift_closed_form(zeros)
    P = np.linalg.matrix_power(A, n_max + 1)
    return np.eye(len(A)) - P @ P.conj().T


def carleson_delta(zeros) -> float:
    """inf_j prod_{k != j} |(l_j - l_k) / (1 - conj(l_j) l_k)|, by loops."""
    zs = [complex(z) for z in zeros]
    if len(zs) <= 1:
        return 1.0
    best = math.inf
    for j, a in enumerate(zs):
        prod = 1.0
        for k, b in enumerate(zs):
            if k != j:
                prod *= abs(a - b) / abs(1.0 - a.conjugate() * b)
        best = min(best, prod)
    return best


def capacity(delta: float) -> float:
    return (2.0 / delta**4) * (1.0 - 2.0 * math.log(delta))


def blaschke_factors(zeros, z) -> list[np.ndarray]:
    """Values of each disk factor (z - l) / (1 - conj(l) z) at the points z."""
    return [(z - lam) / (1.0 - np.conj(lam) * z) for lam in zeros]


def tm_basis_values(zeros, z) -> np.ndarray:
    """Values of the orthonormal Takenaka-Malmquist basis, shape (d, len(z))."""
    factors = blaschke_factors(zeros, z)
    out = np.empty((len(zeros), len(z)), dtype=np.complex128)
    partial = np.ones(len(z), dtype=np.complex128)
    for k, lam in enumerate(zeros):
        out[k] = math.sqrt(1.0 - abs(lam) ** 2) / (1.0 - np.conj(lam) * z) * partial
        partial = partial * factors[k]
    return out


def circle(points: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(points) / points)


def taylor_by_fft(zeros, n: int, points: int) -> np.ndarray:
    """First n+1 Taylor coefficients of the product, by quadrature."""
    z = circle(points)
    values = np.ones(points, dtype=np.complex128)
    for f in blaschke_factors(zeros, z):
        values = values * f
    return (np.fft.fft(values) / points)[: n + 1]


# ---------------------------------------------------------------- helpers


def _frame_errors(label: str, report: dict, S: np.ndarray) -> list[str]:
    eigs = np.linalg.eigvalsh(S)
    lo, hi = max(float(eigs[0]), 0.0), float(eigs[-1])
    errs = []
    if abs(report["upper_bound"] - hi) > BOUND_RTOL * hi:
        errs.append(f"{label} upper {report['upper_bound']!r} vs oracle {hi!r}")
    if abs(report["lower_bound"] - lo) > BOUND_RTOL * hi:
        errs.append(f"{label} lower {report['lower_bound']!r} vs oracle {lo!r}")
    defect = max(abs(lo - 1.0), abs(hi - 1.0))
    if abs(report["parseval_defect"] - defect) > BOUND_RTOL * max(hi, 1.0):
        errs.append(f"{label} parseval_defect {report['parseval_defect']!r} vs {defect!r}")
    return errs


def _tail_errors(report: dict, true_tail: float) -> list[str]:
    est = report["tail_estimate"]
    if est is not None and est < true_tail * (1.0 - BOUND_RTOL) - 1e-300:
        return [f"tail_estimate {est!r} below the exact tail {true_tail!r}"]
    return []


def _close(label: str, got, want, rtol: float, atol: float = 0.0) -> list[str]:
    if abs(got - want) > atol + rtol * abs(want):
        return [f"{label} {got!r} vs oracle {want!r}"]
    return []


def _max_gap(got, want) -> float:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return math.inf
    return float(np.max(np.abs(got - want))) if got.size else 0.0


# ---------------------------------------------------------------- checks


def check_normal(o: dict, params: dict, report: dict) -> list[str]:
    res, cert = report["results"], report["certificates"]
    lam, c = cvec(params["zeros"]), cvec(params["coeffs"])
    n = res["n_max"]
    errs = []
    if "n_max" in params and n != params["n_max"]:
        errs.append(f"n_max {n} vs requested {params['n_max']}")
    if not 64 <= n <= 16384 and "n_max" not in params:
        errs.append(f"automatic depth {n} outside [64, 16384]")
    rep = res["frame_report"]
    errs += _frame_errors("frame", rep, diagonal_gram(lam, c, n))
    true_tail = float(np.real(np.trace(diagonal_tail(lam, c, n))))
    errs += _tail_errors(rep, true_tail)
    weights = np.abs(c) ** 2 / (1.0 - np.abs(lam) ** 2)
    delta = carleson_delta(lam)
    cap = capacity(delta)
    spec = res["spec"]
    errs += _close("delta", spec["delta"], delta, SCALAR_RTOL)
    errs += _close("capacity", spec["capacity"], cap, SCALAR_RTOL)
    errs += _close("alpha", spec["alpha"], float(weights.min()), SCALAR_RTOL)
    errs += _close("beta", spec["beta"], float(weights.max()), SCALAR_RTOL)
    errs += _close("certificate lower", cert["lower"], weights.min() / cap, SCALAR_RTOL)
    errs += _close("certificate upper", cert["upper"], weights.max() * cap, SCALAR_RTOL)
    if res["certificate_contains_measured"] is not True:
        errs.append("certificate does not contain the measured bounds")
    return errs


def perturbed_bases(lam, k: int, l: int, tau: complex) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors H and biorthogonal duals G of diag(lam) + tau e_l e_k^*."""
    J = len(lam)
    d = lam[k] - lam[l]
    H = np.eye(J, dtype=np.complex128)
    G = np.eye(J, dtype=np.complex128)
    H[l, k] = tau
    H[k, k] = d
    G[k, l] = -np.conj(tau) / np.conj(d)
    G[k, k] = 1.0 / np.conj(d)
    return H, G


def check_perturbation(o: dict, params: dict, report: dict) -> list[str]:
    res, cert = report["results"], report["certificates"]
    lam, c = cvec(params["zeros"]), cvec(params["coeffs"])
    k, l, tau = params["k"], params["l"], complex(*params["tau"])
    H, G = perturbed_bases(lam, k, l, tau)
    dual = G.conj().T @ c
    n = res["n_max"]
    errs = []
    if not 64 <= n <= 16384:
        errs.append(f"automatic depth {n} outside [64, 16384]")
    rep = res["frame_report"]
    errs += _frame_errors("frame", rep, H @ diagonal_gram(lam, dual, n) @ H.conj().T)
    tail = H @ diagonal_tail(lam, dual, n) @ H.conj().T
    errs += _tail_errors(rep, float(np.real(np.trace(tail))))
    slack = (rep["tail_estimate"] or 0.0) + BOUND_RTOL * rep["upper_bound"]
    if not (cert["lower"] - slack <= rep["lower_bound"] and rep["upper_bound"] <= cert["upper"] * (1 + BOUND_RTOL)):
        errs.append("perturbation certificate does not contain the measured bounds")
    for key in ("biorthogonality_residual", "diagonalization_residual"):
        if res["perturbed"][key] > ZERO_ATOL:
            errs.append(f"{key} {res['perturbed'][key]!r}")
    bad = (lam[k] - lam[l]) * c[l] / c[k]
    errs += _close("excluded_tau", complex(*res["excluded_tau"]), bad, SCALAR_RTOL)
    return errs


def check_orbit_analysis(o: dict, p: dict, report: dict) -> list[str]:
    res = report["results"]
    T = cmat(p["T"])
    errs = []
    if o["model"] == "shift":
        A, phi = shift_closed_form(cvec(o["zeros"]))
        if _max_gap(A, T) > 0.0 or _max_gap(phi, cvec(p["f0"])) > 0.0:
            errs.append("input is not the closed-form compressed shift")

        def gram(n):
            return shift_gram(cvec(o["zeros"]), n)

        def tail(n):
            P = np.linalg.matrix_power(A, n + 1)
            return float(np.real(np.trace(P @ P.conj().T)))
    else:
        lam, c, W = cvec(o["lam"]), cvec(o["c"]), cmat(o["W"])
        if p["index_set"] == "Z":
            theta = np.angle(lam)

            def gram(n):
                return W @ two_sided_gram(theta, c, n) @ W.conj().T
        else:

            def gram(n):
                return W @ diagonal_gram(lam, c, n) @ W.conj().T

        def tail(n):
            return float(np.real(np.trace(W @ diagonal_tail(lam, c, n) @ W.conj().T)))

    n = p["n_max"]
    S = gram(n)
    rep = res["frame_report"]
    errs += _frame_errors("frame", rep, S)
    if p["index_set"] == "N":
        errs += _tail_errors(rep, tail(n))
        if res["kernel_residual"] > ZERO_ATOL:
            errs.append(f"kernel_residual {res['kernel_residual']!r} of a true orbit")
        if p.get("recover_generator"):
            gap = float(np.linalg.norm(cmat(res["generator"]) - T, 2))
            if gap > GENERATOR_RTOL * max(1.0, float(np.linalg.norm(T, 2))):
                errs.append(f"recovered generator is {gap:.3e} from T")
            if res["generator_consistency"] > GENERATOR_RTOL * max(1.0, float(np.linalg.norm(T, 2))):
                errs.append(f"generator_consistency {res['generator_consistency']!r}")
    else:
        want = unitarity_defect(S, T)
        errs += _close("unitarity_defect", res["unitarity_defect"], want, DEFECT_RTOL, ZERO_ATOL)
    for row in res.get("bounds_schedule", []):
        errs += _frame_errors(f"schedule n_max={row['n_max']}", row, gram(row["n_max"]))
    if [r["n_max"] for r in res.get("bounds_schedule", [])] != p.get("bounds_schedule", []):
        errs.append("bounds_schedule rows do not follow the requested schedule")
    return errs


def unitarity_defect(S: np.ndarray, T: np.ndarray) -> float:
    """|| W* W - I ||_2 for W = S^{-1/2} T S^{1/2} (aperiodic two-sided orbit)."""
    w, Q = np.linalg.eigh(S)
    w = np.maximum(w, w[0] / 100.0)
    root = (Q * np.sqrt(w)) @ Q.conj().T
    inv_root = (Q / np.sqrt(w)) @ Q.conj().T
    W = inv_root @ T @ root
    return float(np.linalg.norm(W.conj().T @ W - np.eye(len(T)), 2))


def check_model_space(o: dict, params: dict, report: dict) -> list[str]:
    res = report["results"]
    zeros = cvec(params["zeros"])
    d = len(zeros)
    A, phi = shift_closed_form(zeros)
    errs = []
    if res["dim"] != d:
        errs.append(f"dim {res['dim']} vs {d}")
    gap = _max_gap(cmat(res["shift_matrix"]), A)
    if gap > MODEL_ATOL:
        errs.append(f"shift_matrix is {gap:.3e} from the closed form")
    gap = _max_gap(cvec(res["phi"]), phi)
    if gap > MODEL_ATOL:
        errs.append(f"phi is {gap:.3e} from the closed form")
    if not res["gram_residual"] <= 1e-8:
        errs.append(f"gram_residual {res['gram_residual']!r} above 1e-8")
    if res["trunc_n"] < max(8 * d, 64):
        errs.append(f"trunc_n {res['trunc_n']} below the floor")
    n_decay = params.get("decay_n_max")
    if n_decay is not None:
        want = np.empty(n_decay + 1)
        v = phi.copy()
        for n in range(n_decay + 1):
            want[n] = np.linalg.norm(v)
            v = A @ v
        gap = _max_gap(np.array(res["decay_profile"]), want)
        if gap > MODEL_ATOL:
            errs.append(f"decay_profile is {gap:.3e} from the power loop")
    return errs


def check_carleson(o: dict, params: dict, report: dict) -> list[str]:
    res = report["results"]
    zeros = cvec(params["zeros"])
    delta = carleson_delta(zeros)
    errs = []
    if res["zero_count"] != len(zeros):
        errs.append("zero_count")
    errs += _close("delta", res["delta"], delta, SCALAR_RTOL)
    errs += _close("capacity", res["capacity"], capacity(delta), SCALAR_RTOL)
    return errs


def grid_mask(arcs, M: int) -> np.ndarray:
    """Grid indices m with 2 pi m / M inside one of the (non-wrapping) arcs."""
    inside = []
    for m in range(M):
        t = 2.0 * math.pi * m / M
        if any(s <= t < e for s, e in arcs) or any(e - s >= 2 * math.pi for s, e in arcs):
            inside.append(m)
    return np.array(inside, dtype=int)


def check_biinfinite(o: dict, p: dict, report: dict) -> list[str]:
    res = report["results"]
    M, n = p["M"], p.get("n_max", p["M"])
    arcs = [tuple(a) for a in p["arcs"]]
    full = any(e - s >= 2 * math.pi for s, e in arcs)
    idx = grid_mask(arcs, M)
    theta = 2.0 * math.pi * idx / M
    seed = np.full(len(idx), math.sqrt(1.0 / M), dtype=np.complex128)
    errs = []
    if res["mask_count"] != len(idx):
        errs.append(f"mask_count {res['mask_count']} vs {len(idx)}")
        return errs
    errs += _close("mask_measure", res["mask_measure"], len(idx) / M, 1e-12)
    measure = 1.0 if full else sum(e - s for s, e in arcs) / (2 * math.pi)
    errs += _close("arc_measure", res["arc_measure"], measure, 1e-12)
    S = two_sided_gram(theta, seed, n)
    errs += _frame_errors("frame", res["frame_report"], S)
    if full and n >= M - 1:
        want = 0.0
    else:
        scaled = (M / (2.0 * n + 1.0)) * S
        want = float(np.linalg.norm(scaled - np.eye(len(idx)), 2))
    errs += _close("parseval_defect", res["parseval_defect"], want, BOUND_RTOL, ZERO_ATOL)
    if res["unitarity_defect"] > ZERO_ATOL:
        errs.append(f"unitarity_defect {res['unitarity_defect']!r} of a periodic grid orbit")
    if "psi" in p:
        psi = cvec(p["psi"])
        errs += _frame_errors("reseeded", res["reseeded_report"], two_sided_gram(theta, psi * seed, n))
        if res["reseeded_within_multiplier_bounds"] is not True:
            errs.append("reseeded bounds outside the multiplier bounds")
    return errs


def check_translates(o: dict, p: dict, report: dict) -> list[str]:
    res = report["results"]
    samples = p["fhat_samples"]
    blocks = 2 * p["period_count"]
    m = len(samples) // blocks
    phi = [sum(samples[b * m + i] for b in range(blocks)) for i in range(m)]
    threshold = 1e-6 * max(phi)
    on = [v for v in phi if v > threshold]
    errs = []
    if res["grid_size"] != m:
        errs.append(f"grid_size {res['grid_size']} vs {m}")
    errs += _close("threshold", res["threshold"], threshold, SCALAR_RTOL)
    errs += _close("support_measure", res["support_measure"], len(on) / m, 1e-12)
    errs += _close("ess_inf", res["ess_inf"], min(on), SCALAR_RTOL)
    errs += _close("ess_sup", res["ess_sup"], max(on), SCALAR_RTOL)
    return errs


_KIND_CHECKS = {
    "normal_construction": check_normal,
    "perturbation": check_perturbation,
    "model_space": check_model_space,
    "carleson": check_carleson,
    "orbit_analysis": check_orbit_analysis,
    "biinfinite": check_biinfinite,
    "translates": check_translates,
}


def check_report(op: dict, report: dict) -> list[str]:
    """Compare one CLI report with the oracle for its problem."""
    problem = op["problem"]
    kind = problem["kind"]
    if report.get("kind") != kind or report.get("inputs") != problem["parameters"]:
        return ["report does not echo its problem"]
    return _KIND_CHECKS[kind](op.get("oracle", {}), problem["parameters"], report)


def check_session(op: dict, out: dict, projection_atol: float = PROJECTION_ATOL) -> list[str]:
    """Compare one library session's arrays with quadrature and closed forms."""
    s = op["session"]
    zeros = cvec(s["zeros"])
    poly = cvec(s["poly"])
    A, phi = shift_closed_form(zeros)
    errs = []
    if _max_gap(out["shift_matrix"], A) > MODEL_ATOL:
        errs.append("session shift_matrix differs from the closed form")
    if _max_gap(out["phi"], phi) > MODEL_ATOL:
        errs.append("session phi differs from the closed form")
    points = 4096
    z = circle(points)
    basis = tm_basis_values(zeros, z)
    f_vals = np.polyval(poly[::-1], z)
    coords = basis.conj() @ f_vals / points
    if _max_gap(out["coords"], coords) > COEFF_ATOL:
        errs.append("basis_coordinates differ from quadrature")
    proj_vals = coords @ basis
    proj = np.fft.fft(proj_vals) / points
    lo = int(out["proj_lo"])
    got = out["proj"]
    want = proj[lo : lo + len(got)]
    if lo < 0 or lo + len(got) > points // 2 or _max_gap(got, want) > projection_atol:
        errs.append("project_model differs from quadrature")
    v = phi.copy()
    for _ in range(int(s["m"])):
        v = A @ v
    if _max_gap(out["monomial"], v) > COEFF_ATOL:
        errs.append("projected_monomial differs from A^m phi")
    n = int(s["n"])
    want = taylor_by_fft(zeros, n, 4 * (n + 1))
    if _max_gap(out["taylor"], want) > COEFF_ATOL:
        errs.append("taylor_coeffs differ from quadrature")
    return errs
