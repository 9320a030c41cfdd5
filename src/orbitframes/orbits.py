"""Frame analysis of operator orbits at finite truncation.

An orbit specification is a matrix T, a seed vector f0, an index set
(one-sided or two-sided), and a truncation.  The synthesis matrix stacks
the orbit as columns; its singular structure carries the frame bounds,
and the kernel's behavior under the coordinate right shift decides
whether the columns are the orbit of any single bounded operator (the
kernel must be shift invariant, in which case the generator is recovered
in closed form from the shifted pseudoinverse).

Only the bounded-generator criterion is implemented; the closable,
unbounded middle ground has no finite-truncation surrogate and is out of
numerical scope here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CommutatorError, NumericalError, ShiftInvarianceError

#: Column norm past which an orbit is declared numerically divergent.
COLUMN_OVERFLOW = 1e12

#: Condition ceiling for generators on two-sided index sets.
TWO_SIDED_COND_MAX = 1e12

#: Condition ceiling for similarity transports.
SIMILARITY_COND_MAX = 1e10

#: Tolerance for detecting an exactly periodic orbit column sequence.
PERIOD_TOL = 1e-10

__all__ = [
    "OrbitSpec",
    "FrameReport",
    "orbit_columns",
    "synthesis_matrix",
    "frame_bounds",
    "kernel_shift_invariance",
    "generator_closure",
    "similarity_transport",
    "commutant_transport",
    "unitarity_defect",
    "lower_norm_check",
]


@dataclass(frozen=True)
class OrbitSpec:
    """Operator, seed vector, index set ("N" or "Z"), and truncation."""

    T: np.ndarray
    f0: np.ndarray
    index_set: str
    n_max: int

    def __post_init__(self) -> None:
        T = np.array(self.T, dtype=np.complex128)
        if T.ndim != 2 or T.shape[0] != T.shape[1] or T.shape[0] == 0:
            raise ValueError(f"T must be nonempty and square, got shape {T.shape}")
        f0 = np.array(self.f0, dtype=np.complex128).reshape(-1)
        if f0.shape[0] != T.shape[0]:
            raise ValueError(
                f"seed length {f0.shape[0]} does not match operator size {T.shape[0]}"
            )
        for name, value in (("T", T), ("f0", f0)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        if self.index_set not in ("N", "Z"):
            raise ValueError(f"index_set must be 'N' or 'Z', got {self.index_set!r}")
        n_max = int(self.n_max)
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        if self.index_set == "Z":
            cond = float(np.linalg.cond(T))
            if not np.isfinite(cond) or cond > TWO_SIDED_COND_MAX:
                raise ValueError(
                    f"two-sided orbits need an invertible generator with "
                    f"condition below {TWO_SIDED_COND_MAX:.0e}, got {cond:.3e}"
                )
        T.setflags(write=False)
        f0.setflags(write=False)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "n_max", n_max)

    @property
    def dim(self) -> int:
        return self.T.shape[0]


@dataclass(frozen=True)
class FrameReport:
    """Eigenvalue extremes of the truncated frame operator plus tail data.

    ``tail_estimate`` bounds the orbit energy past the truncation when the
    spectral radius allows one (one-sided orbits with radius < 1); ``None``
    means unknown.
    """

    lower_bound: float
    upper_bound: float
    parseval_defect: float
    n_max: int
    tail_estimate: float | None

    def to_dict(self) -> dict:
        return {
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "parseval_defect": self.parseval_defect,
            "n_max": self.n_max,
            "tail_estimate": self.tail_estimate,
        }


def orbit_columns(T: np.ndarray, v: np.ndarray, n_max: int) -> np.ndarray:
    """Columns ``T^n v`` for n = 0..n_max, shape (len(v), n_max + 1).

    The one power loop of the package: every orbit, synthesis matrix and
    decay profile is read from it.
    """
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    v = np.array(v, dtype=np.complex128).reshape(-1)
    out = np.empty((v.shape[0], n_max + 1), dtype=np.complex128)
    out[:, 0] = v
    for n in range(1, n_max + 1):
        v = T @ v
        out[:, n] = v
    return out


def synthesis_matrix(spec: OrbitSpec) -> np.ndarray:
    """Orbit columns in index order: n = 0..n_max, or -n_max..n_max.

    Raises ``NumericalError`` when any column norm exceeds the overflow
    ceiling (spectral radius above 1 on a one-sided orbit, typically).
    """
    cols = orbit_columns(spec.T, spec.f0, spec.n_max)
    if spec.index_set == "Z":
        backward = orbit_columns(np.linalg.inv(spec.T), spec.f0, spec.n_max)
        cols = np.concatenate([backward[:, :0:-1], cols], axis=1)
    norms = np.linalg.norm(cols, axis=0)
    if np.any(norms > COLUMN_OVERFLOW) or not np.all(np.isfinite(norms)):
        worst = int(np.argmax(norms))
        raise NumericalError(
            f"orbit column {worst} has norm {norms[worst]:.3e}; the orbit "
            f"diverges past {COLUMN_OVERFLOW:.0e} at this truncation"
        )
    return cols


def frame_bounds(spec: OrbitSpec) -> FrameReport:
    """Extreme eigenvalues of S = U U* for the truncated orbit."""
    U = synthesis_matrix(spec)
    S = U @ U.conj().T
    eigs = np.linalg.eigvalsh(S)
    lower = max(float(eigs[0]), 0.0)
    upper = float(eigs[-1])
    defect = float(max(abs(eigs - 1.0)))
    tail = _tail_estimate(spec)
    return FrameReport(
        lower_bound=lower,
        upper_bound=upper,
        parseval_defect=defect,
        n_max=spec.n_max,
        tail_estimate=tail,
    )


def _tail_estimate(spec: OrbitSpec) -> float | None:
    """Bound sum of ||T^n f0||^2 past the window, when the spectrum allows."""
    if spec.index_set != "N":
        return None
    vals, vecs = np.linalg.eig(spec.T)
    rho = float(np.max(np.abs(vals))) if len(vals) else 0.0
    if rho >= 1.0:
        return None
    if rho == 0.0:
        return 0.0
    kappa = float(np.linalg.cond(vecs))
    if not np.isfinite(kappa):
        return None
    r2 = rho * rho
    lead = kappa * kappa * float(np.linalg.norm(spec.f0)) ** 2
    return lead * r2 ** (spec.n_max + 1) / (1.0 - r2)


def _finite_columns(frame_columns: np.ndarray) -> np.ndarray:
    """Orbit columns as a nonempty, finite complex 2-D array."""
    U = np.asarray(frame_columns, dtype=np.complex128)
    if U.ndim != 2 or 0 in U.shape:
        raise ValueError(
            f"frame_columns must be a nonempty 2-D matrix, got shape {U.shape}"
        )
    if not np.all(np.isfinite(U)):
        raise ValueError("frame_columns must be finite")
    return U


def kernel_shift_invariance(frame_columns: np.ndarray, tol: float = 1e-10) -> float:
    """Invariance defect of the synthesis kernel under the right shift.

    Returns the spectral norm of U R on ker U,
    ``||U R - (U R V_r*) V_r||_2``, where R is the right shift (column n
    of U R is column n + 1 of U, the last is zero) and V_r holds the right
    singular vectors of U whose singular values are at least ``tol`` times
    the largest.  The value does not depend on a choice of kernel basis;
    it is exactly 0.0 when the kernel is trivial and near zero exactly
    when the truncated kernel is shift invariant, which is the
    finite-window test for the columns being a single operator's orbit.
    One thin SVD and a few D x L products: O(D^2 L), no L x L factor.
    Columns must be in one-sided index order.
    """
    U = _finite_columns(frame_columns)
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    _, svals, vh = np.linalg.svd(U, full_matrices=False)
    rank = int(np.count_nonzero(svals >= tol * svals[0]))
    if rank == U.shape[1]:
        return 0.0
    V = vh[:rank]
    UR = np.zeros_like(U)
    UR[:, :-1] = U[:, 1:]
    return float(np.linalg.norm(UR - (UR @ V.conj().T) @ V, 2))


def generator_closure(frame_columns: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Recover the generator as U R U^+ from one-sided orbit columns.

    ``U^+ = U* (U U*)^{-1}`` is the synthesis pseudoinverse; the formula
    returns the unique operator whose orbit reproduces the columns,
    provided the kernel is shift invariant.  Raises
    ``ShiftInvarianceError`` when ``kernel_shift_invariance`` exceeds
    ``tol``, and ``NumericalError`` when the columns do not span (frame
    not captured at this truncation).
    """
    U = _finite_columns(frame_columns)
    residual = kernel_shift_invariance(U, tol)
    if residual > tol:
        raise ShiftInvarianceError(residual, tol)
    S = U @ U.conj().T
    eigs = np.linalg.eigvalsh(S)
    if eigs[0] <= tol * eigs[-1]:
        raise NumericalError(
            f"frame not captured at this truncation: smallest frame "
            f"eigenvalue {eigs[0]:.3e} against largest {eigs[-1]:.3e}"
        )
    pinv = U.conj().T @ np.linalg.solve(S, np.eye(U.shape[0]))
    shifted = np.zeros_like(pinv)
    shifted[1:, :] = pinv[:-1, :]
    return U @ shifted


def similarity_transport(spec: OrbitSpec, V: np.ndarray) -> OrbitSpec:
    """Orbit of (V T V^{-1}, V f0); V must be well conditioned."""
    V = np.asarray(V, dtype=np.complex128)
    cond = float(np.linalg.cond(V))
    if not np.isfinite(cond) or cond > SIMILARITY_COND_MAX:
        raise ValueError(
            f"similarity needs condition below {SIMILARITY_COND_MAX:.0e}, "
            f"got {cond:.3e}"
        )
    V_inv = np.linalg.solve(V, np.eye(V.shape[0]))
    return OrbitSpec(
        T=V @ spec.T @ V_inv,
        f0=V @ spec.f0,
        index_set=spec.index_set,
        n_max=spec.n_max,
    )


def commutant_transport(
    spec: OrbitSpec, V: np.ndarray, tol: float = 1e-10
) -> OrbitSpec:
    """Replace the seed by V f0 for V in the generator's commutant.

    Rejects with ``CommutatorError`` (carrying the measured norm) when
    ``||VT - TV||`` exceeds ``tol * ||T|| * ||V||``, and rejects
    non-invertible V.
    """
    V = np.asarray(V, dtype=np.complex128)
    comm = float(np.linalg.norm(V @ spec.T - spec.T @ V, 2))
    bound = tol * float(np.linalg.norm(spec.T, 2)) * float(np.linalg.norm(V, 2))
    if comm > bound:
        raise CommutatorError(comm, bound)
    cond = float(np.linalg.cond(V))
    if not np.isfinite(cond) or cond > SIMILARITY_COND_MAX:
        raise ValueError(
            f"commutant transport needs an invertible multiplier, "
            f"condition {cond:.3e}"
        )
    return OrbitSpec(
        T=spec.T, f0=V @ spec.f0, index_set=spec.index_set, n_max=spec.n_max
    )


def _orbit_period(columns: np.ndarray) -> int | None:
    """Smallest exact period of the column sequence, if one exists.

    A period must hold across the entire window to within a relative
    tolerance at float-accumulation scale; orbits that merely come close
    to the seed once do not qualify.
    """
    D, L = columns.shape
    if L < 2:
        return None
    scale = float(np.max(np.linalg.norm(columns, axis=0)))
    if scale == 0.0:
        return None
    first = columns[:, 0]
    close = np.linalg.norm(columns - first[:, None], axis=0) <= PERIOD_TOL * scale
    for p in np.nonzero(close)[0]:
        if p == 0:
            continue
        diff = columns[:, p:] - columns[:, : L - p]
        if float(np.max(np.linalg.norm(diff, axis=0))) <= PERIOD_TOL * scale:
            return int(p)
    return None


def unitarity_defect(spec: OrbitSpec) -> float:
    """Distance of S^{-1/2} T S^{1/2} from being an isometry.

    Two-sided orbits only.  When the column sequence has an exact period p
    the frame operator is accumulated over one period, for which the
    shift invariance T S T* = S holds exactly (the window sum merely adds
    whole copies plus a boundary remainder); aperiodic orbits use the full
    symmetric window.  S^{+-1/2} come from the eigendecomposition with
    eigenvalues floored at a hundredth of the measured lower bound.
    """
    if spec.index_set != "Z":
        raise ValueError("unitarity defect is defined for two-sided orbits")
    U = synthesis_matrix(spec)
    p = _orbit_period(U)
    block = U[:, :p] if p is not None else U
    S = block @ block.conj().T
    w, Q = np.linalg.eigh(S)
    if w[0] <= 0.0 or w[0] < 1e-14 * w[-1]:
        raise NumericalError(
            f"frame operator numerically singular: eigenvalue range "
            f"[{w[0]:.3e}, {w[-1]:.3e}]"
        )
    w = np.maximum(w, w[0] / 100.0)
    root = Q @ np.diag(np.sqrt(w)) @ Q.conj().T
    inv_root = Q @ np.diag(1.0 / np.sqrt(w)) @ Q.conj().T
    W = inv_root @ spec.T @ root
    return float(np.linalg.norm(W.conj().T @ W - np.eye(spec.dim), 2))


def lower_norm_check(spec: OrbitSpec, f: np.ndarray, n_range) -> tuple[float, float]:
    """Smallest of ||T^n f|| / ||f|| and ||(T*)^n f|| / ||f|| over n_range.

    Two-sided orbits only; negative n use the inverse.
    """
    if spec.index_set != "Z":
        raise ValueError("lower norm check is defined for two-sided orbits")
    f = np.asarray(f, dtype=np.complex128).reshape(-1)
    base = float(np.linalg.norm(f))
    if base == 0.0:
        raise ValueError("reference vector must be nonzero")
    ns = sorted(set(int(n) for n in n_range))
    forward = [n for n in ns if n >= 0]
    backward = [-n for n in ns if n < 0]
    mins = []
    for M in (spec.T, spec.T.conj().T):
        norms = [np.inf]
        if forward:
            cols = orbit_columns(M, f, forward[-1])[:, forward]
            norms.extend(np.linalg.norm(cols, axis=0))
        if backward:
            cols = orbit_columns(np.linalg.inv(M), f, backward[0])[:, backward]
            norms.extend(np.linalg.norm(cols, axis=0))
        mins.append(float(min(norms)) / base)
    return mins[0], mins[1]
