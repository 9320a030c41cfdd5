"""Frame analysis of operator orbits at finite truncation.

An orbit specification is a matrix T, a seed vector f0, an index set
(one-sided or two-sided), and a truncation.  The synthesis matrix U stacks
the orbit as columns; its singular structure carries the frame bounds
(long one-sided windows read them from a D x D factor F, F F* = U U*, by
square-root doubling; one orbit walks once, its windows share the walk's
levels, O(D^2 log L) memory), and the kernel's behavior under the coordinate
right shift decides whether the columns are the orbit of any single
bounded operator (the kernel must be shift invariant, in which case the
generator is recovered in closed form from the shifted pseudoinverse).

Only the bounded-generator criterion is implemented; the closable,
unbounded middle ground has no finite-truncation surrogate and is out of
numerical scope here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import (
    COLUMN_OVERFLOW,
    FACTOR_COLUMN_NS,
    FACTOR_STEP_NS,
    KERNEL_TOL,
    SINGULAR_RTOL,
    TWO_SIDED_COND_MAX,
    check_size,
)
from .errors import NumericalError, ShiftInvarianceError

__all__ = [
    "OrbitSpec",
    "FrameReport",
    "orbit_columns",
    "synthesis_matrix",
    "frame_bounds",
    "kernel_shift_invariance",
    "generator_closure",
    "unitarity_defect",
]


@dataclass(frozen=True)
class OrbitSpec:
    """Operator, seed vector, index set ("N" or "Z"), and truncation.

    The spec owns its orbit.  What is read from it is built on first use and
    kept, read-only.  A one-sided window reads ``columns`` (the synthesis
    matrix, 16 D L bytes), and every pass over it runs over chunks of
    ``_width(D)`` columns.  A two-sided window is read once, chunk by chunk,
    by ``_pass``: S, the overflow check and the boundary columns u_-N and
    u_N.  So ``frame_operator`` and ``unitarity_defect`` hold D x D work and
    a few chunks, and build the window only when a caller asks for
    ``columns``.  A builder that knows an operator (the window sum, a
    ``period_operator``) or the ``spectrum`` in closed form hands it over
    through ``_replace`` (``biinfinite``); a builder that knows the orbit's
    ``eigensystem`` hands that over (``constructions``);
    every ``window`` keeps it and reads its own ``closed_form``, which
    ``frame_bounds`` reads with no walk and no columns.  Long one-sided
    windows build no columns either, and every ``window`` shares ``_walk``.
    """

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
        check_size("n_max", n_max)
        if self.index_set == "Z":
            _gate_two_sided(self, T)
        T.setflags(write=False)
        f0.setflags(write=False)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "n_max", n_max)

    @property
    def dim(self) -> int:
        return self.T.shape[0]

    #: ``(zeros, c, H, growth)`` when a builder knows the orbit's eigensystem:
    #: T = H diag(zeros) H^-1, f0 = H c, H None for I, growth >= cond(H)^2.
    eigensystem = None

    #: ``(q, v)`` when a builder knows the window sum as S_N = q I + v v*, v a
    #: vector, or None for S_N = q I (``biinfinite``'s grid pairs with at most
    #: one residue past whole periods); ``commutant_multiplier`` reads it.
    rank_one = None

    #: The diagonal sum over one period p of a window that holds a whole one, or
    #: None: ``biinfinite``'s grid pairs hand over (p/M) I, their T diagonal too;
    #: ``unitarity_defect`` and ``biinfinite.parseval_defect`` read its diagonal.
    period_operator = None

    def _replace(self, **known) -> OrbitSpec:
        """This spec with validated ``known`` fields and cached operators, each
        array made read-only; T keeps the gates it passed, and its ``_inverse``.
        Builders write only here."""
        spec = object.__new__(OrbitSpec)
        spec.__dict__.update(T=self.T, f0=self.f0, index_set=self.index_set, n_max=self.n_max)
        if "_inverse" in self.__dict__:
            spec.__dict__["_inverse"] = self._inverse
        for value in known.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        spec.__dict__.update(known)
        return spec

    def window(self, n_max: int) -> OrbitSpec:
        """The same orbit cut at ``n_max``; a shorter cut shares the built columns'
        prefix (one-sided) or centred slice (two-sided)."""
        m, n, built = int(n_max), self.n_max, self.__dict__.get("columns")
        check_size("n_max", m)
        known = {"n_max": m, "eigensystem": self.eigensystem, "_walk": self._walk}
        if built is None or m > n:
            return self._replace(**known)
        cut = slice(n - m, n + m + 1) if self.index_set == "Z" else slice(m + 1)
        return self._replace(**known, columns=built[:, cut])

    @cached_property
    def _walk(self) -> list:
        """The levels (G_k, T^(2^k), p_k, err P_k) that ``_doubling`` has squared,
        appended with no lock: walk the windows of one spec from one thread."""
        return []

    @cached_property
    def _inverse(self) -> np.ndarray:
        """T^-1, read-only: the two-sided gate's LU inverse, else one ``inv`` here."""
        inverse = np.linalg.inv(self.T)
        inverse.setflags(write=False)
        return inverse

    @cached_property
    def columns(self) -> np.ndarray:
        """The synthesis matrix ``synthesis_matrix(self)``."""
        return synthesis_matrix(self)

    @cached_property
    def closed_form(self) -> tuple[np.ndarray, float, float] | None:
        """``(S_N, rtol, tail)`` read from ``eigensystem`` at this window, or None
        without one or when it overflows (the walk or the columns judge that orbit).

        With mu = zeros^(N + 1) (D powers) the window sum is
        S_N = H diag(c) K_N diag(c)* H*, K_N[i, j] = (1 - mu_i conj(mu_j)) /
        (1 - lambda_i conj(lambda_j)), and the tail is exact:
        sum_ij (H* H)_ji c_i conj(c_j) mu_i conj(mu_j) / (1 - lambda_i conj(lambda_j)).
        The tail is rounded up by (9 L + D + 2 / |1 - lambda_i conj(lambda_j)|) eps
        of each term's modulus, L = N + 1: the (N + 1)-th powers carry L eps in
        modulus and 2 pi L eps in phase, the denominators their cancellation.
        S_N's eigenvalues are within rtol = (D + 2 / (1 - max|lambda|)) eps
        times the largest of the window sum's (against 60-digit sums at D <= 6,
        radii up to 1 - 1e-5 and N up to 16000, at most 0.6 of that), times
        ``growth`` for the assembly by H.
        """
        if self.eigensystem is None:
            return None
        zeros, c, H, growth = self.eigensystem
        eps, D, L = np.finfo(float).eps, self.dim, self.n_max + 1
        with np.errstate(over="ignore", invalid="ignore"):
            mu = zeros**L
            den = _one_minus(zeros)
            S = np.outer(c, c.conj()) * (_one_minus(mu) / den)
            a = c * mu
            if H is None:
                den = den.diagonal().real
                terms = np.abs(a) ** 2 / den
            else:
                S = H @ S @ H.conj().T
                terms = (H.T @ H.conj()) * np.outer(a, a.conj()) / den
            tail = np.sum(terms.real) + eps * np.sum(np.abs(terms) * (9 * L + D + 2 / np.abs(den)))
        if not (np.isfinite(S).all() and np.isfinite(tail)):
            return None
        S.setflags(write=False)
        rtol = eps * growth * (D + 2 / (1.0 - np.max(np.abs(zeros))))
        return S, float(rtol), float(tail)

    @cached_property
    def frame_operator(self) -> np.ndarray:
        """The truncated frame operator: S_N of ``closed_form``; else U U* of a
        one-sided window's ``columns``, summed chunk by chunk (``_gram``), or a
        two-sided window's sum from ``_pass``."""
        if self.closed_form is not None:
            return self.closed_form[0]
        return self._pass[0] if self.index_set == "Z" else _gram(self.columns)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of ``frame_operator``: one ``eigvalsh``.

        A builder that hands it over may hand only the least and the largest
        (``biinfinite``'s reseeded grid pairs): ``frame_bounds``,
        ``unitarity_defect`` and ``biinfinite.parseval_defect`` read nothing else.
        """
        eigs = np.linalg.eigvalsh(self.frame_operator)
        eigs.setflags(write=False)
        return eigs

    @cached_property
    def _pass(self) -> tuple:
        """One pass over a two-sided window's chunks, T^-1's then T's, holding no
        window: ``(S, u_-N, u_N)``.

        S = sum_{|n| <= N} u_n u_n* is summed chunk by chunk (read-only), and
        the column norms, kept in window order, get ``synthesis_matrix``'s
        overflow check.  Short windows peak above their own bytes (1.0-2.1
        times at n_max = 256, D = 25-200, ``BENCH_33.json``): up to
        ``_width(D)`` steps one chunk is a whole side, and past it the D x D
        work dominates.
        """
        N, D = self.n_max, self.dim
        norms = np.empty(2 * N + 1)
        S = np.zeros((D, D), dtype=np.complex128)
        backward, forward = _sides(self)
        with np.errstate(over="ignore", invalid="ignore"):
            for n, chunk in backward:
                k = chunk.shape[1]
                norms[N - n - k + 1 : N - n + 1] = np.linalg.norm(chunk, axis=0)[::-1]
                B = chunk[:, 1:] if n == 0 else chunk  # u_0 is summed with T's side
                S += B @ B.conj().T
            first = chunk[:, -1].copy()
            for n, chunk in forward:
                k = chunk.shape[1]
                norms[N + n : N + n + k] = np.linalg.norm(chunk, axis=0)
                S += chunk @ chunk.conj().T
            last = chunk[:, -1].copy()
        _check_overflow(norms)
        S.setflags(write=False)
        return S, first, last


@dataclass(frozen=True)
class FrameReport:
    """Eigenvalue extremes of the truncated frame operator plus tail data.

    ``lower_bound_floor`` is the absolute floor of ``lower_bound``: eps *
    upper from the eigenvalues of U U*, about (eps ||F||_2)^2 times the error
    growth of the block powers from the factor F, rtol * upper from a
    ``closed_form``.  ``tail_estimate`` is the exact energy
    sum_{n > n_max} ||T^n f0||^2 past the window, rounded up (see
    ``_doubling`` and ``closed_form``); ``None`` for two-sided orbits and
    when the block powers stop shrinking (spectral radius 1 or more).
    """

    lower_bound: float
    upper_bound: float
    parseval_defect: float
    n_max: int
    tail_estimate: float | None
    lower_bound_floor: float


def _one_minus(z: np.ndarray) -> np.ndarray:
    """The matrix 1 - z_i conj(z_j), its diagonal formed as (1 - |z_i|)(1 + |z_i|)."""
    M = 1.0 - np.outer(z, z.conj())
    r = np.abs(z)
    np.fill_diagonal(M, (1.0 - r) * (1.0 + r))
    return M


def diagonal_of(M: np.ndarray) -> np.ndarray | None:
    """The diagonal of ``M``, or None when an entry off it is nonzero."""
    d = np.diagonal(M)
    return d if np.count_nonzero(M) == np.count_nonzero(d) else None


def _gate_two_sided(spec: OrbitSpec, T: np.ndarray) -> None:
    """A ``ValueError`` naming T's condition number unless it is below
    ``TWO_SIDED_COND_MAX``.

    A diagonal T reads it as max|t| / min|t| (inf when one is 0), with no
    second pass over T and no SVD.  A dense T is inverted once by LU, kept as
    ``spec._inverse``, and passes when D ||T||_1 ||T^-1||_1 is at most the
    ceiling, as kappa_2 <= D kappa_1; otherwise, or when ``inv`` finds T
    singular, ``np.linalg.cond`` (one SVD) reads it.
    """
    d = diagonal_of(T)
    if d is not None:
        low, high = float(np.min(np.abs(d))), float(np.max(np.abs(d)))
        cond = high / low if low > 0.0 else np.inf  # Python floats overflow to inf
    else:
        try:
            inverse = np.linalg.inv(T)
        except np.linalg.LinAlgError:
            inverse = None
        if inverse is not None:
            inverse.setflags(write=False)
            object.__setattr__(spec, "_inverse", inverse)
            with np.errstate(over="ignore", invalid="ignore"):
                bound = T.shape[0] * np.linalg.norm(T, 1) * np.linalg.norm(inverse, 1)
            if bound <= TWO_SIDED_COND_MAX:
                return
        cond = float(np.linalg.cond(T))
    if not np.isfinite(cond) or cond > TWO_SIDED_COND_MAX:
        raise ValueError(
            f"invertible two-sided generator needs condition below "
            f"{TWO_SIDED_COND_MAX:.0e}, got {cond:.3e}"
        )


def orbit_columns(T: np.ndarray, v: np.ndarray, n_max: int) -> np.ndarray:
    """Columns ``T^n v`` for n = 0..n_max, shape (len(v), n_max + 1).

    The one orbit routine: every orbit, synthesis matrix, decay profile and
    Blaschke series is read from it or from its chunks (``_chunks``; this
    window is their one chunk as wide as the window), and it refuses
    windows past the ceiling.
    With D = len(v) and L = n_max + 1 the route follows the flop count
    (``_doubles``): when D log2 L <= 1.8 L it fills the window by doubling,
    columns [m, 2m) being the one product T^m [0, m) before T^m is squared,
    so about log2 L matrix products in all; otherwise it runs L - 1
    matrix-vector products.  Once a power T^m is no longer finite (T =
    diag(0.5, 2): T^1024 overflows, the orbit of (1, 0) never does) the
    rest of the window comes from matrix-vector products from the last
    column computed.  Against a long-double power loop the largest error,
    relative to the largest column norm, was 4.3e-16 for compressed shifts
    with d <= 20, max|l| <= 0.999 and n = 4096 (the loop: 2.2e-16), 2.9e-15
    for W diag(l) W^-1 with D = 10 and n = 1999 (6.2e-16) and 7.1e-14 for a
    dense unimodular D = 50 at n = 1024 (3.2e-15).  T is promoted to at
    least complex128 first, so the powers of an integer T do not wrap.
    T must be a finite D x D matrix and v finite, else a ``ValueError``
    names the operand; an orbit that overflows later is returned as is.
    """
    n_max = int(n_max)
    check_size("orbit window n_max", n_max)
    T = np.asanyarray(T)
    T = T.astype(np.result_type(T, np.complex128), copy=False)
    v = np.array(v, dtype=np.complex128).reshape(-1)
    D = v.shape[0]
    if T.shape != (D, D):
        raise ValueError(f"T must be {D}x{D} for a v of length {D}, got shape {T.shape}")
    for name, operand in (("T", T), ("v", v)):
        if not np.isfinite(operand).all():
            raise ValueError(f"{name} must be finite")
    return next(_chunks(T, v, n_max, n_max + 1))


def _chunks(T: np.ndarray, v: np.ndarray, n_max: int, width: int):
    """Successive chunks of the columns T^n v, n = 0..n_max, ``width`` columns
    each but the last; T complex and square, v a complex vector.

    The route is ``orbit_columns``' over the whole window, L = n_max + 1.
    When ``_doubles(D, L)`` the first chunk is filled by doubling, which
    leaves T^width for a power-of-two ``width`` below L, and each later
    chunk is T^width times the chunk before; that keeps the error of
    doubling the whole window (against a long-double loop, 5.0e-16 for a
    d = 20 shift at n = 4096, 4.9e-14 for a dense unimodular D = 50 at
    n = 1024).  Otherwise, and once a power is not finite, the
    matrix-vector chain runs on across chunks, so its columns are those of
    one window.
    """
    D, L = v.shape[0], n_max + 1
    out = np.empty((D, min(width, L)), dtype=np.complex128)
    out[:, 0] = v
    m, P, doubles = 1, T, _doubles(D, L)
    if doubles:
        while m < out.shape[1] and np.isfinite(P).all():
            k = min(m, out.shape[1] - m)
            np.matmul(P, out[:, :k], out=out[:, m : m + k])
            m += k
            if m < L:
                with np.errstate(over="ignore", invalid="ignore"):
                    P = P @ P
    power = doubles and m == out.shape[1] and np.isfinite(P).all()
    v = out[:, m - 1]
    for n in range(m, out.shape[1]):
        v = T @ v
        out[:, n] = v
    yield out
    for start in range(out.shape[1], L, width):
        k = min(width, L - start)
        if power:
            out = P @ out[:, :k]
        else:
            out = np.empty((D, k), dtype=np.complex128)
            for n in range(k):
                v = T @ v
                out[:, n] = v
        yield out


def _doubles(D: int, L: int) -> bool:
    """Whether ``orbit_columns`` doubles a window of L columns of size D.

    Doubling spends D^3 log2 L flops on squarings at matrix-product speed,
    the loop D^2 L at matrix-vector speed.  The cut-off D log2 L <= 1.8 L is
    where the two tie for dense D = 100..200 (one BLAS thread: D = 200 at
    L = 1025 ties, so it keeps the loop; D = 50 at L = 257 doubles, 0.49
    against 0.92 ms); for 20 <= D <= 70 doubling already wins up to about
    D log2 L = 2.7 L, so the rule errs towards the loop there.
    """
    return D * np.log2(L) <= 1.8 * L


#: Bytes of one chunk of orbit columns (``_width``).
_CHUNK_BYTES = 256 * 1024


def _width(D: int) -> int:
    """Columns per chunk of a window of size D: the largest power of two with
    16 D width <= ``_CHUNK_BYTES`` (64 at D = 200, 256 at D = 50), at least 1."""
    return 1 << max((_CHUNK_BYTES // (16 * D)).bit_length() - 1, 0)


def _blocks(n: int, D: int):
    """Slices of [0, n), ``_width(D)`` columns each but the last, in order."""
    w = _width(D)
    return (slice(i, min(i + w, n)) for i in range(0, n, w))


def synthesis_matrix(spec: OrbitSpec) -> np.ndarray:
    """Orbit columns in index order: n = 0..n_max, or -n_max..n_max.

    A one-sided window is one ``orbit_columns`` window, so it doubles when
    D log2 L <= 1.8 L, with L = n_max + 1, and runs the matrix-vector loop
    otherwise; see there for the error of each route.  A two-sided window
    is allocated once, (D, 2 n_max + 1), and filled in place from the
    ``_chunks`` of T^-1 (reversed) and of T, the columns ``_pass`` reads.
    Raises ``NumericalError`` when any column norm exceeds the overflow
    ceiling (spectral radius above 1 on a one-sided orbit, typically).
    """
    # A diverging orbit may overflow to inf or nan; the norm check rejects it.
    N, D = spec.n_max, spec.dim
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.index_set == "Z":
            cols = np.empty((D, 2 * N + 1), dtype=np.complex128)
            backward, forward = _sides(spec)
            for n, chunk in backward:
                cols[:, N - n - chunk.shape[1] + 1 : N - n + 1] = chunk[:, ::-1]
            for n, chunk in forward:
                cols[:, N + n : N + n + chunk.shape[1]] = chunk
        else:
            cols = orbit_columns(spec.T, spec.f0, N)
        norms = np.empty(cols.shape[1])
        for s in _blocks(cols.shape[1], D):
            norms[s] = np.linalg.norm(cols[:, s], axis=0)
    _check_overflow(norms)
    cols.setflags(write=False)
    return cols


def _sides(spec: OrbitSpec) -> tuple:
    """The ``_chunks`` of T^-1 and of T from f0 over n_max steps, each as
    (n, chunk) pairs, chunk holding the orbit's steps n, n + 1, ...: u_0,
    u_-1, ..., u_-N, then u_0, ..., u_N."""

    def side(M):
        n = 0
        for chunk in _chunks(M, spec.f0, spec.n_max, _width(spec.dim)):
            yield n, chunk
            n += chunk.shape[1]

    return side(spec._inverse), side(spec.T)


def _check_overflow(norms: np.ndarray) -> None:
    """``NumericalError`` naming the first worst column when a norm is not
    finite or passes ``COLUMN_OVERFLOW``."""
    if np.any(norms > COLUMN_OVERFLOW) or not np.all(np.isfinite(norms)):
        worst = int(np.argmax(norms))
        raise NumericalError(
            f"orbit column {worst} has norm {norms[worst]:.3e}; the orbit "
            f"diverges past {COLUMN_OVERFLOW:.0e} at this truncation"
        )


def _gram(U: np.ndarray) -> np.ndarray:
    """U U*, read-only, summed over chunks of ``_width(D)`` columns: a window of
    at most one chunk is the one product U U*, bit for bit."""
    S = None
    for s in _blocks(U.shape[1], U.shape[0]):
        B = U[:, s]
        if S is None:
            S = B @ B.conj().T
        else:
            S += B @ B.conj().T
    S.setflags(write=False)
    return S


def frame_bounds(spec: OrbitSpec) -> FrameReport:
    """Extreme eigenvalues of S = U U* for the truncated orbit, and its tail.

    A one-sided window with a ``closed_form`` (a built pair or its ``window``)
    reads the ``eigvalsh`` of its S_N and its tail, floor rtol * upper,
    unless the least eigenvalue is not above the floor or sqrt(upper), which
    bounds every column norm, passes ``COLUMN_OVERFLOW``; then it takes the
    route of the same orbit without the eigensystem.  Long one-sided windows read
    them from a factor and build no columns; the rest clamp the lower bound
    of ``spec.spectrum`` at 0.  The route depends on the spec alone (see
    ``_spectrum``).  Other one-sided windows take their exact tail from the
    same walk (see ``_doubling``).
    """
    eigs, floor, tail = _spectrum(spec)
    return FrameReport(
        lower_bound=max(float(eigs[0]), 0.0),
        upper_bound=float(eigs[-1]),
        parseval_defect=float(max(abs(eigs - 1.0))),
        n_max=spec.n_max,
        tail_estimate=tail,
        lower_bound_floor=floor,
    )


def _spectrum(spec: OrbitSpec) -> tuple[np.ndarray, float, float | None]:
    """Ascending eigenvalues of S = U U*, the floor of the least, the one-sided tail.

    A one-sided window whose L columns at D^2 + ``FACTOR_COLUMN_NS`` ns each
    cost more than max(log2 L, 1) doubling steps at D^3 + ``FACTOR_STEP_NS``
    reads them from the walk's D x D factor, F F* = S, unless F is not
    finite, passes ``COLUMN_OVERFLOW`` (||F||_2 >= every column norm) or is
    less precise than U U*; the rest read ``spec.spectrum``, floor eps upper.
    A resolved ``closed_form`` comes first and runs none of these.
    """
    if spec.closed_form is not None:
        _, rtol, tail = spec.closed_form
        eigs = spec.spectrum
        floor = rtol * float(eigs[-1])  # Python floats: inf past the range, no warning
        if floor < eigs[0] and eigs[-1] <= COLUMN_OVERFLOW**2:
            return eigs, floor, tail
        spec = spec._replace(_walk=spec._walk)  # the same orbit, read from its walk or columns
    D, L, eps = spec.dim, spec.n_max + 1, np.finfo(float).eps
    factor = L * (D * D + FACTOR_COLUMN_NS) > max(np.log2(L), 1.0) * (D**3 + FACTOR_STEP_NS)
    walk = _doubling(spec, L, factor) if spec.index_set == "N" else None
    F, f_err, tail = walk or (None, 0.0, None)
    if F is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            s = np.linalg.svd(F, compute_uv=False) if np.isfinite(F).all() else [np.inf]
            floor = (eps * f_err * s[0]) ** 2  # float64: inf past the range, no raise
        if s[0] <= COLUMN_OVERFLOW and floor < eps * s[0] ** 2:
            return np.pad(s[::-1] ** 2, (D - len(s), 0)), float(floor), tail
    eigs = spec.spectrum
    return eigs, float(eps * eigs[-1]), tail


def _doubling(spec: OrbitSpec, L: int, factor: bool) -> tuple:
    """The doubling walk of (T, f0) over L terms: F, its error growth, the tail.

    Smith 1968 in Hammarling's square-root form (1982): G factors the first
    2^k terms, P = T^(2^k), p = sqrt(||P||_1 ||P||_inf) >= ||P||_2 and each
    squaring doubles the error of P and adds eps p^2.  A set digit of L
    multiplies P into T^L and, if ``factor``, prepends the block to F (S <-
    G G* + P S P*; F's error grows 1 + 2 (err P + p)).  F_inf is G at the
    first k = k_inf with ||P||_2^2 <= eps (from p, or from the SVD once past
    L's digits).  Past them the walk squares on until k_inf, or gives up
    (tail None) unless ||P||_2 + err P is below 1 two squarings on
    and below its last value after that.  As S_inf = G G* + P S_inf P*, the
    tail is at most ||T^L F_inf||_F^2 / (1 - ||P||_2^2), rounded up by
    (L + D (k + 2)) eps for the error of T^L and the products of the walk.

    The levels (G_k, P_k, p_k, err P_k) depend on the orbit alone, so they are
    read from ``spec._walk``, which every window of the orbit shares, and a
    level past its end is squared once and appended: a window replays its
    digits' merges in the same order on the same levels, so F, T^L and the
    tail are those of a fresh walk, bit for bit.  The list holds O(D^2 log L)
    numbers, L the longest window walked, for as long as the spec lives.
    """

    def merge(A, B):  # R* from the QR of [A, B]*, a factor of A A* + B B*
        return np.linalg.qr(np.hstack([A, B]).conj().T, mode="r").conj().T

    eps, D, walk = np.finfo(float).eps, spec.dim, spec._walk
    F, TL, F_inf = None, None, None
    k, top, f_err, last = 0, L.bit_length() - 1, 1.0, np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if k == len(walk):  # square once more: level k from level k - 1
                if k:
                    G, P, p_err = merge(G, P @ G), P @ P, 2.0 * p * p_err + p * p
                else:
                    G, P, p_err = spec.f0.reshape(-1, 1), spec.T, 0.0
                walk.append((G, P, np.sqrt(np.linalg.norm(P, 1) * np.linalg.norm(P, np.inf)), p_err))
            G, P, p, p_err = walk[k]
            q = p
            if F_inf is None and k >= top and eps < p * p < np.inf:
                q = min(p, np.linalg.norm(P, 2))
            if k <= top:
                f_err += 1.0 + 2.0 * (p_err + p)
            if L >> k & 1:
                TL = P if TL is None else P @ TL
                if factor:
                    F = G if F is None else merge(G, P @ F)
            if F_inf is None and q * q <= eps:
                F_inf, q_inf = G, q
            shrinking = q + eps * p_err < min(1.0, last)
            if k >= top and (F_inf is not None or k >= top + 2 and not shrinking):
                break
            last, k = q, k + 1
        if F_inf is None:
            return F, f_err, None
        tail = np.linalg.norm(TL @ F_inf) ** 2 * (1.0 + (L + (k + 2) * D) * eps) ** 2
        tail /= 1.0 - q_inf * q_inf
    return F, f_err, float(tail) if np.isfinite(tail) else None


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


def kernel_shift_invariance(frame_columns: np.ndarray, tol: float = KERNEL_TOL) -> float:
    """Invariance defect of the synthesis kernel under the shift, on the window.

    With U_0 = U[:, :-1] and U_1 = U[:, 1:] (the window without its last
    and without its first column), returns the spectral norm of U_1 on
    ker U_0, ``||U_1 - (U_1 V_r*) V_r||_2``, where V_r holds the right
    singular vectors of U_0 whose singular values are at least ``tol``
    times the largest.  This is the finite-window form of the criterion
    that the kernel is shift invariant: ker U_0 lies in ker U_1 exactly
    when one operator maps each column to the next, so no column past the
    window enters it.  The value does not depend on a choice of kernel
    basis; it is exactly 0.0 when ker U_0 is trivial (one column included)
    and near zero exactly when the columns are a single operator's orbit.
    It is read from one tall QR of the stacked [U_0; U_1]* (``_shift_kernel``),
    whose 2D x min(L - 1, 2D) factor carries U_0's singular values and what
    U_1 does on its row space: O(D^2 L), no L x L factor, and after the QR
    no product as long as the window.  Columns must be in one-sided index
    order.
    """
    U = _finite_columns(frame_columns)
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    return _shift_kernel(U, tol)[0]


def _shift_kernel(U: np.ndarray, tol: float) -> tuple:
    """The residual of ``kernel_shift_invariance``, W and S of the thin SVD
    U_0 = W S V*, and U_1 V_r*, all read from one tall QR.

    [U_0; U_1] = K Q* with Q* Q = I from ``qr([U_0; U_1]*, mode="r")``, so K =
    [K_0; K_1] is 2D x min(L - 1, 2D) and U_i = K_i Q*.  The SVD K_0 = W S V~*
    gives U_0's W and S, and V = V~ Q*; so U_1 V_r* = K_1 V~_r* and the residual
    is ||K_1 - K_1 V~_r* V~_r||_2, with no product as long as the window.
    """
    D = U.shape[0]
    K = np.linalg.qr(np.vstack([U[:, :-1], U[:, 1:]]).conj().T, mode="r").conj().T
    K0, K1 = K[:D], K[D:]
    W, svals, vh = np.linalg.svd(K0, full_matrices=False)
    top = float(svals.max(initial=0.0))
    V = vh[: int(np.count_nonzero((svals >= tol * top) & (svals > 0.0)))]
    X = K1 @ V.conj().T
    residual = 0.0 if V.shape[0] == K0.shape[1] else float(np.linalg.norm(K1 - X @ V, 2))
    return residual, W, svals, X


def generator_closure(frame_columns: np.ndarray) -> tuple[np.ndarray, float]:
    """The generator U_1 U_0^+ of one-sided orbit columns, and its kernel residual.

    The tall QR of ``kernel_shift_invariance`` gives U_0 = W S V* and U_1 V*
    through its small factor (``_shift_kernel``), hence that residual, which
    equals ||(U_1 U_0^+) U_0 - U_1||_2, the frame-capture check and the
    generator (U_1 V*) S^-1 W* with U_0^+ = V S^-1 W*.  ``ShiftInvarianceError``
    when the residual exceeds ``KERNEL_TOL * ||U_0||_2`` (a verdict free of
    the seed's scale); ``NumericalError`` when sigma_min(U_0)^2 <=
    ``KERNEL_TOL`` sigma_max(U_0)^2 (frame not captured at this truncation,
    as for a single column).
    """
    U = _finite_columns(frame_columns)
    residual, W, svals, X = _shift_kernel(U, KERNEL_TOL)
    top = float(svals.max(initial=0.0))
    ceiling = KERNEL_TOL * top
    if residual > ceiling:
        raise ShiftInvarianceError(residual, ceiling)
    low = float(svals[-1]) ** 2 if svals.size == U.shape[0] else 0.0
    if low <= KERNEL_TOL * top**2:
        raise NumericalError(
            f"frame not captured at this truncation: smallest frame "
            f"eigenvalue {low:.3e} against largest {top**2:.3e}"
        )
    return (X / svals) @ W.conj().T, residual


def unitarity_defect(spec: OrbitSpec) -> float:
    """Distance of W = S^{-1/2} T S^{1/2} from being an isometry, ||W* W - I||_2.

    Two-sided orbits only.  S is the full symmetric window sum
    ``frame_operator``.  When T is diagonal and S, or the ``period_operator``
    a builder hands over, is diagonal too (a grid pair), W = T and the
    defect is max_i ||t_i|^2 - 1|, with no factorization.  Otherwise it is
    read from the window's rank-two boundary: with u_n the columns,
    a = T u_N and b = u_-N, T S T* - S = a a* - b b* holds exactly, so
    W W* - I = S^{-1/2} (a a* - b b*) S^{-1/2}, whose norm, that of
    W* W - I, is the largest |eigenvalue| of the 2 x 2 matrix
    diag(1, -1) [u v]* [u v] with [u v] = C^-1 [a b] and S = C C* (one
    ``cholesky`` and one solve).  That is so whatever T is: a dense orbit
    whose window repeats reads its boundary too (the swap T = [[0, 1],
    [1, 0]] with f0 = e_1 at N = 6 has S = diag(7, 6), a = e_2, b = e_1
    and defect 1/6).  The window sum and its boundary columns come from the
    one pass ``_pass``, so no window is built, and a diagonal T reads a and
    b as t^n f0 without either.  A failed Cholesky is a ``NumericalError``,
    as is an S whose eigenvalues (the ``spectrum`` ``frame_bounds`` reads)
    span past ``SINGULAR_RTOL``.
    """
    if spec.index_set != "Z":
        raise ValueError("unitarity defect is defined for two-sided orbits")
    t = diagonal_of(spec.T)
    P = spec.period_operator
    s = None if t is None else diagonal_of(spec.frame_operator if P is None else P)
    w = spec.spectrum if s is None else np.sort(s.real)
    if w[0] <= 0.0 or w[0] < SINGULAR_RTOL * w[-1]:
        raise NumericalError(
            f"frame operator numerically singular: eigenvalue range "
            f"[{w[0]:.3e}, {w[-1]:.3e}]"
        )
    if s is not None:
        return float(np.max(np.abs(np.abs(t) ** 2 - 1.0)))
    try:
        C = np.linalg.cholesky(spec.frame_operator)
    except np.linalg.LinAlgError:
        raise NumericalError("frame operator is not numerically positive definite") from None
    if t is not None:  # T^n f0 = t^n f0: no window is built (grid pairs)
        a, b = t ** (spec.n_max + 1) * spec.f0, t ** (-spec.n_max) * spec.f0
    else:
        _, b, last = spec._pass
        a = spec.T @ last
    uv = np.linalg.solve(C, np.stack([a, b], axis=1))
    (g_aa, g_ab), (_, g_bb) = (uv.conj().T @ uv).tolist()
    # Eigenvalues of [[g_aa, g_ab], [-conj(g_ab), -g_bb]]: (g_aa - g_bb) / 2 +- r.
    half, cross = (g_aa.real + g_bb.real) / 2.0, abs(g_ab)
    r = math.sqrt(max((half - cross) * (half + cross), 0.0))
    return abs(g_aa.real - g_bb.real) / 2.0 + r
