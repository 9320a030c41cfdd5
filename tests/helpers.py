"""Reference computations shared by the test modules."""

import numpy as np


def power_loop(T, v, n: int) -> np.ndarray:
    """Columns T^k v for k = 0..n, one matrix-vector product at a time."""
    cols = [np.asarray(v)]
    for _ in range(n):
        cols.append(T @ cols[-1])
    return np.stack(cols, axis=1)


def brute_force_tail(T, f0, n_max: int, terms: int = 4000) -> float:
    """sum of ||T^n f0||^2 for n_max < n <= n_max + terms, by a plain loop."""
    T = np.asarray(T, dtype=np.complex128)
    v = np.linalg.matrix_power(T, n_max + 1) @ np.asarray(f0, dtype=np.complex128)
    total = 0.0
    for _ in range(terms):
        total += float(np.vdot(v, v).real)
        v = T @ v
    return total
