"""Reference computations shared by the test modules."""

import numpy as np


def power_loop(T, v, n: int) -> np.ndarray:
    """Columns T^k v for k = 0..n, one matrix-vector product at a time."""
    cols = [np.asarray(v)]
    for _ in range(n):
        cols.append(T @ cols[-1])
    return np.stack(cols, axis=1)
