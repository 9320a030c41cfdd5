"""Each oracle against an explicit synthesis matrix U, with S = U U*, at N <= 32."""

import numpy as np
import pytest

import oracles

RNG = np.random.default_rng(7)


def orbit_columns(T, f0, n_max, two_sided=False):
    cols = [f0]
    for _ in range(n_max):
        cols.append(T @ cols[-1])
    if two_sided:
        T_inv = np.linalg.inv(T)
        back = [f0]
        for _ in range(n_max):
            back.append(T_inv @ back[-1])
        cols = back[:0:-1] + cols
    return np.array(cols).T


def explicit_gram(T, f0, n_max, two_sided=False):
    U = orbit_columns(T, f0, n_max, two_sided)
    return U @ U.conj().T


def random_disk(n, r_max=0.9):
    return RNG.uniform(0.1, r_max, n) * np.exp(2j * np.pi * RNG.uniform(size=n))


@pytest.mark.parametrize("n_max", [0, 1, 7, 32])
def test_skewed_diagonal(n_max):
    lam, c = random_disk(5), random_disk(5, 1.5)
    W = np.eye(5) + 0.3 * (RNG.normal(size=(5, 5)) + 1j * RNG.normal(size=(5, 5)))
    T = W @ np.diag(lam) @ np.linalg.inv(W)
    want = explicit_gram(T, W @ c, n_max)
    got = W @ oracles.diagonal_gram(lam, c, n_max) @ W.conj().T
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_diagonal_tail_is_the_remaining_sum():
    lam, c = random_disk(4, 0.6), random_disk(4, 1.5)
    far = explicit_gram(np.diag(lam), c, 200)
    near = explicit_gram(np.diag(lam), c, 32)
    assert np.allclose(oracles.diagonal_tail(lam, c, 32), far - near, atol=1e-14)


@pytest.mark.parametrize("n_max", [3, 32])
def test_perturbation_bases(n_max):
    lam, c = random_disk(6), random_disk(6, 1.5)
    k, l, tau = 1, 4, 0.3 - 0.2j
    T = np.diag(lam).astype(complex)
    T[l, k] += tau
    H, G = oracles.perturbed_bases(lam, k, l, tau)
    assert np.allclose(G.conj().T @ H, np.eye(6))
    got = H @ oracles.diagonal_gram(lam, G.conj().T @ c, n_max) @ H.conj().T
    assert np.allclose(got, explicit_gram(T, c, n_max), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n_max", [0, 5, 32])
def test_compressed_shift(n_max):
    zeros = random_disk(6)
    A, phi = oracles.shift_closed_form(zeros)
    assert np.allclose(oracles.shift_gram(zeros, n_max), explicit_gram(A, phi, n_max), atol=1e-13)


def test_closed_form_shift_matches_quadrature():
    zeros = random_disk(5, 0.8)
    A, phi = oracles.shift_closed_form(zeros)
    z = oracles.circle(2048)
    basis = oracles.tm_basis_values(zeros, z)
    assert np.allclose(basis.conj() @ basis.T / 2048, np.eye(5), atol=1e-13)
    # A[k, j] = <z e_j, e_k>; phi_k = <1, e_k>.
    assert np.allclose((z * basis) @ basis.conj().T / 2048, A.T, atol=1e-13)
    assert np.allclose(basis.conj().sum(axis=1) / 2048, phi, atol=1e-13)


@pytest.mark.parametrize("n_max", [0, 4, 32])
def test_dirichlet_two_sided(n_max):
    theta = np.sort(RNG.uniform(0, 2 * np.pi, 5))
    c = random_disk(5, 1.5)
    want = explicit_gram(np.diag(np.exp(1j * theta)), c, n_max, two_sided=True)
    assert np.allclose(oracles.two_sided_gram(theta, c, n_max), want, rtol=1e-12, atol=1e-12)


def test_grid_dirichlet_on_a_full_period_is_the_identity():
    M = 15
    theta = 2 * np.pi * np.arange(M) / M
    S = oracles.two_sided_gram(theta, np.full(M, M**-0.5), (M - 1) // 2)
    assert np.allclose(S, np.eye(M), atol=1e-13)


def test_carleson_delta_loops():
    a, b = 0.5, -0.3j
    assert oracles.carleson_delta([a, b]) == pytest.approx(abs(a - b) / abs(1 - np.conj(a) * b))
    assert oracles.carleson_delta([0.2]) == 1.0


def test_taylor_by_fft_matches_factor_convolution():
    zeros = random_disk(4)
    n = 40
    acc = np.zeros(n + 1, complex)
    acc[0] = 1
    for lam in zeros:
        fac = np.concatenate([[-lam], (1 - abs(lam) ** 2) * np.conj(lam) ** np.arange(n)])
        acc = np.convolve(acc, fac)[: n + 1]
    assert np.allclose(oracles.taylor_by_fft(zeros, n, 1024), acc, atol=1e-14)


def test_unitarity_defect_of_a_unitary_orbit_vanishes():
    T = np.diag(np.exp(1j * np.array([0.3, 1.1, 2.0])))
    assert oracles.unitarity_defect(np.eye(3), T) < 1e-14


def test_grid_mask():
    assert list(oracles.grid_mask([(0.1, np.pi)], 8)) == [1, 2, 3]
    assert len(oracles.grid_mask([(0.0, 7.0)], 8)) == 8
