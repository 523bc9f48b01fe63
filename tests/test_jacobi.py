"""Cyclic Jacobi eigensolver, kept as an independent oracle for the
LAPACK eigensolve in ``HermitianOperator.eig``.

Jacobi rotations reach high relative accuracy (Demmel & Veselic, SIAM
J. Matrix Anal. Appl. 13, 1992) through a code path that shares
nothing with LAPACK, which makes the solver a good reference and a poor
main path: it is pure Python and takes seconds at d ~ 100.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qumode_probe.models import dicke_interaction
from qumode_probe.operators import ConvergenceError, HermitianOperator

OFFDIAG_TOL = 1e-13
MAX_ROTATIONS_PER_DIM2 = 100


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def jacobi_eigh(matrix: np.ndarray,
                tol: float = OFFDIAG_TOL,
                max_rotations: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix by cyclic complex Jacobi rotations.

    Returns (eigenvalues, eigenvectors) with eigenvalues ascending and
    eigenvectors as the columns of a unitary matrix.  Convergence is
    declared when the off-diagonal Frobenius norm drops below
    ``tol * ||matrix||_F``; the rotation budget is ``100 * d**2``.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    d = a.shape[0]
    if not np.allclose(a, a.conj().T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(a).max(initial=0.0))):
        raise ValueError("matrix is not Hermitian")

    if max_rotations is None:
        max_rotations = MAX_ROTATIONS_PER_DIM2 * d * d

    scale = np.linalg.norm(a)
    if d == 1 or scale == 0.0:
        return np.sort(np.diag(a).real), np.eye(d, dtype=complex)

    a = a.copy()
    v = np.eye(d, dtype=complex)
    threshold = tol * scale
    rotations = 0

    while _offdiag_norm(a) > threshold:
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                r = abs(apq)
                # skipping negligible elements keeps each sweep O(d) per row
                if r <= threshold / d:
                    continue
                if rotations >= max_rotations:
                    raise ConvergenceError(
                        f"Jacobi eigensolver did not converge within {max_rotations} rotations")
                rotations += 1

                # phase that makes the pivot real, then a real rotation
                phase = np.conj(apq) / r
                app = a[p, p].real
                aqq = a[q, q].real
                tau = (aqq - app) / (2.0 * r)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c

                block = np.array([[c, s], [-s * phase, c * phase]], dtype=complex)
                a[:, [p, q]] = a[:, [p, q]] @ block
                a[[p, q], :] = block.conj().T @ a[[p, q], :]
                v[:, [p, q]] = v[:, [p, q]] @ block

                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real

    eigenvalues = np.diag(a).real
    order = np.argsort(eigenvalues, kind="stable")
    return eigenvalues[order], v[:, order]


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


def test_identity():
    vals, vecs = jacobi_eigh(np.eye(2))
    assert np.allclose(vals, [1.0, 1.0])
    assert np.allclose(vecs.conj().T @ vecs, np.eye(2))


def test_sigma_x_eigensystem():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    vals, vecs = jacobi_eigh(sx)
    assert np.allclose(vals, [-1.0, 1.0])
    for k in range(2):
        assert np.allclose(sx @ vecs[:, k], vals[k] * vecs[:, k], atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 32, 64])
def test_round_trip_and_unitarity(dim):
    h = random_hermitian(dim, seed=dim)
    vals, vecs = jacobi_eigh(h)
    norm = np.linalg.norm(h)
    assert np.linalg.norm((vecs * vals) @ vecs.conj().T - h) <= 1e-10 * norm
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(dim)) <= 1e-10
    assert np.all(np.diff(vals) >= 0)


def test_matches_lapack_eigenvalues():
    for seed in range(5):
        h = random_hermitian(6, seed)
        vals, _ = jacobi_eigh(h)
        assert np.allclose(vals, np.linalg.eigvalsh(h), atol=1e-10)


def test_rejects_non_hermitian():
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rejects_non_square():
    with pytest.raises(ValueError):
        jacobi_eigh(np.zeros((2, 3)))


def test_zero_and_scalar_matrices():
    vals, vecs = jacobi_eigh(np.zeros((3, 3)))
    assert np.allclose(vals, 0.0)
    vals, _ = jacobi_eigh(np.array([[4.2]]))
    assert np.allclose(vals, [4.2])


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(2, 8), seed=st.integers(0, 10_000))
def test_random_inputs_match_lapack(dim, seed):
    h = random_hermitian(dim, seed)
    vals, vecs = jacobi_eigh(h)
    assert np.allclose(vals, np.linalg.eigvalsh(h), atol=1e-10)
    assert np.linalg.norm((vecs * vals) @ vecs.conj().T - h) <= 1e-10 * max(1.0, np.linalg.norm(h))


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 32, 64])
def test_operator_eig_matches_oracle(dim):
    h = random_hermitian(dim, seed=1000 + dim)
    vals, vecs = jacobi_eigh(h)
    dec = HermitianOperator(h).eig()
    assert dec.eigenvectors.dtype == np.complex128
    assert np.max(np.abs(dec.eigenvalues - vals)) <= 1e-10
    # random spectra are simple, so each eigenvector agrees up to a phase
    overlaps = np.abs(np.sum(vecs.conj() * dec.eigenvectors, axis=0))
    assert np.max(1.0 - overlaps) <= 1e-10


@pytest.mark.parametrize("dim", [2, 5, 16, 64])
def test_real_operator_eig_matches_oracle(dim):
    """A real symmetric matrix runs LAPACK's real solver; the oracle is unchanged."""
    h = random_hermitian(dim, seed=2000 + dim).real
    vals, vecs = jacobi_eigh(h)
    dec = HermitianOperator(h).eig()
    assert dec.eigenvectors.dtype == np.float64
    assert np.max(np.abs(dec.eigenvalues - vals)) <= 1e-10
    overlaps = np.abs(np.sum(vecs.conj() * dec.eigenvectors, axis=0))
    assert np.max(1.0 - overlaps) <= 1e-10


def test_operator_eig_residuals_dicke_100():
    H = dicke_interaction(100)
    dec = H.eig()
    V, lam = dec.eigenvectors, dec.eigenvalues
    assert np.linalg.norm(H.entries @ V - V * lam) / np.linalg.norm(H.entries) <= 1e-12
    assert np.linalg.norm(V.conj().T @ V - np.eye(H.dim)) <= 1e-12
