"""Dense complex linear algebra: orthonormalization, Gram matrices and their
residuals, and Hermitian eigendecomposition.

All routines are deterministic.  Vectors carry their ambient space;
matrices are plain complex ndarrays.
"""

from __future__ import annotations

import numpy as np

from .errors import AllVectorsNegligible, NotHermitian
from .spaces import as_rows, row_vectors


def gram_schmidt(vectors, rank_tol: float = 1e-10):
    """Orthonormalize `vectors`, dropping numerically dependent ones.

    Works on the leading coordinates that carry the inputs (see
    `orthonormal_rows`).  A vector whose residual after projection is at
    most ``rank_tol * max input norm`` is dropped.

    Raises AllVectorsNegligible if nothing survives.
    """
    if not vectors:
        raise AllVectorsNegligible("no input vectors")
    space = vectors[0].space
    return row_vectors(orthonormal_rows(as_rows(vectors, space), rank_tol), space)


def orthonormal_rows(rows: np.ndarray, rank_tol: float = 1e-10):
    """Orthonormal rows spanning the rows of `rows`, taken in order.

    Classical Gram-Schmidt with one reorthogonalization (CGS2): each row is
    projected off the accepted block twice, by two matrix-vector passes.
    The drop rule and errors are those of `gram_schmidt`.
    """
    if rank_tol < 0:
        raise ValueError("rank_tol must be nonnegative")
    if len(rows) == 0:
        raise AllVectorsNegligible("no input vectors")
    scale = np.linalg.norm(rows, axis=1).max()
    if scale == 0.0:
        raise AllVectorsNegligible("all inputs are zero")
    basis = np.zeros(rows.shape, dtype=np.complex128)
    k = 0
    for row in rows:
        v = np.array(row, dtype=np.complex128)
        for _ in range(2):  # reorthogonalize once for stability
            v -= np.conj(basis[:k] @ np.conj(v)) @ basis[:k]
        r = np.linalg.norm(v)
        if r > rank_tol * scale:
            basis[k] = v / r
            k += 1
    if k == 0:
        raise AllVectorsNegligible("every vector dropped as dependent")
    return basis[:k]


def gram_matrix(vectors) -> np.ndarray:
    """Matrix of pairwise inner products G[i, j] = <v_i, v_j> (Hermitian)."""
    if not vectors:
        raise ValueError("empty vector list")
    rows = as_rows(vectors, vectors[0].space)
    G = np.conj(rows) @ rows.T
    return 0.5 * (G + np.conj(G.T))  # symmetrize roundoff


def gram_residual(rows: np.ndarray, other: np.ndarray | None = None) -> float:
    """Frobenius norm (a bound on the spectral one) of the rows' Gram matrix
    minus I, or of their inner products with the rows of `other` over the
    columns both carry: how far they are from orthonormal, or from `other`."""
    if other is None:
        return float(np.linalg.norm(np.conj(rows) @ rows.T - np.eye(len(rows))))
    k = min(rows.shape[1], other.shape[1])
    return float(np.linalg.norm(np.conj(rows[:, :k]) @ other[:, :k].T))


def spectral_norm(*blocks: np.ndarray) -> float:
    """||[blocks]||_2 of row blocks side by side, from the sum of their Gram
    matrices: for a few wide rows, cheaper than an SVD, and nothing stacked."""
    gram = sum(b @ np.conj(b).T for b in blocks)
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


def hermitian_eig(M: np.ndarray):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues descending, eigenvector columns).  The columns are
    orthonormal and satisfy ``M v_k = w_k v_k`` to solver precision.

    Raises NotHermitian if M deviates from M^H by more than 1e-10 relative.
    """
    M = np.asarray(M, dtype=np.complex128)
    scale = max(np.max(np.abs(M)), 1e-300)
    if np.max(np.abs(M - np.conj(M.T))) > 1e-10 * scale:
        raise NotHermitian("matrix is not Hermitian within tolerance")
    w, V = np.linalg.eigh(0.5 * (M + np.conj(M.T)))
    order = np.argsort(w)[::-1]
    return w[order].real, V[:, order]
