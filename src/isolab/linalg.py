"""Dense complex linear algebra: orthonormalization, rows in coefficient
form, Gram matrices and residuals, and spectral norms.

All routines are deterministic.  Vectors carry their ambient space;
matrices are plain complex ndarrays.
"""

from __future__ import annotations

import numpy as np

from .errors import AllVectorsNegligible
from .spaces import as_rows, row_vectors


#: drop tolerance of `orthonormal_rows`, relative to the largest row norm
RANK_TOL = 1e-10


def gram_schmidt(vectors):
    """Orthonormalize `vectors`, dropping numerically dependent ones.

    Works on the leading coordinates that carry the inputs (see
    `orthonormal_rows`).  A vector whose residual after projection onto
    the ones kept before it is at most ``RANK_TOL * max input norm`` is
    dropped.

    Raises AllVectorsNegligible if there are none or all are zero.
    """
    space = vectors[0].space if vectors else None
    return row_vectors(orthonormal_rows(as_rows(vectors, space)), space)


def orthonormal_rows(rows: np.ndarray):
    """Orthonormal rows spanning the rows of `rows`, taken in order.

    One reduced Householder QR of the rows as columns, rows = (QR)^T.  The
    k-th residual after projection onto the rows before it is R_kk q_k,
    so the rows (Q diag(R_kk/|R_kk|))^T are those of Gram-Schmidt up to
    rounding: same order, nested spans and phases.  While some |R_kk| is
    at most ``RANK_TOL * max row norm``, the first such row is deleted and
    the rest factored again: so the rows dropped are Gram-Schmidt's, and
    a rank-deficient input costs one QR per dropped row.  Rows past the
    width drop out once the first `width` rows are kept.
    """
    if len(rows) == 0:
        raise AllVectorsNegligible("no input vectors")
    scale = np.linalg.norm(rows, axis=1).max()
    if scale == 0.0:
        raise AllVectorsNegligible("all inputs are zero")
    while True:
        q, r = np.linalg.qr(rows[:rows.shape[1]].T)
        d = np.diagonal(r)
        ad = np.abs(d)
        low = np.flatnonzero(ad <= RANK_TOL * scale)
        if len(low) == 0:
            return np.multiply(q.T, (d / ad)[:, None], order="C",
                               dtype=np.complex128)
        rows = np.delete(rows, low[0], axis=0)


def gram_matrix(vectors) -> np.ndarray:
    """Matrix of pairwise inner products G[i, j] = <v_i, v_j> (Hermitian)."""
    if not vectors:
        raise ValueError("empty vector list")
    rows = as_rows(vectors, vectors[0].space)
    G = products(rows, rows).T  # conj(rows) @ rows.T
    return 0.5 * (G + np.conj(G.T))  # symmetrize roundoff


class CoefficientRows:
    """Rows in coefficient form: row i is the sum over the copies j of
    C[j, i] base[i] on the columns starts[j] : starts[j] + base width, C
    real, the copies disjoint and ascending.  A 2-d array of rows is the
    one-copy case, weight 1 at column 0."""

    def __init__(self, base: np.ndarray, C=None, starts=(0,)):
        self.base, self.starts, d = base, tuple(starts), base.shape[1]
        self.C = np.ones((1, len(base))) if C is None else C
        self.end = self.starts[-1] + d
        st = self.starts  # the copies' columns in order: a slice if adjacent
        adjacent = all(t - s == d for s, t in zip(st, st[1:]))
        self.cols = (slice(st[0], self.end) if adjacent
                     else np.concatenate([np.arange(s, s + d) for s in st]))

    def __len__(self):
        return len(self.base)

    def dense(self) -> np.ndarray:
        """The rows over columns 0 : end, zero off the copies."""
        out = np.zeros((len(self.base), self.end), dtype=np.complex128)
        for s, c in zip(self.starts, self.C):
            out[:, s:s + self.base.shape[1]] = c[:, None] * self.base
        return out


def add_images(out: np.ndarray, *terms):
    """out += the sum of p @ rows over the terms (p, rows), in place, each p
    a coefficient vector or rows of them, by one product with the base for
    all copies per run of terms on one base array and copies (`_runs`);
    rows go in blocks of at most 1 MiB of weights."""
    if out.ndim == 1:
        for rows, pc in _runs(terms):  # pc copies x n
            out[rows.cols] += (pc @ rows.base).reshape(-1)
        return out
    step = max(1, (1 << 16) // max([r.C.size for _, r in terms] + [1]))
    for i in range(0, len(out), step):  # pc rows x copies x n
        for rows, pc in _runs([(p[i:i + step, None, :], r) for p, r in terms]):
            out[i:i + step, rows.cols] += (pc.reshape(-1, len(rows)) @ rows.base
                                           ).reshape(len(pc), -1)
    return out


def _runs(terms):
    """(rows, the sum of p * C) per run of consecutive terms (p, rows) on
    one base array and copies, forms without rows left out."""
    rows = None
    for p, r in terms:
        if rows is not None and r.base is rows.base and r.starts == rows.starts:
            pc += p * r.C
            continue
        if rows is not None and rows.C.size:
            yield rows, pc
        rows, pc = r, p * r.C
    if rows.C.size:
        yield rows, pc


def products(a, b):
    """a @ b* over the columns both carry, for arrays of rows or
    CoefficientRows (a one if b is): (Ca^T Cb) o (base_a base_b*) on the
    same copies, copy j meeting copy j only; an array meets each copy of a
    on their shared columns; b on other copies is made dense.  b is
    conjugated in column blocks of at most 1 MiB, never copied whole.  A
    tuple a gives an iterator over its forms' products: if all hold one
    base array on the same copies, they contract it with b once (a form's
    result made as it is read, a copy's product used by all at once)."""
    if isinstance(a, tuple):
        f = a[0]
        if not all(isinstance(g, CoefficientRows) and g.base is f.base
                   and g.starts == f.starts for g in a):
            return (products(g, b) for g in a)
        if isinstance(b, CoefficientRows) and f.starts != b.starts:
            b = b.dense()
        if isinstance(b, CoefficientRows):
            base = products(f.base, b.base)
            return ((g.C.T @ b.C) * base for g in a)
        outs = [np.zeros((len(f), len(b)), dtype=np.complex128) for _ in a]
        for j, s in enumerate(f.starts):
            if s < b.shape[1]:
                base = products(f.base, b[:, s:s + f.base.shape[1]])
                for out, g in zip(outs, a):
                    out += g.C[j][:, None] * base
        return iter(outs)
    if isinstance(a, CoefficientRows):
        return next(products((a,), b))
    k, step = min(a.shape[1], b.shape[1]), max(1, (1 << 16) // max(len(b), 1))
    out = a[:, :min(k, step)] @ np.conj(b[:, :min(k, step)]).T
    for i in range(step, k, step):
        out += a[:, i:min(i + step, k)] @ np.conj(b[:, i:min(i + step, k)]).T
    return out


def gram_residual(rows, other=None) -> float:
    """Frobenius norm (a bound on the spectral one) of the rows' Gram matrix
    minus I, or of their inner products with the rows of `other` over the
    columns both carry (see `products`): how far they are from orthonormal,
    or from `other` (a list for a tuple of rows, by one `products` call)."""
    G = products(rows, rows if other is None else other)
    if isinstance(rows, tuple):
        return [float(np.linalg.norm(g)) for g in G]
    if other is None:
        G.reshape(-1)[::len(G) + 1] -= 1.0  # G - I, in place
    return float(np.linalg.norm(G))


def spectral_norm(*blocks) -> float:
    """||[blocks]||_2 of row blocks side by side, from the sum of their Gram
    matrices: for a few wide rows, cheaper than an SVD, and nothing stacked."""
    gram = products(blocks[0], blocks[0])
    for b in blocks[1:]:
        gram += products(b, b)
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))

