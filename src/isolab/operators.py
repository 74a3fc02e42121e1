"""Operator representations with infinite-dimensional semantics on
instantiated coordinates.

A genuinely non-isometric 2-isometry cannot live on a finite-dimensional
space, so the model never materializes full matrices for the block
operators.  Instead, isometries are defined lazily: each time an input
direction outside the defined span shows up, it is mapped to a freshly
allocated unit coordinate.  Verdicts use forward applications, or read
the images off the stored rows under that rule (`BrownianBlock._step`),
which keeps them faithful to the infinite-dimensional operator modeled.

Lazy isometries and Brownian blocks store their directions as rows over
the leading coordinates that carry them (at most the allocated ones), and
`Vector`s hold only their leading prefixes, so memory and the cost of an
application grow with the instantiated span, not with the capacity.  Every
application projects through `LazyIsometry._project` and extends through
`LazyIsometry._extended`; the constructors also take the rows themselves.
"""

from __future__ import annotations

import json
from math import comb, sqrt

import numpy as np

from .errors import DomainMismatch, NotNilpotent, OddDimension
from .linalg import gram_matrix
from .spaces import AmbientSpace, Vector, as_rows, padded


class DenseOperator:
    """Explicit square complex matrix, optionally attached to ambient coordinates.

    When attached, the operator acts on ``indices`` of the ambient space and
    annihilates nothing silently: a significant component outside its domain
    raises DomainMismatch.
    """

    def __init__(self, matrix, space: AmbientSpace | None = None, indices=None):
        self.matrix = np.asarray(matrix, dtype=np.complex128)
        if self.matrix.ndim != 2:
            raise ValueError("matrix must be 2-d")
        if not np.all(np.isfinite(self.matrix.view(np.float64))):
            raise ValueError("non-finite matrix entries")
        self.space = space
        self.indices = None if indices is None else np.asarray(indices)
        if space is not None:
            idx = self.indices
            if (idx is None or len(idx) != self.matrix.shape[1]
                    or np.any(idx < 0) or np.any(idx >= space.capacity)):
                raise ValueError("indices must give one coordinate per column")
        self._norm = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def operator_norm(self) -> float:
        if self._norm is None:
            self._norm = float(np.linalg.norm(self.matrix, 2))
        return self._norm

    def embedded(self, space: AmbientSpace, indices) -> "DenseOperator":
        return DenseOperator(self.matrix, space, indices)

    def apply(self, x):
        if isinstance(x, Vector):
            if x.space is not self.space:
                raise DomainMismatch("vector lives in a different space")
            return Vector(self._apply_rows(x.prefix[None, :])[0], self.space)
        x = np.asarray(x, dtype=np.complex128)
        return self.matrix @ x

    def _apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """Images of the vectors of the attached space whose coordinates
        over a leading prefix are the rows of `rows`, over the same prefix
        (widened to cover the operator's indices)."""
        if self.space is None:
            raise DomainMismatch("operator is not attached to a space")
        rows = padded(rows, int(self.indices.max()) + 1)
        off = np.linalg.norm(np.delete(rows, self.indices, axis=1), axis=1)
        if np.any(off > 1e-10 * np.maximum(np.linalg.norm(rows, axis=1), 1e-300)):
            raise DomainMismatch("vector has support outside operator domain")
        out = np.zeros_like(rows)
        out[:, self.indices] = rows[:, self.indices] @ self.matrix.T
        return out


class ScalarOperator:
    """t * identity, applicable to plain arrays and to any ambient Vector."""

    def __init__(self, scale: complex):
        self.scale = complex(scale)

    @property
    def operator_norm(self) -> float:
        return abs(self.scale)

    def apply(self, x):
        return x * self.scale


class LazyIsometry:
    """Isometry defined incrementally by on-demand isometric extension.

    Holds an orthonormal list of defined input directions and their
    (orthonormal) images.  Applying it to a vector with a component outside
    the defined span allocates one fresh coordinate, maps the new direction
    onto it, and only then evaluates.  Fresh coordinates are orthogonal to
    every instantiated vector, so the extension stays isometric and its
    image stays orthogonal to any constraint subspace that was instantiated
    earlier (models Im(R) perpendicular to Im(V)).

    The directions are stored as rows over the leading coordinates that
    carry them (at most the allocated ones), in buffers that double as
    rows and columns are added, never past the space's capacity.  The seed
    `inputs` and `outputs` are Vector lists or 2-d arrays of such rows.
    """

    def __init__(self, space: AmbientSpace, inputs=(), outputs=(),
                 extension_tol: float = 1e-12):
        if len(inputs) != len(outputs):
            raise ValueError("inputs and outputs must have equal length")
        self.space = space
        self.extension_tol = extension_tol
        U, W = as_rows(inputs, space), as_rows(outputs, space)
        self._m = len(U)                            # stored rows
        self._cols = max(U.shape[1], W.shape[1])    # columns holding them
        self._U, self._W = padded(U, self._cols), padded(W, self._cols)
        self._check_orthonormal()

    @property
    def defined_count(self) -> int:
        return self._m

    @property
    def defined_inputs(self) -> np.ndarray:
        """View of the stored input rows (defined_count x stored columns)."""
        return self._U[:self._m, :self._cols]

    @property
    def defined_outputs(self) -> np.ndarray:
        """View of the stored output rows, on the same columns as the inputs."""
        return self._W[:self._m, :self._cols]

    def _append(self, u: np.ndarray, w: np.ndarray):
        """Store one more input/output pair, each given over leading coordinates."""
        m, cols = self._m, max(self._cols, len(u), len(w))
        self._U = _grown(self._U, m + 1, cols, self.space.capacity)
        self._W = _grown(self._W, m + 1, cols, self.space.capacity)
        self._U[m, :len(u)] = u
        self._W[m, :len(w)] = w
        self._m, self._cols = m + 1, cols

    def _check_orthonormal(self):
        m = self.defined_count
        if m == 0:
            return
        for M, which in ((self.defined_inputs, "inputs"),
                         (self.defined_outputs, "outputs")):
            G = np.conj(M) @ M.T
            if np.max(np.abs(G - np.eye(m))) > 1e-10:
                raise ValueError(f"defined {which} are not orthonormal to 1e-10")

    def apply(self, x: Vector) -> Vector:
        """Evaluate (extending first if x leaves the defined span)."""
        if x.space is not self.space:
            raise DomainMismatch("vector lives in a different space")
        r = padded(x.prefix, self._cols)
        image, r = self._project(np.zeros(r.shape, dtype=np.complex128), r)
        return Vector(self._extended(image, r, x.norm()), self.space)

    def _project(self, image: np.ndarray, r: np.ndarray):
        """One projection pass, in place, over `r` (one vector or rows over
        the stored columns or more): its part in the defined span is taken
        off and mapped through R onto `image`, which is as wide as `r`."""
        U = self.defined_inputs
        p = np.conj(np.conj(r[..., :self._cols]) @ U.T)
        r[..., :self._cols] -= p @ U
        image[..., :self._cols] += p @ self.defined_outputs
        return image, r

    def _extended(self, image: np.ndarray, r: np.ndarray, xnorm: float):
        """`image` plus R of the residual `r` (one pass) of a vector of norm
        `xnorm`: above extension_tol * xnorm, a second pass, then a fresh
        coordinate if still above (or CapacityExceeded, nothing stored)."""
        tol = self.extension_tol * max(xnorm, 1e-300)
        rnorm = sqrt(np.vdot(r, r).real)
        if rnorm > tol:  # a residual R may store is reorthogonalized (CGS2)
            image, r = self._project(image, r)
            rnorm = sqrt(np.vdot(r, r).real)
        if rnorm <= tol:
            return image
        new_index = int(self.space.allocate(1)[0])
        w_new = np.zeros(new_index + 1, dtype=np.complex128)
        w_new[new_index] = 1.0
        self._append(r / rnorm, w_new)
        image = padded(image, new_index + 1)
        image[new_index] += rnorm
        return image


def _grown(buf: np.ndarray, rows: int, cols: int, limit: int) -> np.ndarray:
    """`buf` if it holds rows x cols, else a zero-padded copy that does, each
    grown dimension at least doubled but not past `limit` unless needed."""
    r, c = buf.shape
    if rows <= r and cols <= c:
        return buf
    shape = tuple(old if need <= old else max(need, min(2 * old, limit))
                  for need, old in ((rows, r), (cols, c)))
    new = np.zeros(shape, dtype=buf.dtype)
    new[:r, :c] = buf
    return new


class BrownianBlock:
    """Upper-triangular 2x2 block operator (R, V; 0, id_K).

    ``K_basis`` is an orthonormal basis of the finite-dimensional corner K;
    ``V_images`` are the images V(k_i) in L.  The action on x = x_L + x_K is
    R(x_L) + V(x_K) + x_K.  With R isometric and Im(R) orthogonal to
    Im(V), this is a 2-isometry.  K and V, given as Vector lists or as
    2-d arrays of rows, are stored as rows over one leading width.
    """

    def __init__(self, R: LazyIsometry, K_basis, V_images):
        if len(K_basis) != len(V_images):
            raise ValueError("K basis and V images must have equal length")
        self.R = R
        self.space = R.space
        K, V = as_rows(K_basis, self.space), as_rows(V_images, self.space)
        width = max(K.shape[1], V.shape[1])
        self._K, self._V = padded(K, width), padded(V, width)
        n = len(K)
        G = np.conj(self._K) @ self._K.T
        if np.max(np.abs(G - np.eye(n))) > 1e-10:
            raise ValueError("K basis is not orthonormal to 1e-10")
        # ||V||_2: the root of the largest eigenvalue of the n x n Gram V V*
        self._vnorm = float(np.sqrt(max(np.linalg.eigvalsh(
            self._V @ np.conj(self._V).T)[-1], 0.0))) if n else 0.0
        self._check_hypothesis()

    def _check_hypothesis(self):
        """Im(R) perpendicular to Im(V) on everything instantiated so far."""
        if self.R.defined_count == 0 or len(self._V) == 0:
            return
        vnorm = max(self._vnorm, 1e-300)
        k = min(self.R.defined_outputs.shape[1], self._V.shape[1])
        cross = np.max(np.abs(np.conj(self.R.defined_outputs[:, :k])
                              @ self._V[:, :k].T))
        if cross > 1e-10 * vnorm:
            raise ValueError("R*V = 0 hypothesis violated")

    @property
    def operator_norm(self) -> float:
        # ||B||^2 = 1 + ||V||^2: the supremum of ||Bx||^2 over unit x
        # is attained on K, where ||Bx||^2 = ||Vx||^2 + ||x||^2.
        return float(np.sqrt(1.0 + self._vnorm ** 2))

    def _step(self, X: np.ndarray):
        """B on the rows of X without extending R: (E, r) with B X = E + R r,
        r being X_L off R's span after two passes, which R maps to fresh
        coordinates; rows over leading prefixes, as wide as X or R's rows."""
        return self.R._project(*self._first_pass(X))

    def _first_pass(self, X: np.ndarray):
        """`_step` with one projection pass (`LazyIsometry._project`)."""
        K, V = self._K, self._V
        k = K.shape[1]
        XL = padded(X, max(k, self.R.defined_inputs.shape[1]))
        c = np.conj(np.conj(XL[:, :k]) @ K.T)
        xK = c @ K
        XL[:, :k] -= xK
        E = np.zeros(XL.shape, dtype=np.complex128)
        E[:, :k] = xK + c @ V
        return self.R._project(E, XL)

    def apply(self, x: Vector) -> Vector:
        if x.space is not self.space:
            raise DomainMismatch("vector lives in a different space")
        E, r = self._first_pass(x.prefix[None, :])
        return Vector(self.R._extended(E[0], r[0], x.norm()), self.space)


def direct_sum_power(T: DenseOperator, k: int,
                     space: AmbientSpace | None = None,
                     indices=None) -> DenseOperator:
    """Block-diagonal operator with k copies of T (k in {2, 4}).

    If `space` and `indices` (the concatenated coordinate sets of the k
    copies) are given, the result is attached to the ambient space.
    """
    if k not in (2, 4):
        raise ValueError("k must be 2 or 4")
    if T.matrix.shape[0] != T.matrix.shape[1]:
        raise ValueError("T must be square")
    d = T.dim
    big = np.zeros((k * d, k * d), dtype=np.complex128)
    for j in range(k):
        big[j * d:(j + 1) * d, j * d:(j + 1) * d] = T.matrix
    return DenseOperator(big, space, indices)


def _norm_of(x):
    if isinstance(x, Vector):
        return x.norm()
    return np.linalg.norm(x, axis=0) if np.ndim(x) == 2 else float(np.linalg.norm(x))


def defect_form(B, x, m: int):
    """Quadratic form of the m-isometry defect at x.

    Returns sum_{k=0}^m (-1)^(m-k) C(m, k) ||B^k x||^2, evaluated with
    forward applications only.  Zero (to roundoff) iff x is annihilated by
    the defect operator of an m-isometry.  For a DenseOperator or
    ScalarOperator, a (dim x k) array x gives the k forms of its columns.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    total = 0.0
    v = x
    for k in range(m + 1):
        total += (-1) ** (m - k) * comb(m, k) * _norm_of(v) ** 2
        if k < m:
            v = B.apply(v)
    return total


def compressed_gram(B, S) -> np.ndarray:
    """Matrix of the compression P_S B*B|_S in the orthonormal system S.

    G[i, j] = <B s_i, B s_j>; Hermitian positive semidefinite.  For an
    expansive B its smallest eigenvalue is at least 1.
    """
    return gram_matrix([B.apply(s) for s in S])


def random_2nilpotent(dim: int, seed: int) -> DenseOperator:
    """Random A with A^2 = 0 exactly (strict block form, seeded)."""
    if dim % 2 != 0:
        raise OddDimension("dimension must be even")
    rng = np.random.default_rng(seed)
    half = dim // 2
    block = rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half))
    A = np.zeros((dim, dim), dtype=np.complex128)
    A[:half, half:] = block
    return DenseOperator(A)


def three_isometry_from_nilpotent(A: DenseOperator) -> DenseOperator:
    """id + A for 2-nilpotent A; annihilates the order-3 defect form."""
    sq = A.matrix @ A.matrix
    if np.max(np.abs(sq)) != 0.0:
        raise NotNilpotent("A^2 is not exactly zero")
    return DenseOperator(np.eye(A.dim, dtype=np.complex128) + A.matrix)


def write_operator(path, matrix) -> None:
    """Store a matrix as a structured text document (rows, cols, entries)."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    doc = {
        "rows": matrix.shape[0],
        "cols": matrix.shape[1],
        "entries": [[float(z.real), float(z.imag)] for z in matrix.ravel()],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_operator(path) -> np.ndarray:
    """Read a matrix stored by write_operator."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    rows, cols = int(doc["rows"]), int(doc["cols"])
    entries = doc["entries"]
    if len(entries) != rows * cols:
        raise ValueError("entry count does not match rows*cols")
    flat = np.array([complex(re, im) for re, im in entries])
    return flat.reshape(rows, cols)
