"""Operator representations with infinite-dimensional semantics on
instantiated coordinates.

A genuinely non-isometric 2-isometry cannot live on a finite-dimensional
space, so the model never materializes full matrices for the block
operators.  Instead, isometries are defined lazily: each time an input
direction outside the defined span shows up, it is mapped to a freshly
allocated unit coordinate.  Verdicts use forward applications, read the
images off the stored rows under that rule (`BrownianBlock._step`), or
bound them by residuals of the stored rows, which keeps them faithful to
the infinite-dimensional operator modeled.

Lazy isometries and Brownian blocks store each system of directions (U,
W, K, V) as rows over the leading coordinates that carry it (at most the
allocated ones), at its own width, and `Vector`s hold only their leading
prefixes, so memory and the cost of an application grow with the
instantiated span, not with the capacity.  Every
application projects through `LazyIsometry._project` and extends through
`LazyIsometry._extended`; the constructors also take the rows themselves.
"""

from __future__ import annotations

import json
from math import comb, sqrt

import numpy as np

from .errors import DomainMismatch, NotNilpotent, OddDimension
from .linalg import gram_matrix, gram_residual, spectral_norm
from .spaces import AmbientSpace, Vector, as_rows, padded


class DenseOperator:
    """Explicit square complex matrix, optionally attached to ambient coordinates.

    When attached, the operator acts on ``indices`` of the ambient space and
    annihilates nothing silently: a significant component outside its domain
    raises DomainMismatch.
    """

    def __init__(self, matrix, space: AmbientSpace | None = None, indices=None):
        self._matrix = np.asarray(matrix, dtype=np.complex128)
        if self._matrix.ndim != 2:
            raise ValueError("matrix must be 2-d")
        if not np.all(np.isfinite(self._matrix.view(np.float64))):
            raise ValueError("non-finite matrix entries")
        self.space = space
        self.indices = None if indices is None else np.asarray(indices)
        if space is not None:
            idx = self.indices
            if (idx is None or len(idx) != self.dim
                    or np.any(idx < 0) or np.any(idx >= space.capacity)):
                raise ValueError("indices must give one coordinate per column")
            # one selector of the domain's columns: a slice for a contiguous
            # ascending run (views, no gather), else the index array
            lo = int(idx[0]) if len(idx) else 0
            run = np.array_equal(idx, np.arange(lo, lo + len(idx)))
            self._sel = slice(lo, lo + len(idx)) if run else idx
            self._end = int(idx.max(initial=-1)) + 1
        self._norm = None

    matrix = property(lambda self: self._matrix)

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    @property
    def operator_norm(self) -> float:
        if self._norm is None:
            self._norm = float(np.linalg.norm(self._matrix, 2))
        return self._norm

    def embedded(self, space: AmbientSpace, indices) -> "DenseOperator":
        return DenseOperator(self.matrix, space, indices)

    def apply(self, x):
        if isinstance(x, Vector):
            if x.space is not self.space:
                raise DomainMismatch("vector lives in a different space")
            return Vector(self._apply_rows(x.prefix[None, :])[0], self.space)
        return self._product(np.asarray(x, dtype=np.complex128).T).T

    def _apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """Images of the vectors of the attached space whose coordinates
        over a leading prefix are the rows of `rows`, over the same prefix
        (widened to cover the operator's indices)."""
        if self.space is None:
            raise DomainMismatch("operator is not attached to a space")
        if rows.shape[1] < self._end:  # no copy when wide enough
            rows = padded(rows, self._end)
        sel = self._sel
        off = np.linalg.norm(np.delete(rows, sel, axis=1), axis=1)
        if np.any(off > 1e-10 * np.maximum(np.linalg.norm(rows, axis=1), 1e-300)):
            raise DomainMismatch("vector has support outside operator domain")
        out = np.zeros_like(rows)
        out[:, sel] = self._product(rows[:, sel])
        return out

    def _product(self, rows: np.ndarray) -> np.ndarray:
        return rows @ self._matrix.T  # rows over the operator's own columns


class ScalarOperator:
    """t * identity, applicable to plain arrays and to any ambient Vector."""

    def __init__(self, scale: complex):
        self.scale = complex(scale)

    @property
    def operator_norm(self) -> float:
        return abs(self.scale)

    def apply(self, x):
        return x * self.scale

    _apply_rows = apply  # a scalar maps rows to rows as is


class LazyIsometry:
    """Isometry defined incrementally by on-demand isometric extension.

    Holds an orthonormal list of defined input directions and their
    (orthonormal) images.  Applying it to a vector with a component outside
    the defined span allocates one fresh coordinate, maps the new direction
    onto it, and only then evaluates.  Fresh coordinates are orthogonal to
    every instantiated vector, so the extension stays isometric and its
    image stays orthogonal to any constraint subspace that was instantiated
    earlier (models Im(R) perpendicular to Im(V)).

    The inputs U and the outputs W are each stored as rows over the
    leading coordinates that carry them (at most the allocated ones), U
    and W at their own widths, in buffers that double as rows and columns
    are added, never past the space's capacity.  The seed `inputs` and
    `outputs` are Vector lists or 2-d arrays of such rows, kept as given:
    the first extension moves them into grown buffers.
    """

    #: a residual above this times ||x|| is a new direction, not roundoff
    extension_tol = 1e-12

    def __init__(self, space: AmbientSpace, inputs=(), outputs=()):
        if len(inputs) != len(outputs):
            raise ValueError("inputs and outputs must have equal length")
        self.space = space
        self._U, self._W = as_rows(inputs, space), as_rows(outputs, space)
        self._m = len(self._U)                                  # stored rows
        self._uc, self._wc = self._U.shape[1], self._W.shape[1]  # their widths
        for rows, which in ((self._U, "inputs"), (self._W, "outputs")):
            if gram_residual(rows) > 1e-10:
                raise ValueError(f"defined {which} are not orthonormal to 1e-10")

    @property
    def defined_count(self) -> int:
        return self._m

    @property
    def defined_inputs(self) -> np.ndarray:
        """View of the stored input rows (defined_count x U's columns)."""
        return self._U[:self._m, :self._uc]

    @property
    def defined_outputs(self) -> np.ndarray:
        """View of the stored output rows (defined_count x W's columns)."""
        return self._W[:self._m, :self._wc]

    def _append(self, u: np.ndarray, w: np.ndarray):
        """Store one more input/output pair, each given over leading
        coordinates; U and W each grow only to their own widths."""
        m, cap = self._m, self.space.capacity
        self._uc, self._wc = max(self._uc, len(u)), max(self._wc, len(w))
        self._U = _grown(self._U, m + 1, self._uc, cap)
        self._W = _grown(self._W, m + 1, self._wc, cap)
        self._U[m, :len(u)] = u
        self._W[m, :len(w)] = w
        self._m = m + 1

    def apply(self, x: Vector) -> Vector:
        """Evaluate (extending first if x leaves the defined span)."""
        if x.space is not self.space:
            raise DomainMismatch("vector lives in a different space")
        r = padded(x.prefix, self._uc)
        image, r = self._project(np.zeros(self._wc, dtype=np.complex128), r)
        return Vector(self._extended(image, r, x.norm()), self.space)

    def _project(self, image: np.ndarray, r: np.ndarray):
        """One projection pass, in place, over `r` (one vector or rows over
        U's columns or more): its part in the defined span is taken off and
        mapped through R onto `image` (over W's columns or more)."""
        U, uc = self.defined_inputs, self._uc
        p = np.conj(np.conj(r[..., :uc]) @ U.T)
        r[..., :uc] -= p @ U
        image[..., :self._wc] += p @ self.defined_outputs
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
    2-d arrays of rows, are each stored (as given) as rows over the leading
    coordinates that carry them, K at its own width and V at its own.
    """

    def __init__(self, R: LazyIsometry, K_basis, V_images):
        if len(K_basis) != len(V_images):
            raise ValueError("K basis and V images must have equal length")
        self.R = R
        self.space = R.space
        self._K, self._V = (as_rows(a, self.space) for a in (K_basis, V_images))
        if gram_residual(self._K) > 1e-10:
            raise ValueError("K basis is not orthonormal to 1e-10")
        self._vnorm = spectral_norm(self._V) if len(self._K) else 0.0
        # Im(R) perpendicular to Im(V) on everything instantiated so far
        if gram_residual(R.defined_outputs, self._V) > 1e-10 * self._vnorm:
            raise ValueError("R*V = 0 hypothesis violated")

    @property
    def operator_norm(self) -> float:
        # ||B||^2 = 1 + ||V||^2: the supremum of ||Bx||^2 over unit x
        # is attained on K, where ||Bx||^2 = ||Vx||^2 + ||x||^2.
        return float(np.sqrt(1.0 + self._vnorm ** 2))

    def _step(self, X: np.ndarray):
        """B on the rows of X without extending R: (E, r) with B X = E + R r,
        r being X_L off R's span after two passes, which R maps to fresh
        coordinates; rows over leading prefixes, E as wide as K, V and W,
        r as X, K and U."""
        return self.R._project(*self._first_pass(X))

    def hypothesis_residual(self) -> float:
        """eta: the summed Frobenius norms e_U, e_W, e_K of UU*, WW*, KK* - I
        (U, W: R's stored inputs and outputs, extension rows included) and
        e_UK, e_WK, e_WV, e_VK of UK*, WK*, WV*/nu, VK*/nu (nu = ||V||), of
        the rows as stored; nothing is extended or allocated.  With
        s = 1 + nu^2 = max(1, ||B||^2), B as its rows define it satisfies
        ||B*^2 B^2 - 2B*B + I|| <= 10 eta s^2 and B*B >= 1 - 5 eta s.
        Why: `_step` maps a row x to [xM | xN], xN on fresh coordinates, with
        M = P + K*V + A(I + C)U*W, N = AC^2, P = K*K, A = I - P, C = I - U*U
        (R's two projection passes, CGS2; an extension stores such a residual
        in U, with a fresh unit row in W).  So B*B = G = MM* + NN*, B*^2 B^2 =
        MGM* + NN* and the defect is D = M(G - I)M* - (G - I).  With ||A|| <= 1,
        ||I + C|| <= 2 and (I + C)U*U(I + C) + C^4 = f(U*U), f(0) = 1,
        f(q) = q(2 - q)^2 + (1 - q)^4 = 2 - q + O((q - 1)^2), to first order
        G = I + K*VV*K + Z, ||Z|| <= 2e_K + e_U + 4e_W + 4e_WK + 2nu(e_VK + 2e_WV)
        <= 4 eta s as nu <= s/2, so B*B >= 1 - ||Z||.  MK* = K* + F with ||F||
        <= e_K + nu e_VK + 2e_WK gives D = FVV*K + K*VV*F* + FVV*F* + MZM* - Z,
        and ||MM*|| <= ||G||, nu^2 <= s^2/4, nu^3 <= s^2/3 give ||D||/s^2 <=
        4.5e_K + 2e_U + 8e_W + 9e_WK + 2.7e_VK + 4e_WV <= 9 eta.  Higher orders
        stay within 10 eta and 5 eta for eta <= 1/50, past which the row fails
        anyway.  e_UK enters neither, but y1 is orthogonal to y2 so that
        B y1 = R y1."""
        U, W = self.R.defined_inputs, self.R.defined_outputs
        K, V, nu = self._K, self._V, max(self._vnorm, 1e-300)
        return (gram_residual(U) + gram_residual(W) + gram_residual(K)
                + gram_residual(U, K) + gram_residual(W, K)
                + (gram_residual(W, V) + gram_residual(V, K)) / nu)

    def _first_pass(self, X: np.ndarray):
        """`_step` with one projection pass (`LazyIsometry._project`)."""
        K, V = self._K, self._V
        k, v = K.shape[1], V.shape[1]
        XL = padded(X, max(k, self.R._uc))
        c = np.conj(np.conj(XL[:, :k]) @ K.T)
        xK = c @ K
        XL[:, :k] -= xK
        E = np.zeros((len(X), max(k, v, self.R._wc)), dtype=np.complex128)
        E[:, :k] = xK
        E[:, :v] += c @ V
        return self.R._project(E, XL)

    def apply(self, x: Vector) -> Vector:
        if x.space is not self.space:
            raise DomainMismatch("vector lives in a different space")
        E, r = self._first_pass(x.prefix[None, :])
        return Vector(self.R._extended(E[0], r[0], x.norm()), self.space)


class _DirectSumPower(DenseOperator):
    """k copies of T, stored once as `_matrix`; see direct_sum_power."""

    def __init__(self, T: DenseOperator, k: int, space, indices):
        self.k = k
        super().__init__(T.matrix, space, indices)

    dim = property(lambda self: self.k * self._matrix.shape[1])
    matrix = property(lambda self: np.kron(np.eye(self.k), self._matrix))

    def _product(self, rows: np.ndarray) -> np.ndarray:
        d = self._matrix.shape[1]  # each row as k rows of T's width
        return (rows.reshape(-1, d) @ self._matrix.T).reshape(rows.shape)


def direct_sum_power(T: DenseOperator, k: int,
                     space: AmbientSpace | None = None,
                     indices=None) -> DenseOperator:
    """Block-diagonal operator with k copies of T (k in {2, 4}), applied
    copy by copy; its norm is ||T||, and the dense `matrix` is built when
    read.  If `space` and `indices` (the concatenated coordinate sets of the
    k copies) are given, the result is attached to the ambient space.
    """
    if k not in (2, 4):
        raise ValueError("k must be 2 or 4")
    if T.matrix.shape[0] != T.matrix.shape[1]:
        raise ValueError("T must be square")
    return _DirectSumPower(T, k, space, indices)


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
    rows, cols = doc["rows"], doc["cols"]
    if not all(type(v) is int and v >= 1 for v in (rows, cols)):
        raise ValueError("rows and cols must be JSON integers >= 1, "
                         f"got {rows!r} and {cols!r}")
    entries = doc["entries"]
    if len(entries) != rows * cols:
        raise ValueError("entry count does not match rows*cols")
    flat = np.array([complex(re, im) for re, im in entries])
    return flat.reshape(rows, cols)
