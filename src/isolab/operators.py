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

Lazy isometries and Brownian blocks store the inputs U and the corner K
as rows over the leading coordinates that carry them (at most the
allocated ones), each at its own width, the outputs W and V as
`linalg.CoefficientRows`, and `Vector`s hold only their leading
prefixes, so memory and the cost of an application grow with the
instantiated span, not with the capacity.  R applies itself by one
`_project` pass and `_extended`; a block's `_first_pass` is its corner split
and R's first pass, the corner's and R's images made in one product.
"""

from __future__ import annotations

import json
from functools import cached_property
from math import comb, sqrt

import numpy as np

from .errors import DomainMismatch, NotNilpotent, OddDimension
from .linalg import (CoefficientRows, add_images, gram_matrix, gram_residual,
                     products)
from .spaces import AmbientSpace, Vector, as_rows, columns, padded


class DenseOperator:
    """Explicit square complex matrix, optionally attached to ambient coordinates.

    `singular_values`, from one SVD made when first read, give `operator_norm`
    and sigma_min.  When attached, the operator acts on integer ``indices``
    of the ambient space, one per column, one ascending run per copy of the
    matrix (`k` copies, the runs in any order), and annihilates nothing
    silently: a significant component outside its domain raises
    DomainMismatch.
    """

    k = 1  # copies of the matrix on the diagonal

    def __init__(self, matrix, space: AmbientSpace | None = None, indices=None):
        M = self._matrix = np.asarray(matrix, dtype=np.complex128)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("matrix must be 2-d and square, got "
                             + "x".join(map(str, M.shape)))
        if not np.all(np.isfinite(M.view(np.float64))):
            raise ValueError("non-finite matrix entries")
        self.space = space
        if space is not None:
            idx = None if indices is None else np.asarray(indices)
            if (idx is None or idx.dtype.kind not in "iu"
                    or not len(idx) == len(set(idx.tolist())) == self.dim
                    or np.any(idx < 0) or np.any(idx >= space.capacity)):
                raise ValueError("indices must give one coordinate per column")
            runs = idx.reshape(self.k, M.shape[1])
            if np.any(runs != runs[:, :1] + np.arange(M.shape[1])):
                raise ValueError("indices must be one ascending run per copy")
            self._starts = sorted(runs[:, :1].ravel().tolist())

    matrix = property(lambda self: self._matrix)
    dim = property(lambda self: self.k * self._matrix.shape[1])
    operator_norm = property(lambda self: float(self.singular_values.max(initial=0)))

    @cached_property
    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self._matrix, compute_uv=False)

    def embedded(self, space: AmbientSpace, indices) -> "DenseOperator":
        return DenseOperator(self.matrix, space, indices)

    def apply(self, x):
        if isinstance(x, Vector):
            if x.space is not self.space:
                raise DomainMismatch("vector lives in a different space")
            return Vector(self._apply_rows(x.prefix[None, :])[0], self.space)
        x = np.asarray(x, dtype=np.complex128)
        if len(x) != self.dim:
            raise ValueError(f"{len(x)} coordinates, the operator has "
                             f"{self.dim}")
        return self._product(x.T).T

    def _apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """Images of the vectors of the attached space whose coordinates
        over a leading prefix are the rows of `rows`, as wide as the rows
        or through the last copy they reach (one whose start lies within
        them).  Each reached copy with a nonzero entry is multiplied alone,
        its run padded only where the rows stop inside it; the off-domain
        test reads only the rows' own columns outside the reached copies."""
        if self.space is None:
            raise DomainMismatch("operator is not attached to a space")
        w, d = rows.shape[1], self._matrix.shape[1]
        reached = [s for s in self._starts if s < w]
        edges = [0, *(e for s in reached for e in (s, s + d)), w]
        off = [np.linalg.norm(rows[:, a:b], axis=1)
               for a, b in zip(edges[::2], edges[1::2]) if a < b]
        if off and np.any(np.hypot.reduce(off) > 1e-10 * np.maximum(
                np.linalg.norm(rows, axis=1), 1e-300)):
            raise DomainMismatch("vector has support outside operator domain")
        out = np.zeros((len(rows), max(w, edges[-2])), dtype=np.complex128)
        for s in reached:
            if (part := rows[:, s:s + d]).any():
                out[:, s:s + d] = self._product(
                    part if part.shape[1] == d else padded(part, d))
        return out

    def _product(self, rows: np.ndarray) -> np.ndarray:
        """The matrix on each copy of its width in `rows` (any whole number
        of copies per row), more than one stacked into one product."""
        d = self._matrix.shape[1]
        if rows.shape[-1] == d:
            return rows @ self._matrix.T
        return (rows.reshape(-1, d) @ self._matrix.T).reshape(rows.shape)


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

    The inputs U are stored as rows over the leading coordinates that
    carry them (allocated ones: a seed row nonzero past `space.allocated`,
    where extensions take fresh coordinates, is a ValueError), in a buffer
    that doubles as rows and columns are added, never past the space's
    capacity; an extension's output is kept as its fresh coordinate.  The
    seed `inputs` and `outputs` are Vector lists or 2-d arrays of such
    rows, the outputs also CoefficientRows, kept as given.
    """

    #: a residual above this times ||x|| is a new direction, not roundoff
    extension_tol = 1e-12

    def __init__(self, space: AmbientSpace, inputs=(), outputs=()):
        if len(inputs) != len(outputs):
            raise ValueError("inputs and outputs must have equal length")
        self.space = space
        self._U, self._W = _stored_rows(inputs, space), _stored_form(outputs, space)
        self._m = len(self._U)                                  # stored rows
        self._uc, self._wc = self._U.shape[1], self._W.end      # their widths
        self._fresh, self._fresh_cols = np.zeros(0, dtype=np.intp), slice(0, 0)
        self._e_U, self.e_W = None, gram_residual(self._W)
        for e, which in ((self.e_U, "inputs"), (self.e_W, "outputs")):
            if e > 1e-10:
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
        """The output rows (defined_count x W's columns), built when read."""
        out = np.zeros((self._m, self._wc), dtype=np.complex128)
        out[:len(self._W), :self._W.end] = self._W.dense()
        out[np.arange(len(self._W), self._m), self._fresh] = 1.0
        return out

    @property
    def e_U(self) -> float:
        """||UU* - I||_F of the stored inputs, kept until `_append` (a plain
        attribute: popping a cached_property slows R's attribute reads)."""
        if self._e_U is None:
            self._e_U = gram_residual(self.defined_inputs)
        return self._e_U

    def _append(self, u: np.ndarray, index: int):
        """Store one more input, given over leading coordinates (U grows only
        to its own width), its output the fresh coordinate `index`."""
        m, cap = self._m, self.space.capacity
        self._uc, self._wc = max(self._uc, len(u)), max(self._wc, index + 1)
        self._U = _grown(self._U, m + 1, self._uc, cap)
        self._U[m, :len(u)] = u
        self._fresh = np.append(self._fresh, index)
        self._fresh_cols = columns(self._fresh)
        self._m, self._e_U = m + 1, None  # e_U is stale

    def apply(self, x: Vector) -> Vector:
        """Evaluate, extending R first off its span."""
        return self._extended(*self._project(np.zeros(self._wc, dtype=np.complex128),
                                             padded(x.prefix, self._uc)), x)

    def _project(self, image: np.ndarray, r: np.ndarray, *terms):
        """One projection pass, in place, over `r` (one vector or rows over
        U's columns or more): its part in the defined span is taken off and
        mapped through R onto `image` (W's columns or more), with `terms`."""
        U, uc, n = self.defined_inputs, self._uc, len(self._W)
        p = np.conj(np.conj(r[..., :uc]) @ U.T)
        r[..., :uc] -= p @ U
        add_images(image, *terms, (p[..., :n], self._W))
        if n < self._m:
            image[..., self._fresh_cols] += p[..., n:]
        return image, r

    def _extended(self, image: np.ndarray, r: np.ndarray, x: Vector) -> Vector:
        """`image` plus R of `r` (one vector, in place), the part of `x` left
        for R after one pass: above extension_tol * ||x||, a second, then a
        fresh coordinate if still above (or CapacityExceeded, nothing stored)."""
        if x.space is not self.space:
            raise DomainMismatch("vector lives in a different space")
        tol = self.extension_tol * max(x.norm(), 1e-300)
        rnorm = sqrt(np.vdot(r, r).real)
        if rnorm > tol:  # a residual R may store is reorthogonalized (CGS2)
            image, r = self._project(image, r)
            rnorm = sqrt(np.vdot(r, r).real)
        if rnorm <= tol:
            return Vector(image, self.space)
        new_index = int(self.space.allocate(1)[0])
        self._append(r / rnorm, new_index)
        image = padded(image, new_index + 1)
        image[new_index] += rnorm
        return Vector(image, self.space)


def _stored_rows(items, space: AmbientSpace) -> np.ndarray:
    """`as_rows(items, space)`, refused if nonzero past `space.allocated`,
    where an extension would take a coordinate as fresh."""
    rows = as_rows(items, space)
    if rows.shape[1] > space.allocated and np.any(rows[:, space.allocated:]):
        raise ValueError("stored rows reach past the allocated coordinates")
    return rows


def _stored_form(items, space: AmbientSpace) -> CoefficientRows:
    """`_stored_rows` as the one-copy case, or CoefficientRows as given,
    refused past `space.allocated` as there, and unless finite with real
    weights, one row per copy, on disjoint ascending copies."""
    if not isinstance(items, CoefficientRows):
        return CoefficientRows(_stored_rows(items, space))
    B, C, starts = items.base, items.C, items.starts
    if items.end > space.allocated:
        raise ValueError("stored rows reach past the allocated coordinates")
    if (np.iscomplexobj(C) or C.shape != (len(starts), len(B)) or starts[0] < 0
            or any(t - s < B.shape[1] for s, t in zip(starts, starts[1:]))
            or not (np.isfinite(C).all() and np.isfinite(B).all())):
        raise ValueError("coefficient rows must be finite, with real weights, "
                         "one row per copy, on disjoint ascending copies")
    return items


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
    2-d arrays of rows (V also as CoefficientRows), are stored as given
    over the allocated leading coordinates that carry them (else
    ValueError), each at its own width.
    """

    def __init__(self, R: LazyIsometry, K_basis, V_images):
        if len(K_basis) != len(V_images):
            raise ValueError("K basis and V images must have equal length")
        self.R = R
        self.space = R.space
        self._K = _stored_rows(K_basis, R.space)
        self._Vc = V = _stored_form(V_images, R.space)
        self._e_K = gram_residual(self._K)
        if self._e_K > 1e-10:
            raise ValueError("K basis is not orthonormal to 1e-10")
        # Im(R) perpendicular to Im(V) on everything instantiated so far (R's
        # extension rows are units at _fresh: they meet V's columns there)
        gram = products((R._W, V), V)  # WV*, VV*: one base product if shared
        self._e_WV, self._VV = float(np.linalg.norm(next(gram))), next(gram)
        if len(R._fresh):
            self._e_WV = float(np.hypot(self._e_WV, np.linalg.norm(
                padded(V.dense(), R._wc)[:, R._fresh])))
        # V's largest row norm is at most ||V||: only past it is ||V|| read
        row_max = sqrt(np.diagonal(self._VV).real.max(initial=0.0))
        if self._e_WV > 1e-10 * row_max and self._e_WV > 1e-10 * self._vnorm:
            raise ValueError("R*V = 0 hypothesis violated")

    @cached_property
    def _vnorm(self) -> float:
        """||V||, from the VV* kept by the constructor, dropped once read."""
        return sqrt(np.linalg.eigvalsh(self.__dict__.pop("_VV")).max(initial=0.0))

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
        the rows as stored (R's extension rows meet K and V in their columns
        at `_fresh`); nothing is extended or allocated.  With
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
        B y1 = R y1.
        e_W, e_K, e_WV are computed once: an extension adds to W a unit row
        on a fresh coordinate, where stored W, K, V rows vanish; R renews e_U."""
        R, K, V, nu = self.R, self._K, self._Vc, max(self._vnorm, 1e-300)
        (e_WK, e_VK), f = gram_residual((R._W, V), K), R._fresh
        if len(f):  # R's extension rows, units on f: they meet K's columns there
            e_WK = float(np.hypot(e_WK, np.linalg.norm(K[:, f[f < K.shape[1]]])))
        return (R.e_U + R.e_W + self._e_K + gram_residual(R.defined_inputs, K)
                + e_WK + (self._e_WV + e_VK) / nu)

    def _first_pass(self, X: np.ndarray):
        """The corner split of the rows of X (or one vector), E = P_K X + V P_K X,
        X_L = X - P_K X, then R's first pass over X_L, V P_K X and its image
        made in one product: (E, r), E as wide as K, V, W, r as X, K, U."""
        K, V, R = self._K, self._Vc, self.R
        k = K.shape[1]
        XL = padded(X, max(k, R._uc))
        c = np.conj(np.conj(XL[..., :k]) @ K.T)
        E = np.zeros(X.shape[:-1] + (max(k, V.end, R._wc),), dtype=np.complex128)
        E[..., :k] = c @ K
        XL[..., :k] -= E[..., :k]
        return R._project(E, XL, (c, V))

    def apply(self, x: Vector) -> Vector:
        return self.R._extended(*self._first_pass(x.prefix), x)


class _DirectSumPower(DenseOperator):
    """k copies of T, stored once as `_matrix`; see direct_sum_power."""

    def __init__(self, T: DenseOperator, k: int, space, indices):
        self.k = k
        super().__init__(T.matrix, space, indices)

    matrix = property(lambda self: np.kron(np.eye(self.k), self._matrix))


def direct_sum_power(T: DenseOperator, k: int,
                     space: AmbientSpace | None = None,
                     indices=None) -> DenseOperator:
    """Block-diagonal operator with k copies of T (k in {2, 4}), applied
    copy by copy, its dense `matrix` built when read.  Its `singular_values`
    are T's: exact for its sigma_max (||T||) and sigma_min.  It is attached
    to `space` at `indices` (the k copies' coordinates, concatenated, each
    one ascending run) if given.
    """
    if k not in (2, 4):
        raise ValueError("k must be 2 or 4")
    return _DirectSumPower(T, k, space, indices)


def defect_form(B, x, m: int):
    """Quadratic form of the m-isometry defect at x.

    Returns sum_{k=0}^m (-1)^(m-k) C(m, k) ||B^k x||^2, evaluated with
    forward applications only.  Zero (to roundoff) iff x is annihilated by
    the defect operator of an m-isometry.  x is a Vector, or a 1-d array
    for a DenseOperator or ScalarOperator.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    total = 0.0
    v = x
    for k in range(m + 1):
        norm = v.norm() if isinstance(v, Vector) else float(np.linalg.norm(v))
        total += (-1) ** (m - k) * comb(m, k) * norm ** 2
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
    """Store a matrix as one line of JSON (rows, cols, entries).

    Row-major [re, im] pairs, each float as its repr, so read_operator gives
    back the same bits; older indented files read the same.  A matrix that
    read_operator would refuse (not 2-d, a side < 1) or JSON cannot hold (a
    NaN or infinite entry) raises ValueError before path is opened.
    """
    matrix = np.asarray(matrix, dtype=np.complex128, order="C")
    if matrix.ndim != 2 or min(matrix.shape) < 1:
        raise ValueError("matrix must be 2-d with both sides >= 1, "
                         f"got shape {matrix.shape}")
    if bad := np.argwhere(~np.isfinite(matrix)).tolist():
        raise ValueError(f"non-finite entries at (row, col) {bad}")
    rows, cols = matrix.shape
    # one C-encoded dumps: indent= or json.dump fall back to pure Python
    doc = {"rows": rows, "cols": cols,
           "entries": matrix.view(np.float64).reshape(-1, 2).tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")


def read_operator(path) -> np.ndarray:
    """Read a matrix stored by write_operator; a bad file raises OSError,
    ValueError, KeyError, TypeError, OverflowError or RecursionError."""
    with open(path, encoding="utf-8") as fh:
        doc = json.loads(text := fh.read())
    rows, cols = doc["rows"], doc["cols"]
    if not all(type(v) is int and v >= 1 for v in (rows, cols)):
        raise ValueError("rows and cols must be JSON integers >= 1, "
                         f"got {rows!r} and {cols!r}")
    entries = doc["entries"]
    if len(entries) != rows * cols:
        raise ValueError("entry count does not match rows*cols")
    # complex(True, False) is 1; no finite number holds a u or an f
    if ("u" in text or "f" in text) and any(type(v) is bool for e in entries for v in e):
        raise ValueError("matrix entries must be JSON numbers, not true or false")
    flat = np.array([complex(re, im) for re, im in entries])
    return flat.reshape(rows, cols)
