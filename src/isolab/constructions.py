"""The approximation constructions: diagonalizing bases, orthonormal-system
doubling, the five-step pipeline approximating an arbitrary expansive
operator, its T = 2*id case (the 2-isometric net targeting 2*id), and
their certificates.

The public functions take and return `Vector` lists.  Inside, the
constructions work on each system as the rows of one array over the
leading coordinates that carry it, and the `ConstructionTrace` keeps its
systems as such rows; its Vector lists are built on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotExpansive, SubspaceNotContained
from .generators import EXPANSIVITY_TOL
from .linalg import (gram_residual, hermitian_eig, orthonormal_rows,
                     spectral_norm)
from .operators import (BrownianBlock, DenseOperator, LazyIsometry,
                        ScalarOperator, direct_sum_power)
from .spaces import AmbientSpace, Vector, as_rows, padded, row_vectors

DEFAULT_CAPACITY_FACTOR = 64  # coordinates per dim(H): 16 * (4 copies)


@dataclass
class ConstructionTrace:
    """The systems x, y1, y2 of a construction run as rows over the leading
    coordinates they need (see `_assemble`; the block holds z1's and z2's
    images as W and V), built as Vector lists on demand by `x`, `y1`, `y2`."""
    space: AmbientSpace
    epsilon: float               # the first splitting's c, 1/dim(F) by default
    x_rows: np.ndarray           # diagonalizing ONB of F
    y1_rows: np.ndarray          # inputs of R
    y2_rows: np.ndarray          # ONB of the corner K
    sigmas: list
    norms_Tx: list
    orthogonality_max: float     # max_k ||<target(z_i^(k)), y2_j>||_F

    x = property(lambda self: row_vectors(self.x_rows, self.space))
    y1 = property(lambda self: row_vectors(self.y1_rows, self.space))
    y2 = property(lambda self: row_vectors(self.y2_rows, self.space))


#: threshold on the normalized order-2 defect for a row to count as passed
DEFECT_THRESHOLD = 1e-8

#: threshold on 1 - expansivity_min, the normalized deficit of B*B below I:
#: the certificate reports it as 5 eta and the defect as 10 eta (eta: summed
#: hypothesis residuals), so this passes the rows the defect threshold does
EXPANSIVITY_THRESHOLD = DEFECT_THRESHOLD / 2


@dataclass
class Certificate:
    """Measured vs. theoretical quantities for one construction run, in the
    CSV column order; a run that failed carries NaNs and its `error`."""
    n: int
    epsilon: float
    norm_T: float
    bound_theoretical: float
    bound_measured: float
    defect_max: float            # upper bound, normalized by max(1, ||B||^2)^2
    expansivity_min: float       # lower bound, normalized
    orthogonality_max: float
    wall_ms: float = np.nan
    bound_exact: float = np.nan  # eps ||(target - I)|_G||
    error: str | None = None

    @property
    def bound_holds(self) -> bool:
        return self.bound_measured <= self.bound_theoretical * (1 + 1e-9)

    @property
    def ok(self) -> bool:
        """The run's verdict: no error, the bound and both thresholds hold."""
        return (self.error is None and self.bound_holds
                and self.defect_max <= DEFECT_THRESHOLD
                and 1.0 - self.expansivity_min <= EXPANSIVITY_THRESHOLD)


def prepare_space(dim_h: int, capacity: int | None = None) -> AmbientSpace:
    """Ambient space with the physical copy of H allocated under label H1."""
    if capacity is None:
        capacity = DEFAULT_CAPACITY_FACTOR * dim_h
    space = AmbientSpace(capacity)
    space.allocate(dim_h, label="H1")
    return space


def standard_f_basis(space: AmbientSpace, n: int):
    """First n coordinates of the H1 copy (nested chain F_2 < F_4 < ...)."""
    h1 = space.labels["H1"]
    if n > len(h1):
        raise ValueError("dim(F) exceeds dim(H)")
    return [space.basis_vector(h1[i]) for i in range(n)]


def translate(v: Vector, from_indices, to_indices) -> Vector:
    """Move a vector's support from one labeled copy onto a disjoint one."""
    return Vector(_moved(v.prefix, from_indices, to_indices), v.space)


def _moved(coords: np.ndarray, from_indices, to_indices) -> np.ndarray:
    """`coords` (one vector or rows) with the entries on `from_indices`
    moved onto `to_indices`, over the prefix that ends at the last of these."""
    out = np.zeros(coords.shape[:-1] + (1 + int(np.max(to_indices)),),
                   dtype=np.complex128)
    out[..., to_indices] = padded(coords, 1 + int(np.max(from_indices))
                                  )[..., from_indices]
    return out


def diagonalizing_basis(T: DenseOperator, F_basis):
    """Orthonormal basis x_1..x_n of span(F_basis) whose T-images are
    pairwise orthogonal: the orthonormal eigenbasis of the compression
    P_F T*T|_F.  T must be attached to the space of F_basis."""
    space = F_basis[0].space
    x, _ = _diagonalizing_rows(T, as_rows(F_basis, space))
    return row_vectors(x, space)


def _diagonalizing_rows(T: DenseOperator, rows: np.ndarray):
    """`diagonalizing_basis` on rows: (x, Tx), an orthonormal basis x of the
    row span and its T-images, both as rows."""
    onb = orthonormal_rows(rows)
    images = T._apply_rows(onb)
    _, eigvecs = hermitian_eig(np.conj(images) @ images.T)
    return eigvecs.T @ onb, eigvecs.T @ images


def split_pair(xs, c: float, partner):
    """Double an ONS with orthogonal images across two copies of the space.

    `partner(x)` must return x moved into the disjoint second copy.  Returns
    (y1, y2) with

        y1_i = sqrt(1-c^2) x_i + c partner(x_i)
        y2_i =        c    x_i - sqrt(1-c^2) partner(x_i)

    so that x_i = sqrt(1-c^2) y1_i + c y2_i, the union is orthonormal, and
    the doubled-operator images of all 2n vectors stay pairwise orthogonal
    whenever the images of the x_i were.
    """
    if not 0.0 <= c <= 1.0:
        raise ValueError("c must lie in [0, 1]")
    space = xs[0].space if xs else None  # no Vectors, no rows
    y1, y2 = _split(as_rows(xs, space), as_rows([partner(x) for x in xs], space),
                    np.sqrt(1.0 - c * c), c)
    return row_vectors(y1, space), row_vectors(y2, space)


def _split(x, p, s, c):
    """(s x + c p, c x - s p): the splitting of `split_pair` on rows, with
    s and c scalars or columns; the narrower rows are padded."""
    w = max(x.shape[1], p.shape[1])
    x, p = (a if a.shape[1] == w else padded(a, w) for a in (x, p))
    return s * x + c * p, c * x - s * p


def _assemble(space, x, norms_Tx, target, partner1, partner2, epsilon):
    """Steps 1-3 shared by both constructions; returns (block, trace).

    `x` holds an ONB of F as rows over F's leading coordinates; their
    `target`-images are pairwise orthogonal with norms `norms_Tx` (an array,
    all >= 1 - EXPANSIVITY_TOL).  `partner1` maps the x_i, and `partner2` the
    y1_i, isometrically onto rows that end at a copy orthogonal to
    everything built so far; the operator `target` commutes with both and
    keeps rows at least as wide.  So y1, y2 lie over x's and the first
    copy's coordinates, z1, z2 and their images over every copy's.  The
    block is (R, V; 0, id_K), K spanned by the first splitting's complements
    y2, R lazily extended from y1_i -> target(z1_i)/||Tx_i||, and V(y2_i) =
    sigma_i target(z2_i), sigma_i = sqrt((1-eps^2)(1 - a_i^2))/eps, where
    a_i = min(1/||Tx_i||, 1) is the weight of y1_i in z1_i.
    """
    eps = 1.0 / len(x) if epsilon is None else float(epsilon)
    if not 0.0 < eps <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")

    # Step 1: split across the first partner copy
    y1, y2 = _split(x, partner1(x), np.sqrt(1.0 - eps * eps), eps)

    # Step 2: split the y1 once more, across the second partner copy
    if not np.all(norms_Tx >= 1.0 - EXPANSIVITY_TOL):
        raise NotExpansive(f"image norm below 1: ||Tx|| = {norms_Tx.min()}")
    inv = 1.0 / norms_Tx
    a = np.minimum(inv, 1.0)  # a norm just below 1 is roundoff: z1 = y1
    b = np.sqrt(1.0 - a * a)
    z1, z2 = _split(y1, partner2(y1), a[:, None], b[:, None])

    # Step 3: K on the y2, V scaled per direction, R lazily extended
    sigmas = np.sqrt(1.0 - eps * eps) * b / eps
    tz1, tz2 = target._apply_rows(z1), target._apply_rows(z2)
    ortho = max(gram_residual(tz, y2) for tz in (tz1, tz2))
    tz1 *= inv[:, None]     # W and V, scaled in place: `_apply_rows`
    tz2 *= sigmas[:, None]  # always returns a new array
    R = LazyIsometry(space, inputs=y1, outputs=tz1)
    block = BrownianBlock(R, K_basis=y2, V_images=tz2)

    trace = ConstructionTrace(space=space, epsilon=eps, x_rows=x, y1_rows=y1,
                              y2_rows=y2, sigmas=sigmas.tolist(),
                              norms_Tx=norms_Tx.tolist(),
                              orthogonality_max=ortho)
    return block, trace


def theorem1_construct(F_basis, space: AmbientSpace, *, epsilon=None):
    """2-isometric Brownian block within 1/dim(F) of 2*id on F.

    The Theorem-2 assembly with T = 2*id: any ONB of F diagonalizes it and
    every ||Tx_i|| is 2.  Because 2*id commutes with every isometry, both
    partner copies are fresh coordinates (2 dim(F) of them) instead of
    copies of H, and F may be any subspace of `space`.  On F the block
    satisfies ||(B - 2 id)x|| = eps ||x|| exactly.
    """
    x = orthonormal_rows(as_rows(F_basis, space))
    n = len(x)

    def fresh(rows):
        # called once per system being split, so the system goes
        # isometrically onto as many fresh coordinates
        return _moved(np.eye(n), np.arange(n), space.allocate(n))

    return _assemble(space, x, np.full(n, 2.0),
                     ScalarOperator(2.0), fresh, fresh, epsilon)


def theorem2_construct(T: DenseOperator, F_basis, space: AmbientSpace, *,
                       epsilon=None):
    """2-isometric Brownian block within (||T||+1)/dim(F) of T^(4) on F+0.

    Five-step pipeline on four labeled copies of H: diagonalize the
    compression of T*T on F, then split twice across the copies and
    assemble the block (see `_assemble`) with target
    T4 = T (+) T (+) T (+) T on the copies, which stores T once.

    Returns (block, T4, trace).  Raises NotExpansive if some ||Tx_i|| <
    1 - EXPANSIVITY_TOL.
    """
    d = T.dim
    for name in ("H1", "H2", "H3", "H4"):  # only H1 must exist already
        if name != "H1" and name not in space.labels:
            space.allocate(d, label=name)
        elif len(space.labels[name]) != d:
            raise ValueError(f"label {name} has {len(space.labels[name])} "
                             f"coordinates, T acts on {d}")
    h1, h2, h3, h4 = (space.labels[k] for k in ("H1", "H2", "H3", "H4"))

    T1 = T.embedded(space, h1)
    x, tx = _diagonalizing_rows(T1, as_rows(F_basis, space))
    norms_Tx = np.linalg.norm(tx, axis=1)  # _assemble checks >= 1

    T4 = direct_sum_power(T, 4, space, np.r_[h1, h2, h3, h4])
    block, trace = _assemble(
        space, x, norms_Tx, T4, lambda rows: _moved(rows, h1, h2),
        lambda rows: _moved(rows, np.r_[h1, h2], np.r_[h3, h4]), epsilon)
    return block, T4, trace


def certificate_evaluate(target, block, trace, G_basis, *,
                         operator_norm_T: float,
                         bound_theoretical: float) -> Certificate:
    """Exact approximation bound; structural order-2 defect and expansivity.

    `target` is the operator approximated (T^(4), or 2*id); span(G_basis)
    must lie in F.  With Q an ONB of span(G) and (E, r) = `block._step(Q)`,
    bound_measured = ||[E - target(Q) | r]||_2 = sup ||(B - target)x|| over
    unit x in span(G), and bound_exact = eps ||(target - I)Q||_2 equals it.

    defect_max = 10 eta and expansivity_min = 1 - 5 eta, normalized, for
    eta = `block.hypothesis_residual()`, whose docstring derives both bounds.
    Nothing is extended or formed m x m, and Q is as wide as G or F, not m.
    """
    g_rows = as_rows(G_basis, trace.space)  # DomainMismatch for G elsewhere
    width = max(g_rows.shape[1], trace.x_rows.shape[1])
    g_rows, f_rows = (a if a.shape[1] == width else padded(a, width)
                      for a in (g_rows, trace.x_rows))
    g_in_f = (g_rows @ np.conj(f_rows).T) @ f_rows
    resid = np.linalg.norm(g_rows - g_in_f, axis=1)
    if np.any(resid > 1e-8 * np.maximum(np.linalg.norm(g_rows, axis=1), 1e-300)):
        raise SubspaceNotContained("G is not contained in span(F) to tolerance")
    # the projection onto F keeps roundoff off R's undefined directions
    q = orthonormal_rows(g_in_f)
    eq, rq = block._step(q)
    moved = target._apply_rows(q)  # a new array, at least as wide as q
    if eq.shape[1] < moved.shape[1]:
        eq = padded(eq, moved.shape[1])
    eq[:, :moved.shape[1]] -= moved  # (B - target)Q, then (target - I)Q,
    moved[:, :q.shape[1]] -= q       # in place: only narrower rows are padded
    eps, eta = trace.epsilon, block.hypothesis_residual()

    return Certificate(n=len(trace.x_rows), epsilon=eps,
                       norm_T=operator_norm_T,
                       bound_theoretical=bound_theoretical,
                       bound_measured=spectral_norm(eq, rq),
                       bound_exact=eps * spectral_norm(moved),
                       defect_max=10.0 * eta, expansivity_min=1.0 - 5.0 * eta,
                       orthogonality_max=trace.orthogonality_max)
