"""The approximation constructions: diagonalizing bases, orthonormal-system
doubling, the five-step pipeline approximating an arbitrary expansive
operator, its T = 2*id case (the 2-isometric net targeting 2*id), and
exact certificates over the instantiated span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotExpansive, SubspaceNotContained
from .linalg import extend_ons, gram_matrix, gram_schmidt, hermitian_eig
from .operators import (BrownianBlock, DenseOperator, LazyIsometry,
                        ScalarOperator, compressed_gram, direct_sum_power)
from .spaces import AmbientSpace, Vector, leading_rows

DEFAULT_CAPACITY_FACTOR = 64  # coordinates per dim(H): 16 * (4 copies)


@dataclass
class ConstructionTrace:
    """Every intermediate orthonormal system of a construction run."""
    x: list                      # diagonalizing ONB of F
    y1: list                     # inputs of R
    y2: list                     # ONB of the corner K
    z1: list
    z2: list
    sigmas: list
    norms_Tx: list
    orthogonality_max: float     # max |<target(z_i^(k)), y2_j>|


@dataclass
class Certificate:
    """Measured vs. theoretical quantities for one construction run."""
    n: int
    epsilon: float
    operator_norm_T: float
    bound_theoretical: float
    bound_measured: float
    defect_max: float            # normalized by max(1, ||B||^2)^2
    expansivity_min: float
    orthogonality_max: float

    @property
    def bound_holds(self) -> bool:
        return self.bound_measured <= self.bound_theoretical * (1 + 1e-9)


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
    from_indices = np.asarray(from_indices)
    to_indices = np.asarray(to_indices)
    coords = np.zeros_like(v.coords)
    coords[to_indices] = v.coords[from_indices]
    return Vector(coords, v.space)


def diagonalizing_basis(T, F_basis):
    """Orthonormal basis x_1..x_n of span(F_basis) whose T-images are
    pairwise orthogonal: the orthonormal eigenbasis of the compression
    P_F T*T|_F."""
    onb = gram_schmidt(F_basis)
    G = compressed_gram(T, onb)
    _, eigvecs = hermitian_eig(G)
    rows = np.array([v.coords for v in onb])
    space = onb[0].space
    return [Vector(eigvecs[:, k] @ rows, space) for k in range(len(onb))]


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
    s = np.sqrt(1.0 - c * c)
    y1, y2 = [], []
    for x in xs:
        p = partner(x)
        y1.append(s * x + c * p)
        y2.append(c * x - s * p)
    return y1, y2


def _clamped_complement(a: float) -> float:
    """sqrt(1 - a^2) with roundoff clamping; a = 1/||Tx_i|| <= 1."""
    val = 1.0 - a * a
    if val < -1e-12:
        raise NotExpansive(f"image norm below 1: 1/||Tx|| = {a}")
    return float(np.sqrt(max(val, 0.0)))


def _assemble(x, norms_Tx, target, partner1, partner2, epsilon):
    """Steps 1-3 shared by both constructions; returns (block, trace).

    `x` is an ONB of F whose `target`-images are pairwise orthogonal with
    norms `norms_Tx` (all >= 1).  `partner1` maps the x_i, and `partner2`
    the y1_i, isometrically onto a copy orthogonal to everything built so
    far, and `target` must commute with both.  The block is
    (R, V; 0, id_K) with K spanned by the first splitting's complements y2,
    R lazily extended from y1_i -> target(z1_i)/||Tx_i||, and
    V(y2_i) = sigma_i target(z2_i),
    sigma_i = sqrt((1-eps^2)(1 - 1/||Tx_i||^2))/eps.
    """
    n = len(x)
    eps = 1.0 / n if epsilon is None else float(epsilon)
    if not 0.0 < eps <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")

    # Step 1: split across the first partner copy
    y1, y2 = split_pair(x, eps, partner1)

    # Step 2: split the y1 once more, across the second partner copy
    y1_shift = [partner2(v) for v in y1]
    a = [1.0 / t for t in norms_Tx]
    b = [_clamped_complement(ai) for ai in a]
    z1 = [a[i] * y1[i] + b[i] * y1_shift[i] for i in range(n)]
    z2 = [b[i] * y1[i] - a[i] * y1_shift[i] for i in range(n)]

    # Step 3: K on the y2, V scaled per direction, R lazily extended
    sigmas = [np.sqrt(1.0 - eps * eps) * b[i] / eps for i in range(n)]
    tz1 = [target.apply(v) for v in z1]
    tz2 = [target.apply(v) for v in z2]
    R = LazyIsometry(x[0].space, inputs=y1,
                     outputs=[a[i] * tz1[i] for i in range(n)])
    block = BrownianBlock(R, K_basis=y2,
                          V_images=[sigmas[i] * tz2[i] for i in range(n)])

    rows = leading_rows(tz1 + tz2 + y2, x[0].space)
    ortho = float(np.max(np.abs(np.conj(rows[:2 * n]) @ rows[2 * n:].T)))
    trace = ConstructionTrace(x=x, y1=y1, y2=y2, z1=z1, z2=z2,
                              sigmas=sigmas, norms_Tx=norms_Tx,
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
    x = gram_schmidt(F_basis)

    def fresh(v):
        # called once per member of the system being split, so the system
        # goes isometrically onto as many fresh coordinates
        return extend_ons([v], 1, space)[0]

    return _assemble(x, [2.0] * len(x), ScalarOperator(2.0), fresh, fresh,
                     epsilon)


def theorem2_construct(T: DenseOperator, F_basis, space: AmbientSpace, *,
                       epsilon=None):
    """2-isometric Brownian block within (||T||+1)/dim(F) of T^(4) on F+0.

    Five-step pipeline on four labeled copies of H: diagonalize the
    compression of T*T on F, then split twice across the copies and
    assemble the block (see `_assemble`).

    Returns (block, T4, trace).  Raises NotExpansive if some ||Tx_i|| < 1
    beyond tolerance.
    """
    d = T.dim
    h1 = space.labels["H1"]
    if len(h1) != d:
        raise ValueError("T does not act on the H1 copy")
    for name in ("H2", "H3", "H4"):
        if name not in space.labels:
            space.allocate(d, label=name)
    h2, h3, h4 = (space.labels[k] for k in ("H2", "H3", "H4"))
    first_pair = np.concatenate([h1, h2])
    second_pair = np.concatenate([h3, h4])

    T1 = T.embedded(space, h1)
    x = diagonalizing_basis(T1, F_basis)
    norms_Tx = [T1.apply(xi).norm() for xi in x]
    if min(norms_Tx) < 1.0 - 1e-10:
        raise NotExpansive(f"min ||Tx_i|| = {min(norms_Tx)} < 1")

    T4 = direct_sum_power(T, 4, space,
                          indices=np.concatenate([h1, h2, h3, h4]))
    block, trace = _assemble(
        x, norms_Tx, T4, lambda v: translate(v, h1, h2),
        lambda v: translate(v, first_pair, second_pair), epsilon)
    return block, T4, trace


def certificate_evaluate(target, block, trace, G_basis, *,
                         operator_norm_T: float,
                         bound_theoretical: float) -> Certificate:
    """Exact approximation bound, order-2 defect, and expansivity.

    `target` is the operator being approximated (T^(4), or 2*id), and
    span(G_basis) must lie in F.  With e_1..e_m the coordinates
    instantiated so far:

    - bound_measured is the supremum of ||(B - target)x|| over unit x in
      span(G): the spectral norm of (B - target) on an ONB of span(G);
    - defect_max is ||Gram(B^2 e_j) - 2 Gram(B e_j) + I||_2, divided by
      max(1, ||B||^2)^2;
    - expansivity_min is the smallest eigenvalue of Gram(B e_j), the
      compression of B*B to the instantiated span.

    The powers run on a copy of the block in a scratch space of 3m
    coordinates (each of the 2m applications extends R at most once), and
    the bound only meets F, whose L-part R already maps, so neither the
    block nor its space changes.
    """
    space = G_basis[0].space
    f_rows = np.array([v.coords for v in trace.x])
    g_rows = np.array([v.coords for v in G_basis])
    g_in_f = (g_rows @ np.conj(f_rows).T) @ f_rows
    resid = np.linalg.norm(g_rows - g_in_f, axis=1)
    if np.any(resid > 1e-8 * np.maximum(np.linalg.norm(g_rows, axis=1), 1e-300)):
        raise SubspaceNotContained("G is not contained in span(F) to tolerance")
    # the projection onto F keeps roundoff off R's undefined directions
    q = gram_schmidt([Vector(row, space) for row in g_in_f])
    bound_measured = float(np.linalg.norm(
        [(block.apply(v) - target.apply(v)).coords for v in q], 2))

    m = space.allocated
    scratch = AmbientSpace(3 * m)
    scratch.allocate(m)
    copy = block.copy_to(scratch)
    images = [copy.apply(scratch.basis_vector(j)) for j in range(m)]
    gram1 = gram_matrix(images)
    defect = gram_matrix([copy.apply(v) for v in images]) - 2 * gram1 + np.eye(m)

    return Certificate(n=len(trace.x), epsilon=_trace_epsilon(trace),
                       operator_norm_T=operator_norm_T,
                       bound_theoretical=bound_theoretical,
                       bound_measured=bound_measured,
                       defect_max=float(np.linalg.norm(defect, 2))
                       / max(1.0, block.operator_norm ** 2) ** 2,
                       expansivity_min=float(np.linalg.eigvalsh(gram1)[0]),
                       orthogonality_max=trace.orthogonality_max)


def _trace_epsilon(trace: ConstructionTrace) -> float:
    # epsilon is recoverable from the first splitting: <x_i, y_i^(2)> = eps
    return float(np.real(trace.x[0].inner(trace.y2[0])))
