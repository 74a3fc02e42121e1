"""The approximation constructions: diagonalizing bases, orthonormal-system
doubling, the five-step pipeline approximating an arbitrary expansive
operator, its T = 2*id case (the 2-isometric net targeting 2*id), and
their certificates.

The public functions take and return `Vector` lists.  Inside, the
constructions work on each system as the rows of one array over the
leading coordinates that carry it, and the `ConstructionTrace` keeps its
systems as such rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotExpansive, SubspaceNotContained
from .generators import EXPANSIVITY_TOL
from .linalg import (CoefficientRows, gram_residual, orthonormal_rows,
                     spectral_norm)
from .operators import (BrownianBlock, DenseOperator, LazyIsometry,
                        direct_sum_power)
from .spaces import AmbientSpace, Vector, as_rows, padded, row_vectors

DEFAULT_CAPACITY_FACTOR = 64  # coordinates per dim(H): 16 * (4 copies)

#: largest dim(F) ||T|| a construction command accepts, and largest
#: ||Tx_i||/eps the assembly accepts: the defect normalization
#: max(1, ||B||^2)^2 takes the 4th power of ||B|| <= sqrt(1 + (||T||/eps)^2),
#: kept below 1e304, four decades inside the float range, so the Gram sums
#: behind the verdicts stay finite
CONSTRUCTION_NORM_LIMIT = 1e76


@dataclass
class ConstructionTrace:
    """The systems x, y1, y2 of a construction run as rows over the leading
    coordinates they need (see `_assemble`; the block holds z1's and z2's
    images as W and V); `spaces.row_vectors` makes Vectors of them."""
    space: AmbientSpace
    epsilon: float               # the first splitting's c, 1/dim(F) by default
    x_rows: np.ndarray           # diagonalizing ONB of F
    y1_rows: np.ndarray          # inputs of R
    y2_rows: np.ndarray          # ONB of the corner K
    sigmas: list
    norms_Tx: list
    orthogonality_max: float     # max_k ||<target(z_i^(k)), y2_j>||_F


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
    def defect3_max(self) -> float:
        """Order-3 defect bound, normalized by max(1, ||B||^2)^3: beta_3 =
        B* beta_2 B - beta_2 gives ||beta_3|| <= (||B||^2 + 1) ||beta_2||,
        so 20 eta, twice defect_max (the order-2 gate covers it)."""
        return 2.0 * self.defect_max

    #: orthogonality_max relative to ||T|| (a report line, not a column)
    orthogonality_rel = property(lambda self: self.orthogonality_max / self.norm_T)

    @property
    def bound_holds(self) -> bool:
        """Relative: no absolute floor for bound_measured's roundoff (about
        u ||T||), so an epsilon near u ||T|| fails it on a correct block."""
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
    h1 = space.labels.get("H1", ())
    if n > len(h1):
        raise ValueError(f"dim(F) = {n} exceeds dim(H) = {len(h1)} (label H1)")
    return [space.basis_vector(h1[i]) for i in range(n)]


def translate(v: Vector, from_indices, to_indices) -> Vector:
    """Move a vector's support from one labeled copy onto a disjoint one."""
    src, dst = np.asarray(from_indices), np.asarray(to_indices)
    both = np.concatenate((src, dst), axis=None)
    if (src.ndim != 1 or src.shape != dst.shape or not src.size
            or not {src.dtype.kind, dst.dtype.kind} <= set("iu")
            or len(set(both.tolist())) != len(both)
            or both.min() < 0 or both.max() >= v.space.capacity):
        raise ValueError(f"cannot move {src.tolist()} onto {dst.tolist()}")
    out = np.zeros(1 + int(dst.max()), dtype=np.complex128)
    out[dst] = padded(v.prefix, 1 + int(src.max()))[src]
    return Vector(out, v.space)


def diagonalizing_basis(T: DenseOperator, F_basis):
    """Orthonormal basis x_1..x_n of span(F_basis) whose T-images are
    pairwise orthogonal: the orthonormal eigenbasis of the compression
    P_F T*T|_F.  T must be attached to the space of F_basis."""
    space = F_basis[0].space if F_basis else None
    x, _ = _diagonalizing_rows(T, as_rows(F_basis, space))
    return row_vectors(x, space)


def _diagonalizing_rows(T: DenseOperator, rows: np.ndarray):
    """`diagonalizing_basis` on rows: (x, Tx), an orthonormal basis x of the
    row span and its T-images, both as rows, by descending ||Tx||."""
    onb = orthonormal_rows(rows)
    images = T._apply_rows(onb)
    eigvecs = np.linalg.eigh(np.conj(images) @ images.T)[1][:, ::-1]
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
    x, p = as_rows(xs, space), as_rows([partner(x) for x in xs], space)
    p, s = (slice(0, p.shape[1]), p), np.sqrt(1.0 - c * c)
    return (row_vectors(_combined(x, p, s, c), space),
            row_vectors(_combined(x, p, c, -s), space))


def _combined(x, p, s, c):
    """s x + c p for rows x and partner rows p = (column slice, values), s
    and c scalars or columns: s x placed, then c p added on p's columns, where
    x's rows vanish (disjoint copies), so each entry is the zero-padded sum's."""
    cols, vals = p
    out = np.zeros((len(x), max(x.shape[1], cols.stop)), dtype=np.complex128)
    np.multiply(x, s, out=out[:, :x.shape[1]])
    out[:, cols] += c * vals
    return out


def _assemble(space, x, tx, partner1, z_images, epsilon):
    """Steps 1-3 shared by both constructions; returns (block, trace).

    `x` holds an ONB of F as rows over F's leading coordinates and `tx` their
    target-images, pairwise orthogonal with norms ||Tx_i|| >= 1 -
    EXPANSIVITY_TOL.  `partner1` maps the x_i, and a second partner map P2
    the y1_i, isometrically onto a copy orthogonal to everything built so
    far; `partner1` is a linear map rows -> (column slice, values).  Both
    commute with the target, so target(y1) = s Tx + eps P1(Tx), and
    `z_images(s, eps, a, b)` gives target(z1) and target(z2), z1 = a y1 +
    b P2(y1) and z2 = b y1 - a P2(y1) (a, b per row), as CoefficientRows:
    no target product is made, no z1 or z2 formed.
    The block is (R, V; 0, id_K), K spanned by y2, R lazily extended from
    y1_i -> target(z1_i)/||Tx_i||, and V(y2_i) = sigma_i target(z2_i),
    sigma_i = sqrt((1-eps^2)(1 - a_i^2))/eps, a_i = min(1/||Tx_i||, 1) the
    weight of y1_i in z1_i.
    """
    eps = 1.0 / len(x) if epsilon is None else float(epsilon)
    if not 0.0 < eps <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    norms_Tx = np.linalg.norm(tx, axis=1)
    # V's rows are orthogonal with norms sigma_i ||Tx_i|| <= ||Tx_i||/eps
    if norms_Tx.max() > eps * CONSTRUCTION_NORM_LIMIT:
        raise ValueError(f"epsilon = {eps!r} too small: ||Tx||/epsilon exceeds "
                         f"{CONSTRUCTION_NORM_LIMIT:g}")
    if not np.all(norms_Tx >= 1.0 - EXPANSIVITY_TOL):
        raise NotExpansive(f"image norm below 1: ||Tx|| = {norms_Tx.min()}; "
                           "every expansive B has ||(B - T(4))x|| >= "
                           f"{1.0 - norms_Tx.min()} at this x")

    # Step 1: split across the first partner copy (y1 below, where R needs it)
    s = np.sqrt(1.0 - eps * eps)
    p = partner1(x)
    y2 = _combined(x, p, eps, -s)

    # Step 2: split target(y1) once more, across the second partner copy
    inv = 1.0 / norms_Tx
    a = np.minimum(inv, 1.0)  # a norm just below 1 is roundoff: z1 = y1
    b = np.sqrt(1.0 - a * a)
    tz1, tz2 = z_images(s, eps, a, b)

    # Step 3: K on the y2, V scaled per direction, R lazily extended
    sigmas = s * b / eps
    ortho = max(gram_residual((tz1, tz2), y2))
    W, V = (CoefficientRows(tz.base, tz.C * w, tz.starts)
            for tz, w in ((tz1, inv), (tz2, sigmas)))
    y1 = _combined(x, p, s, eps)  # not alive during the products above
    R = LazyIsometry(space, inputs=y1, outputs=W)
    block = BrownianBlock(R, K_basis=y2, V_images=V)

    trace = ConstructionTrace(space=space, epsilon=eps, x_rows=x, y1_rows=y1,
                              y2_rows=y2, sigmas=sigmas.tolist(),
                              norms_Tx=norms_Tx.tolist(),
                              orthogonality_max=ortho)
    return block, trace


def theorem1_construct(F_basis, space: AmbientSpace, *, epsilon=None):
    """2-isometric Brownian block within 1/dim(F) of 2*id on F.

    The Theorem-2 assembly with T = 2*id and Tx = 2x for any ONB x of F.
    As 2*id commutes with every linear map, the partner copies are 2 dim(F)
    fresh coordinates f, g, allocated once, not copies of H, and F may be any
    subspace of `space`: x_i -> f_i (rows -> their coefficients along x) and
    y1_i = s x_i + eps f_i -> g_i (rows -> their f-coordinates / eps).  Both
    map 2x and 2 y1 to twice the images of x and y1, and W and V are dense
    rows, the one-copy case.  On F the block satisfies ||(B - 2 id)x|| =
    eps ||x|| exactly.
    """
    x = orthonormal_rows(as_rows(F_basis, space))
    n = len(x)
    lo = int(space.allocate(2 * n)[0])  # f and g in one run, or nothing
    f, g = slice(lo, lo + n), slice(lo + n, lo + 2 * n)
    tx = 2.0 * x

    def partner1(rows):
        return f, rows @ np.conj(x).T

    def z_images(s, eps, a, b):  # dense: g holds target(y1) on f over eps
        ty1 = _combined(tx, partner1(tx), s, eps)
        q, a, b = (g, ty1[:, f] / eps), a[:, None], b[:, None]
        return [CoefficientRows(_combined(ty1, q, u, v)) for u, v in ((a, b), (b, -a))]
    return _assemble(space, x, tx, partner1, z_images, epsilon)


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
    d, end, free, names = T.dim, 0, space.allocated, ("H1", "H2", "H3", "H4")
    missing = [k for k in names[1:] if k not in space.labels]  # H1 must exist
    for name in names:  # checked before the missing ones go after `allocated`
        if name in missing:
            have, free = range(free, free + d), free + d
        elif len(have := space.labels.get(name, ())) != d:
            raise ValueError(f"label {name} has {len(have)} "
                             f"coordinates, T acts on {d}")
        elif np.any(np.diff(have) != 1):
            raise ValueError(f"label {name} is not {d} consecutive "
                             "ascending coordinates")
        if have[0] < end:
            raise ValueError(f"label {name} starts at {have[0]}, before the "
                             f"label ahead of it ends at {end}")
        end = have[0] + d
    for name in missing:
        space.allocate(d, label=name)
    h1, h2, h3, h4 = (space.labels[k] for k in names)

    x, tx = _diagonalizing_rows(T.embedded(space, h1), as_rows(F_basis, space))
    # Tx lies in H1, a run like H2..H4: target(y1) = (s, eps, 0, 0) x Tx
    # and its second partner copy (0, 0, s, eps) x Tx over H1..H4
    starts, t1 = [int(h[0]) for h in (h1, h2, h3, h4)], tx[:, h1[0]:h1[-1] + 1]

    def partner1(rows):  # H1 onto H2, a view when the rows reach H1's end
        on_h1 = rows[:, starts[0]:starts[0] + d]
        return (slice(starts[1], starts[1] + d),
                on_h1 if on_h1.shape[1] == d else padded(on_h1, d))

    def z_images(s, eps, a, b):
        return [CoefficientRows(t1, np.array([s * u, eps * u, s * v, eps * v]),
                                starts) for u, v in ((a, b), (b, -a))]
    block, trace = _assemble(space, x, tx, partner1, z_images, epsilon)
    return block, direct_sum_power(T, 4, space, np.r_[h1, h2, h3, h4]), trace


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
    eta = block.hypothesis_residual()  # first: it frees the block's VV*
    eq, rq = block._step(q)
    moved = target._apply_rows(q)  # a new array, at least as wide as q
    if eq.shape[1] < moved.shape[1]:
        eq = padded(eq, moved.shape[1])
    eq[:, :moved.shape[1]] -= moved  # (B - target)Q, then (target - I)Q,
    moved[:, :q.shape[1]] -= q       # in place: only narrower rows are padded
    eps = trace.epsilon

    return Certificate(n=len(trace.x_rows), epsilon=eps,
                       norm_T=operator_norm_T,
                       bound_theoretical=bound_theoretical,
                       bound_measured=spectral_norm(eq, rq),
                       bound_exact=eps * spectral_norm(moved),
                       defect_max=10.0 * eta, expansivity_min=1.0 - 5.0 * eta,
                       orthogonality_max=trace.orthogonality_max)
