import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from isolab import (AllVectorsNegligible, AmbientSpace, BrownianBlock,
                    CapacityExceeded, ConstructionTrace, DenseOperator,
                    DomainMismatch, LazyIsometry, NotExpansive,
                    ScalarOperator, SubspaceNotContained, Vector,
                    certificate_evaluate, compressed_gram, defect_form,
                    diagonalizing_basis, direct_sum_power, expansive_generator,
                    gram_matrix, gram_schmidt, prepare_space, random_2nilpotent, split_pair,
                    standard_f_basis, theorem1_construct, theorem2_construct,
                    three_isometry_from_nilpotent, translate, write_operator)

from isolab import linalg, operators
from isolab.constructions import DEFECT_THRESHOLD
from isolab.harness import RunConfig, run_verify
from isolab.linalg import (CoefficientRows, add_images, gram_residual, products,
                           spectral_norm)
from isolab.spaces import padded, row_vectors

from conftest import (defined_outputs, gapped_space, make_space, second_split,
                      theorem2_partner2, vec)


def random_instantiated(space, rng):
    """Random unit vector on every coordinate instantiated so far."""
    m = space.allocated
    c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    coords = np.zeros(space.capacity, dtype=complex)
    coords[:m] = c / np.linalg.norm(c)
    return Vector(coords, space)


def reference_gram_schmidt(vectors, rank_tol=1e-10):
    """Modified Gram-Schmidt with one reorthogonalization, on Vectors."""
    scale = max(v.norm() for v in vectors)
    basis = []
    for v in vectors:
        for _ in range(2):
            for b in basis:
                v = v - b.inner(v) * b
        if v.norm() > rank_tol * scale:
            basis.append((1.0 / v.norm()) * v)
    return basis


def reference_construct(T, F_basis, space):
    """The constructions as Vector lists, one vector at a time: Theorem 1
    for T None, else Theorem 2.  Returns (block, systems by trace name)."""
    x = reference_gram_schmidt(F_basis)
    n = len(x)
    if T is None:
        def partner1(v):  # a fresh coordinate, orthogonal to everything
            return space.basis_vector(int(space.allocate(1)[0]))
        partner2, target, norms = partner1, ScalarOperator(2.0), [2.0] * n
    else:
        for name in ("H2", "H3", "H4"):
            space.allocate(T.dim, label=name)
        h = [space.labels[k] for k in ("H1", "H2", "H3", "H4")]
        T1 = T.embedded(space, h[0])
        ev = np.linalg.eigh(compressed_gram(T1, x))[1][:, ::-1]
        x = [sum((ev[j, k] * x[j] for j in range(n)), Vector(np.zeros(0), space))
             for k in range(n)]
        norms = [T1.apply(v).norm() for v in x]
        if min(norms) < 1.0 - 1e-10:
            raise NotExpansive("image norm below 1")
        target = direct_sum_power(T, 4, space, np.concatenate(h))

        def partner1(v):
            return translate(v, h[0], h[1])

        def partner2(v):
            return translate(v, np.concatenate(h[:2]), np.concatenate(h[2:]))
    eps = 1.0 / n
    s = np.sqrt(1.0 - eps * eps)
    p = [partner1(v) for v in x]
    y1 = [s * v + eps * q for v, q in zip(x, p)]
    y2 = [eps * v - s * q for v, q in zip(x, p)]
    z1, z2 = second_split(y1, norms, partner2)
    b = [np.sqrt(1.0 - min(1.0 / t, 1.0) ** 2) for t in norms]
    R = LazyIsometry(space, y1, [target.apply(z1[i]) * (1.0 / norms[i])
                                 for i in range(n)])
    block = BrownianBlock(R, y2, [(s * b[i] / eps) * target.apply(z2[i])
                                  for i in range(n)])
    return block, {"x": x, "y1": y1, "y2": y2}


def assert_block_holds_z_images(block, trace, target, z1, z2):
    """R's first outputs W are target(z1_i)/||Tx_i|| and V's rows are
    sigma_i target(z2_i), for z1, z2 rebuilt by `second_split`."""
    tol = 1e-12 * target.operator_norm * max(1.0, *trace.sigmas)
    for i in range(len(z1)):
        w = Vector(defined_outputs(block.R)[i], trace.space)
        v = Vector(block._Vc.dense()[i], trace.space)
        assert (w - (1.0 / trace.norms_Tx[i]) * target.apply(z1[i])).norm() <= tol
        assert (v - trace.sigmas[i] * target.apply(z2[i])).norm() <= tol


def systems(trace):
    """The trace's x, y1 and y2 as Vector lists."""
    return (row_vectors(rows, trace.space)
            for rows in (trace.x_rows, trace.y1_rows, trace.y2_rows))


def copy_to(block, space):
    """`block` on `space`, whose first coordinates stand for the ones
    instantiated in the block's space.  Lazy extensions of the copy
    allocate in `space` and leave the block and its space unchanged."""
    m = block.space.allocated
    if space.allocated < m:
        raise ValueError(f"space has {space.allocated} coordinates, "
                         f"the block needs {m}")
    # every stored row is supported on the instantiated prefix
    R = LazyIsometry(space, block.R.defined_inputs[:, :m],
                     defined_outputs(block.R)[:, :m])
    return BrownianBlock(R, block._K[:, :m], block._Vc.dense()[:, :m])


def reference_certificate(target, block, trace, G_basis):
    """The certificate by lazy applications, as (bound_measured, defect_max,
    expansivity_min): the bound on an ONB of span(G) projected onto F, and
    the powers of the e_j, all on a copy of the block in a scratch space
    (each application extends R at most once).  The bound runs on the copy
    too: the L-part of a vector in K is roundoff, which R extends on."""
    space = G_basis[0].space
    f_rows = padded(trace.x_rows, space.capacity)
    g_rows = np.array([v.coords for v in G_basis])
    g_in_f = (g_rows @ np.conj(f_rows).T) @ f_rows
    resid = np.linalg.norm(g_rows - g_in_f, axis=1)
    if np.any(resid > 1e-8 * np.maximum(np.linalg.norm(g_rows, axis=1), 1e-300)):
        raise SubspaceNotContained("G is not contained in span(F) to tolerance")
    q = gram_schmidt([Vector(row, space) for row in g_in_f])

    m = space.allocated
    scratch = AmbientSpace(3 * m + len(q))
    scratch.allocate(m)
    copy = copy_to(block, scratch)

    def on_scratch(v):
        return Vector(padded(v.coords[:m], scratch.capacity), scratch)

    bound = float(np.linalg.norm(
        [(copy.apply(on_scratch(v)) - on_scratch(target.apply(v))).coords
         for v in q], 2))
    images = [copy.apply(scratch.basis_vector(j)) for j in range(m)]
    gram1 = gram_matrix(images)
    defect = gram_matrix([copy.apply(v) for v in images]) - 2 * gram1 + np.eye(m)
    return (bound,
            float(np.linalg.norm(defect, 2)) / max(1.0, block.operator_norm ** 2) ** 2,
            float(np.linalg.eigvalsh(gram1)[0]))


def exact_certificate(block, m):
    """The order-2 defect, the expansivity and the order-3 defect of `block`
    over its m instantiated coordinates, computed exactly from m x m Gram
    matrices, as (defect_max, expansivity_min, defect3_max): with (E1, r1) =
    _step(I_m), (E2, r2) = _step(E1) and (E3, r3) = _step(E2), B e_j is
    [E1 | r1], B^2 e_j is [E2 | r2 | r1] and B^3 e_j is [E3 | r3 | r2 | r1]
    up to isometries of the fresh coordinates.  defect_max is
    ||Gram(B^2 e_j) - 2 Gram(B e_j) + I||_2 / max(1, ||B||^2)^2,
    expansivity_min the smallest eigenvalue of Gram(B e_j) and defect3_max
    ||Gram(B^3 e_j) - 3 Gram(B^2 e_j) + 3 Gram(B e_j) - I||_2 / max(1,
    ||B||^2)^3."""
    b1 = np.hstack(block._step(np.eye(m, dtype=np.complex128)))
    b2 = np.hstack(block._step(b1[:, :m]) + (b1[:, m:],))
    b3 = np.hstack(block._step(b2[:, :m]) + (b2[:, m:],))
    gram1, gram2 = (b @ np.conj(b).T for b in (b1, b2))
    defect = gram2 - 2 * gram1 + np.eye(m)
    defect3 = b3 @ np.conj(b3).T - 3 * gram2 + 3 * gram1 - np.eye(m)
    scale = max(1.0, block.operator_norm ** 2)
    return (float(np.abs(np.linalg.eigvalsh(defect)).max()) / scale ** 2,
            float(np.linalg.eigvalsh(gram1)[0]),
            float(np.abs(np.linalg.eigvalsh(defect3)).max()) / scale ** 3)


def assert_exact_within_structural(cert, block, m):
    """The exact order-2 and order-3 defects and normalized expansivity
    deficit of `block` are at most the structural ones of its certificate,
    up to the reference's own rounding, 8 m u: where all seven residuals
    vanish (dim F = 1, eps = 1), the structural values are 0 and the m x m
    sums read a few u."""
    defect, expansivity, defect3 = exact_certificate(block, m)
    rounding = 8 * m * np.finfo(float).eps
    assert defect <= cert.defect_max + rounding
    assert defect3 <= cert.defect3_max + rounding
    assert ((1.0 - expansivity) / max(1.0, block.operator_norm ** 2)
            <= 1.0 - cert.expansivity_min + rounding)


def block_state(block):
    """Everything the block and its space have instantiated, copied."""
    R = block.R
    return (block.space.allocated, R.defined_count,
            *(rows.copy() for rows in (R.defined_inputs, defined_outputs(R),
                                       block._K, block._Vc.dense())))


def assert_same_state(state, block):
    now = block_state(block)
    assert now[:2] == state[:2]
    for a, b in zip(now[2:], state[2:]):
        np.testing.assert_array_equal(a, b)


def doubled_space(dim):
    """Space with two labeled copies of H and the doubled operator indices."""
    sp = make_space(dim, capacity=8 * dim)
    sp.allocate(dim, label="H2")
    return sp


class TestDiagonalizingBasis:
    def test_identity_any_onb(self, rng):
        sp = make_space(3)
        T = DenseOperator(np.eye(3), sp, sp.labels["H1"])
        raw = [vec(sp, rng.standard_normal(3)) for _ in range(3)]
        basis = diagonalizing_basis(T, raw)
        G = gram_matrix([T.apply(b) for b in basis])
        assert np.max(np.abs(G - np.diag(np.diag(G)))) <= 1e-12

    def test_diagonal_operator(self):
        sp = make_space(2)
        T = DenseOperator(np.diag([2.0, 3.0]), sp, sp.labels["H1"])
        basis = diagonalizing_basis(T, [sp.basis_vector(0), sp.basis_vector(1)])
        G = gram_matrix([T.apply(b) for b in basis])
        np.testing.assert_allclose(G, np.diag([9.0, 4.0]), atol=1e-12)

    def test_jordan_block(self):
        # eigenbasis of the compression [[4,2],[2,5]]
        sp = make_space(2)
        T = DenseOperator([[2, 1], [0, 2]], sp, sp.labels["H1"])
        basis = diagonalizing_basis(T, [sp.basis_vector(0), sp.basis_vector(1)])
        imgs = [T.apply(b) for b in basis]
        assert abs(imgs[0].inner(imgs[1])) <= 1e-12
        norms_sq = sorted(b.inner(b).real for b in imgs)
        np.testing.assert_allclose(
            norms_sq, [(9 - np.sqrt(17)) / 2, (9 + np.sqrt(17)) / 2], atol=1e-12)

    def test_empty_f_rejected(self):
        # orthonormal_rows refuses the empty system, as for gram_schmidt
        T = DenseOperator(np.eye(2), make_space(2), [0, 1])
        with pytest.raises(AllVectorsNegligible, match="no input vectors"):
            diagonalizing_basis(T, [])


class TestTranslate:
    @staticmethod
    def space():
        sp = AmbientSpace(8)
        sp.allocate(4, label="H1")
        sp.allocate(4, label="H2")
        return sp

    def test_moves_between_labels_bit_identical(self, rng):
        sp = self.space()
        values = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = sp.vector(values, sp.labels["H1"])
        moved = translate(v, sp.labels["H1"], sp.labels["H2"])
        assert np.array_equal(moved.prefix, np.r_[np.zeros(4), values])
        back = translate(moved, sp.labels["H2"], sp.labels["H1"])
        assert np.array_equal(back.prefix, v.prefix)
        # a permutation onto the other copy, from plain lists
        swapped = translate(v, [0, 1, 2, 3], [7, 6, 5, 4])
        assert np.array_equal(swapped.prefix, np.r_[np.zeros(4), values[::-1]])

    @pytest.mark.parametrize("src, dst", [
        ([0, 0], [4, 5]), ([0, 1], [4, 4]), ([0, 1], [1, 4]), ([-1], [5]),
        ([0], [8]), ([0.0], [4]), ([True], [4]), ([0, 1], [4]),
        ([[0]], [[4]]), ([], []), (np.array([], int), np.array([], int))],
        ids=["repeated-from", "repeated-to", "overlapping", "negative",
             "past-capacity", "float", "boolean", "unequal-lengths", "2-d",
             "empty", "empty-integer"])
    def test_rejects_indices_that_are_not_a_disjoint_move(self, src, dst):
        # numpy would copy, drop or wrap entries, or fail with its own error
        sp = self.space()
        v = sp.vector([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match=re.escape(
                f"cannot move {list(src)} onto {list(dst)}")):
            translate(v, src, dst)


class TestSplitPair:
    def partner(self, sp):
        return lambda v: translate(v, sp.labels["H1"], sp.labels["H2"])

    def test_c_zero(self):
        sp = doubled_space(2)
        x = [sp.basis_vector(0)]
        y1, y2 = split_pair(x, 0.0, self.partner(sp))
        np.testing.assert_allclose(y1[0].coords, x[0].coords, atol=1e-15)
        np.testing.assert_allclose(y2[0].coords,
                                   -self.partner(sp)(x[0]).coords, atol=1e-15)

    def test_c_one_and_reconstruction(self):
        sp = doubled_space(2)
        x = [sp.basis_vector(0)]
        y1, y2 = split_pair(x, 1.0, self.partner(sp))
        np.testing.assert_allclose(y1[0].coords,
                                   self.partner(sp)(x[0]).coords, atol=1e-15)
        np.testing.assert_allclose(y2[0].coords, x[0].coords, atol=1e-15)
        recon = np.sqrt(1 - 1.0 ** 2) * y1[0] + 1.0 * y2[0]
        assert (x[0] - recon).norm() <= 1e-12

    def test_image_orthogonality_diag(self):
        # T = diag(2,3), c = 1/2: all 16 doubled-image products diagonal
        sp = doubled_space(2)
        T2 = direct_sum_power(DenseOperator(np.diag([2.0, 3.0])), 2, sp,
                              np.concatenate([sp.labels["H1"], sp.labels["H2"]]))
        x = [sp.basis_vector(0), sp.basis_vector(1)]
        y1, y2 = split_pair(x, 0.5, self.partner(sp))
        images = [T2.apply(v) for v in y1 + y2]
        G = gram_matrix(images)
        off = G - np.diag(np.diag(G))
        assert np.max(np.abs(off)) <= 1e-12
        # the doubled set is orthonormal and reconstructs x + 0
        assert np.max(np.abs(gram_matrix(y1 + y2) - np.eye(4))) <= 1e-12

    def test_c_out_of_range(self):
        sp = doubled_space(1)
        with pytest.raises(ValueError):
            split_pair([sp.basis_vector(0)], 1.5, self.partner(sp))


def assert_distance_to_twice_identity(block, f_basis, rng):
    """||(B - 2 id)x|| = 1/n on random unit x in span(f_basis)."""
    n = len(f_basis)
    rows = np.array([v.coords for v in f_basis])
    for _ in range(200 // n + 5):
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = Vector((c / np.linalg.norm(c)) @ rows, f_basis[0].space)
        resid = (block.apply(x) - 2.0 * x).norm()
        assert abs(resid - 1.0 / n) <= 1e-9


class TestTheorem1:
    def test_sigma_at_n2(self):
        # ||B||^2 = 1 + ||V||^2 with ||V|| = sigma * ||2 z2|| = 1.5 * 2
        sp = prepare_space(4)
        block, trace = theorem1_construct(standard_f_basis(sp, 2), sp)
        assert block.operator_norm == pytest.approx(np.sqrt(10.0))

    def test_n1_degenerate(self):
        sp = prepare_space(2)
        block, trace = theorem1_construct(standard_f_basis(sp, 1), sp)
        assert block.operator_norm == pytest.approx(1.0)
        x = sp.basis_vector(0)
        assert (block.apply(x) - 2.0 * x).norm() == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_distance_to_twice_identity_is_exact(self, n, rng):
        sp = prepare_space(max(n, 2))
        f_basis = standard_f_basis(sp, n)
        block, trace = theorem1_construct(f_basis, sp)
        # two fresh coordinates per direction of F, no copies of H
        assert sp.allocated == max(n, 2) + 2 * n
        assert set(sp.labels) == {"H1"}
        assert_distance_to_twice_identity(block, f_basis, rng)

    def test_subspace_not_coordinate_aligned(self, rng):
        sp = prepare_space(6)
        h1 = sp.labels["H1"]
        raw = [sp.vector(rng.standard_normal(6) + 1j * rng.standard_normal(6),
                         h1) for _ in range(3)]
        f_basis = gram_schmidt(raw)
        block, trace = theorem1_construct(f_basis, sp)
        assert_distance_to_twice_identity(block, f_basis, rng)

    def test_bare_space_without_labels(self, rng):
        sp = AmbientSpace(40)
        sp.allocate(5)
        f_basis = [sp.basis_vector(1), sp.basis_vector(3)]
        block, trace = theorem1_construct(f_basis, sp)
        assert sp.allocated == 5 + 4 and sp.labels == {}
        assert_distance_to_twice_identity(block, f_basis, rng)

    def test_empty_f_rejected(self):
        sp = prepare_space(4)
        with pytest.raises(AllVectorsNegligible, match="no input vectors"):
            theorem1_construct([], sp)

    def test_capacity_refusal_allocates_nothing(self):
        # the 2n partner coordinates f, g are taken in one allocation: a
        # space without room for all of them is left as it was
        sp = prepare_space(4, capacity=9)
        with pytest.raises(CapacityExceeded,
                           match="need 6 coordinates, 5 left of 9"):
            theorem1_construct(standard_f_basis(sp, 3), sp)
        assert sp.allocated == 4 and set(sp.labels) == {"H1"}

    def test_f_wider_than_h_rejected(self):
        with pytest.raises(ValueError, match="exceeds dim"):
            standard_f_basis(prepare_space(4), 5)

    @pytest.mark.parametrize("epsilon", [0.0, -0.5, 1.5, np.nan])
    def test_epsilon_outside_zero_one_rejected(self, epsilon):
        sp = prepare_space(4)
        with pytest.raises(ValueError, match="epsilon"):
            theorem1_construct(standard_f_basis(sp, 2), sp, epsilon=epsilon)

    def test_trace_reconstructions(self):
        sp = prepare_space(4)
        block, trace = theorem1_construct(standard_f_basis(sp, 3), sp)
        fresh = iter(range(sp.allocated - 3, sp.allocated))  # second partner
        x, y1, y2 = systems(trace)
        z1, z2 = second_split(y1, trace.norms_Tx,
                              lambda v: sp.basis_vector(next(fresh)))
        eps = 1.0 / 3.0
        s = np.sqrt(1 - eps ** 2)
        for i in range(3):
            recon = s * y1[i] + eps * y2[i]
            assert (x[i] - recon).norm() <= 1e-12
            recon2 = 0.5 * z1[i] + (np.sqrt(3) / 2) * z2[i]
            assert (y1[i] - recon2).norm() <= 1e-12
        assert_block_holds_z_images(block, trace, ScalarOperator(2.0), z1, z2)
        G = gram_matrix(y1 + y2)
        assert np.max(np.abs(G - np.eye(6))) <= 1e-10

    def test_defect_vanishes_on_random_vectors(self, rng):
        sp = prepare_space(4)
        block, _ = theorem1_construct(standard_f_basis(sp, 2), sp)
        scale = max(1.0, block.operator_norm ** 2) ** 2
        for _ in range(50):
            x = random_instantiated(sp, rng)
            assert abs(defect_form(block, x, 2)) <= 1e-8 * scale


class TestTheorem2:
    def run(self, T, n, dim=None, epsilon=None):
        dim = dim or T.dim
        sp = prepare_space(dim)
        f_basis = standard_f_basis(sp, n)
        return theorem2_construct(T, f_basis, sp, epsilon=epsilon) + (sp, f_basis)

    @pytest.mark.parametrize("epsilon", [1e-300, 5e-324, 1e-150])
    def test_epsilon_too_small_for_the_norm_limit_rejected(self, epsilon):
        # V's rows have norms up to ||Tx||/eps: above 1e76 the block's norm,
        # the 1/eps scaling or the certificate's normalization overflows
        T = expansive_generator(3, "svd_random", seed=0)
        with pytest.raises(ValueError, match="epsilon = .* too small"):
            self.run(T, n=2, epsilon=epsilon)

    @pytest.mark.parametrize("epsilon", [1e-60, 1e-20])
    def test_small_epsilon_within_the_norm_limit_builds(self, epsilon):
        T = expansive_generator(3, "svd_random", seed=0)
        block, T4, trace, sp, f_basis = self.run(T, n=2, epsilon=epsilon)
        assert np.isfinite(block.operator_norm)
        assert block.operator_norm <= T.operator_norm / epsilon
        assert block.hypothesis_residual() < 1e-12

    def test_identity_operator(self, rng):
        block, T4, trace, sp, f_basis = self.run(
            DenseOperator(np.eye(4)), n=2)
        assert max(trace.sigmas) == pytest.approx(0.0)
        for x in f_basis:
            assert (block.apply(x) - T4.apply(x)).norm() <= 1e-13

    def test_diag_bound_and_defect(self, rng):
        T = DenseOperator(np.diag([2.0, 3.0]))
        block, T4, trace, sp, f_basis = self.run(T, n=2)
        cert = certificate_evaluate(T4, block, trace, f_basis,
                                    operator_norm_T=3.0,
                                    bound_theoretical=2.0)
        assert cert.bound_theoretical == pytest.approx(2.0)  # (3+1)/2
        assert cert.bound_measured <= 2.0
        assert cert.defect_max <= 1e-9

    def test_residual_identity(self):
        # (T4 - B)x_i = eps (T4 - id) y2_i, per construction step
        T = expansive_generator(6, "svd_random", seed=2)
        block, T4, trace, sp, _ = self.run(T, n=3)
        eps = 1.0 / 3.0
        x, _, y2 = systems(trace)
        for i in range(3):
            lhs = T4.apply(x[i]) - block.apply(x[i])
            rhs = eps * (T4.apply(y2[i]) - y2[i])
            assert (lhs - rhs).norm() <= 1e-9 * (T.operator_norm + 1)

    def test_step3_orthogonality(self):
        T = expansive_generator(8, "svd_random", seed=9)
        _, T4, trace, sp, _ = self.run(T, n=4)
        assert trace.orthogonality_max <= 1e-10 * T.operator_norm
        # the larger Frobenius norm of the overlaps of z1's and z2's images
        _, y1, y2 = systems(trace)
        zs = second_split(y1, trace.norms_Tx, theorem2_partner2(sp))
        overlaps = [np.linalg.norm([[T4.apply(u).inner(w) for w in y2]
                                    for u in z]) for z in zs]
        assert trace.orthogonality_max == pytest.approx(
            max(overlaps), rel=0, abs=1e-15 * T.operator_norm)

    def test_storage_spans_only_allocated_coordinates(self):
        T = expansive_generator(64, "svd_random", seed=4)
        block, _, trace, sp, _ = self.run(T, n=8)
        assert sp.capacity == 4096
        # each system over the coordinates its support needs: x over F's
        # 8, y over H1 and H2, W and V (z's images) over all four copies
        h = [sp.labels[k] for k in ("H1", "H2", "H3", "H4")]
        widths = {"x": 8, "y1": 1 + max(h[1]), "y2": 1 + max(h[1])}
        for name, width in widths.items():
            assert getattr(trace, name + "_rows").shape == (8, width), name
        for rows in (defined_outputs(block.R), block._Vc.dense()):
            assert rows.shape == (8, 1 + max(h[3]))
        for _ in range(3):  # extensions keep the storage on the allocated span
            block.apply(block.apply(sp.basis_vector(sp.allocated - 1)))
            for rows in (block.R.defined_inputs, defined_outputs(block.R),
                         block._K, block._Vc.dense()):
                assert rows.shape[1] <= sp.allocated
        assert block.R._U.shape[1] <= 2 * sp.allocated

        # the whole construction at F = H1 stays below four lists of n
        # capacity-long vectors
        sp = prepare_space(64)
        f_basis = standard_f_basis(sp, 64)
        tracemalloc.start()
        try:
            theorem2_construct(T, f_basis, sp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 64 * sp.capacity * 16

    def test_construction_peak_memory_at_dim_128(self):
        # T^(4) stored as T once and every system at its own width: a dense
        # (4 dim H)^2 T^(4) alone takes 4 MiB of the budget
        T = expansive_generator(128, "svd_random", seed=1)
        sp = prepare_space(128)
        f_basis = standard_f_basis(sp, 128)
        tracemalloc.start()
        try:
            theorem2_construct(T, f_basis, sp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 14e6

    def test_each_construction_array_held_once_at_dim_128(self):
        # the block holds W and V, the trace no z1, z2 and the certificate
        # no stacked copy: measured 3.43e6 B retained and an 8.94e6 B peak
        # (5.53e6 and 12.35e6 with the z rows kept and [E | r] stacked); the
        # construction alone peaks at 4.99e6 B with W and V assembled from
        # the rows Tx (7.10e6 B with z1, z2 formed and T^(4) applied to them)
        T = expansive_generator(128, "svd_random", seed=1)
        sp = prepare_space(128)
        f_basis = standard_f_basis(sp, 128)
        tracemalloc.start()
        try:
            block, T4, trace = theorem2_construct(T, f_basis, sp)
            retained, built = tracemalloc.get_traced_memory()
            certificate_evaluate(T4, block, trace, f_basis,
                                 operator_norm_T=T.operator_norm,
                                 bound_theoretical=(T.operator_norm + 1) / 128)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 4.5e6
        assert built < 5.85e6
        assert peak < 10.5e6

    def test_construction_and_certificate_peak_memory_at_dim_128(self):
        # measured 12.6 MB (19.4 MB with K, U and the certificate's Q
        # padded to the widest system)
        T = expansive_generator(128, "svd_random", seed=1)
        sp = prepare_space(128)
        f_basis = standard_f_basis(sp, 128)
        tracemalloc.start()
        try:
            block, T4, trace = theorem2_construct(T, f_basis, sp)
            certificate_evaluate(T4, block, trace, f_basis,
                                 operator_norm_T=T.operator_norm,
                                 bound_theoretical=(T.operator_norm + 1) / 128)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 14e6

    @pytest.mark.parametrize("d, n", [(5, 5), (6, 2)])
    def test_each_system_stored_at_its_own_width(self, d, n):
        # K and U (y2, y1) lie over H1 and H2, V and W over all four copies;
        # an extension widens W by its fresh coordinate and U not at all
        T = expansive_generator(d, "svd_random", seed=d)
        block, T4, trace, sp, _ = self.run(T, n)
        R = block.R
        assert block._K.shape == R.defined_inputs.shape == (n, 2 * d)
        assert block._Vc.dense().shape == defined_outputs(R).shape == (n, 4 * d)
        if n < d:  # e_n lies in H1 off F: R stores its residual over H1, H2
            block.apply(sp.basis_vector(n))
            assert R.defined_inputs.shape == (n + 1, 2 * d)
            assert defined_outputs(R).shape == (n + 1, 4 * d + 1)

    def test_memory_is_independent_of_capacity(self):
        # construction, certificate and 20 defect forms (every fifth on the
        # newest coordinate, which extends R) allocate the same at any
        # capacity: the capacity is a budget, not a storage size
        T = expansive_generator(4, "svd_random", seed=6)

        def peaks(capacity):
            sp = prepare_space(4, capacity)
            f_basis = standard_f_basis(sp, 4)
            rng = np.random.default_rng(0)
            out = []
            tracemalloc.start()
            try:
                block, T4, trace = theorem2_construct(T, f_basis, sp)
                out.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
                certificate_evaluate(T4, block, trace, f_basis,
                                     operator_norm_T=T.operator_norm,
                                     bound_theoretical=(T.operator_norm + 1) / 4)
                out.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
                for k in range(20):
                    x = (sp.basis_vector(sp.allocated - 1) if k % 5 == 0
                         else sp.vector(rng.standard_normal(sp.allocated)))
                    defect_form(block, x, 2)
                out.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return out

        peaks(2**10)  # first calls fill caches that later calls reuse
        small, large = peaks(2**10), peaks(2**20)
        for a, b in zip(small, large):
            assert abs(b - a) <= 0.05 * a

    def test_step2_reconstruction_and_norms(self):
        T = expansive_generator(4, "id_plus_psd", seed=1)
        block, T4, trace, sp, _ = self.run(T, n=2)
        _, y1, _ = systems(trace)
        z1, z2 = second_split(y1, trace.norms_Tx, theorem2_partner2(sp))
        for i in range(2):
            a = 1.0 / trace.norms_Tx[i]
            b = np.sqrt(1 - a ** 2)
            recon = a * z1[i] + b * z2[i]
            assert (y1[i] - recon).norm() <= 1e-12
            assert T4.apply(z1[i]).norm() == pytest.approx(
                trace.norms_Tx[i], abs=1e-10)
            assert trace.norms_Tx[i] >= 1.0 - 1e-10
        assert_block_holds_z_images(block, trace, T4, z1, z2)

    def test_not_expansive_rejected(self):
        with pytest.raises(NotExpansive):
            self.run(DenseOperator(0.5 * np.eye(2)), n=2)

    def test_image_norm_just_below_one_is_roundoff(self):
        # the generators' tolerance: 1 - 5e-11 certifies, 1 - 2e-10 does not
        block, T4, trace, sp, f_basis = self.run(
            DenseOperator(np.diag([1 - 5e-11, 2.0])), n=2)
        cert = certificate_evaluate(T4, block, trace, f_basis,
                                    operator_norm_T=2.0, bound_theoretical=1.5)
        assert cert.ok and cert.defect_max <= 1e-13
        assert cert.bound_measured == pytest.approx(0.5, rel=1e-9)
        assert cert.bound_exact == pytest.approx(0.5, rel=1e-9)
        i = int(np.argmin(trace.norms_Tx))
        assert trace.norms_Tx[i] < 1.0 and trace.sigmas[i] == 0.0
        # z1 = y1, so W = T4(y1)/||Tx|| and V's row is zero; R's outputs
        # stay unit
        _, y1, _ = systems(trace)
        z1, z2 = second_split(y1, trace.norms_Tx, theorem2_partner2(sp))
        np.testing.assert_array_equal(z1[i].prefix, y1[i].prefix)
        assert_block_holds_z_images(block, trace, T4, z1, z2)
        np.testing.assert_array_equal(block._Vc.dense()[i], 0.0)
        np.testing.assert_allclose(
            np.linalg.norm(defined_outputs(block.R), axis=1), 1.0, atol=1e-15)
        with pytest.raises(NotExpansive):
            self.run(DenseOperator(np.diag([1 - 2e-10, 2.0])), n=2)

    def test_mis_sized_label_named(self):
        # H2 and H3 hold 4 dim T coordinates between them, but not dim T each
        T = expansive_generator(4, "svd_random", seed=3)
        for sizes, message in (((5, 3), "label H2 has 5 coordinates"),
                               ((4, 3), "label H3 has 3 coordinates")):
            sp = prepare_space(4)
            for label, size in zip(("H2", "H3"), sizes):
                sp.allocate(size, label=label)
            with pytest.raises(ValueError, match=message):
                theorem2_construct(T, standard_f_basis(sp, 2), sp)

    @pytest.mark.parametrize("label, coords", [("H1", [0, 2, 1, 3]),
                                               ("H2", [5, 4, 6, 7])],
                             ids=["H1", "H2"])
    def test_permuted_label_named_before_diagonalizing(self, label, coords,
                                                        monkeypatch):
        # a label's own coordinates in another order: T^(4) and the partner
        # map H1 -> H2 act on one ascending run per copy, so the label is
        # refused before any eigensolve or allocation
        T = expansive_generator(4, "svd_random", seed=1)
        sp = AmbientSpace(64)
        sp.labels["H1"] = sp.allocate(4)
        sp.allocate(3)
        sp.labels[label] = np.array(coords)
        eigh, eigh_calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: eigh_calls.append(a) or eigh(a))
        with pytest.raises(ValueError, match=f"label {label} is not 4 "
                                             "consecutive ascending"):
            theorem2_construct(T, standard_f_basis(sp, 2), sp)
        assert not eigh_calls and sp.allocated == 7
        assert set(sp.labels) == {"H1", label}

    @pytest.mark.parametrize("layout, name, start, end", [
        ((("H2", 0, 4), ("H1", 4, 8)), "H2", 0, 8),
        ((("H1", 0, 4), ("H2", 2, 6)), "H2", 2, 4),
        ((("H1", 0, 4), ("H3", 4, 8)), "H3", 4, 12)],
        ids=["H2-before-H1", "H2-overlaps-H1", "H3-before-missing-H2"])
    def test_labels_out_of_order_named_before_diagonalizing(
            self, layout, name, start, end, monkeypatch):
        # the copies must be disjoint and ascending, a missing label going
        # after everything allocated (H2 at 8..11 in the last layout): the
        # first label that starts before the one ahead of it ends is named
        # before any eigensolve or allocation
        T = expansive_generator(4, "svd_random", seed=1)
        sp = AmbientSpace(64)
        for label, lo, hi in layout:
            sp.allocate(max(0, hi - sp.allocated))
            sp.labels[label] = np.arange(lo, hi)
        allocated = sp.allocated
        eigh, eigh_calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: eigh_calls.append(a) or eigh(a))
        with pytest.raises(ValueError, match=f"label {name} starts at {start}, "
                                             "before the label ahead of it "
                                             f"ends at {end}"):
            theorem2_construct(T, standard_f_basis(sp, 2), sp)
        assert not eigh_calls and sp.allocated == allocated
        assert set(sp.labels) == {label for label, _, _ in layout}

    def test_space_without_h1_label_named(self):
        # coordinates allocated, but none of them under the label H1
        T = expansive_generator(4, "svd_random", seed=3)
        sp = AmbientSpace(64)
        sp.allocate(4)
        with pytest.raises(ValueError,
                           match="label H1 has 0 coordinates, T acts on 4"):
            theorem2_construct(T, [sp.basis_vector(0), sp.basis_vector(1)], sp)
        assert sp.allocated == 4 and sp.labels == {}
        with pytest.raises(ValueError, match="label H1"):
            standard_f_basis(AmbientSpace(64), 2)

    def test_defect_with_forced_lazy_extension(self, rng):
        T = expansive_generator(4, "svd_random", seed=13)
        block, T4, trace, sp, _ = self.run(T, n=2)
        scale = max(1.0, block.operator_norm ** 2) ** 2
        for _ in range(30):
            x = random_instantiated(sp, rng)
            assert abs(defect_form(block, x, 2)) <= 1e-8 * scale
        # the newest fresh coordinate forces another extension for B^2
        probe = sp.basis_vector(sp.allocated - 1)
        assert abs(defect_form(block, probe, 2)) <= 1e-8 * scale

    def test_expansivity_of_compressions(self, rng):
        T = expansive_generator(4, "diagonal", diag=[1.5, 2.0, 3.0, 4.0])
        block, _, _, sp, _ = self.run(T, n=4)
        for _ in range(5):
            S = gram_schmidt([random_instantiated(sp, rng) for _ in range(5)])
            w = np.linalg.eigvalsh(compressed_gram(block, S))
            assert w.min() >= 1.0 - 1e-9


def random_subspace(space, label, n, rng):
    """ONB of a random n-dimensional subspace of the copy `label`, not
    aligned with its coordinates."""
    idx = space.labels[label]
    return gram_schmidt([space.vector(rng.standard_normal(len(idx))
                                      + 1j * rng.standard_normal(len(idx)), idx)
                         for _ in range(n)])


class TestAssemblyFromImages:
    """The constructions take the target's images of the split systems
    from the rows Tx (Theorem 2) or 2x (Theorem 1) through the same two
    splittings, placed on the partner copies: no target product and no z
    rows during construction."""

    def test_construction_makes_no_target_product(self, monkeypatch, rng):
        calls = []

        def counted(cls, name):
            method = getattr(cls, name)

            def wrapper(self, *args):
                calls.append(cls.__name__)
                return method(self, *args)
            monkeypatch.setattr(cls, name, wrapper)

        counted(operators._DirectSumPower, "_product")
        counted(ScalarOperator, "apply")
        counted(ScalarOperator, "_apply_rows")
        T = expansive_generator(6, "svd_random", seed=5)
        sp = gapped_space(6)
        f2 = random_subspace(sp, "H1", 4, rng)
        block2, T4, trace2 = theorem2_construct(T, f2, sp)
        sp1 = prepare_space(6)
        f1 = random_subspace(sp1, "H1", 4, rng)
        block1, trace1 = theorem1_construct(f1, sp1)
        assert calls == []
        for target, block, trace, f_basis, norm in (
                (T4, block2, trace2, f2, T.operator_norm),
                (ScalarOperator(2.0), block1, trace1, f1, 2.0)):
            cert = certificate_evaluate(target, block, trace, f_basis,
                                        operator_norm_T=norm,
                                        bound_theoretical=(norm + 1) / 4)
            assert cert.ok
        # the certificate's one independent application of each target
        assert calls == ["_DirectSumPower", "ScalarOperator"]

    @pytest.mark.parametrize("theorem", [1, 2])
    def test_block_holds_z_images_off_aligned_layouts(self, theorem, rng):
        # F not coordinate-aligned; for Theorem 2, unlabeled coordinates
        # between the copies make both partner maps gather and scatter
        if theorem == 1:
            sp = prepare_space(6)
            f_basis = random_subspace(sp, "H1", 4, rng)
            block, trace = theorem1_construct(f_basis, sp)
            target = ScalarOperator(2.0)
            fresh = iter(range(sp.allocated - 4, sp.allocated))

            def partner2(v):
                return sp.basis_vector(next(fresh))
        else:
            T = expansive_generator(6, "svd_random", seed=8)
            sp = gapped_space(6)
            f_basis = random_subspace(sp, "H1", 4, rng)
            block, target, trace = theorem2_construct(T, f_basis, sp)
            partner2 = theorem2_partner2(sp)
        z1, z2 = second_split(list(systems(trace))[1], trace.norms_Tx, partner2)
        assert_block_holds_z_images(block, trace, target, z1, z2)

    @pytest.mark.parametrize("theorem, aligned", [
        (1, True), (1, False), (2, True), (2, False)])
    def test_splitting_is_the_padded_sum(self, theorem, aligned, rng):
        # y1 = s x + eps P1(x) and y2 = eps x - s P1(x) on zero-padded rows,
        # entry for entry: P1 moves H1 onto H2 (Theorem 2) or maps x_i to
        # the i-th of the dim(F) first fresh coordinates (Theorem 1)
        n = 4
        sp = prepare_space(6) if theorem == 1 else gapped_space(6)
        before = sp.allocated
        f_basis = (standard_f_basis(sp, n) if aligned
                   else random_subspace(sp, "H1", n, rng))
        if theorem == 1:
            _, trace = theorem1_construct(f_basis, sp)
            assert sp.allocated == before + 2 * n  # 2 dim(F) fresh, no more
            x = trace.x_rows
            coeffs = np.eye(n) if aligned else x @ np.conj(x).T
            to = np.arange(before, before + n)
        else:
            T = expansive_generator(6, "svd_random", seed=3)
            _, _, trace = theorem2_construct(T, f_basis, sp)
            assert sp.allocated == before
            x, h1 = trace.x_rows, sp.labels["H1"]
            coeffs, to = padded(x, 1 + h1.max())[:, h1], sp.labels["H2"]
        width = trace.y1_rows.shape[1]
        p = np.zeros((n, width), dtype=np.complex128)
        p[:, to] = coeffs
        if theorem == 1 and aligned:
            np.testing.assert_array_equal(np.abs(x), np.eye(n, x.shape[1]))
        eps, x = trace.epsilon, padded(x, width)
        s = np.sqrt(1.0 - eps * eps)
        np.testing.assert_array_equal(trace.y1_rows, s * x + eps * p)
        np.testing.assert_array_equal(trace.y2_rows, eps * x - s * p)


THEOREM2_ORDER3_OPERATORS = {
    "svd_random": lambda: expansive_generator(16, "svd_random", seed=1),
    "id_plus_psd": lambda: expansive_generator(16, "id_plus_psd", seed=2),
    "diag": lambda: expansive_generator(16, "diagonal",
                                        diag=np.tile([1.5, 2.0, 3.0, 4.0], 4)),
}


@pytest.mark.parametrize("case", [
    *[("theorem1", n) for n in (1, 2, 4, 8, 16, 32)],
    *[(name, n) for name in THEOREM2_ORDER3_OPERATORS for n in (2, 4, 8, 16)]],
    ids=lambda case: f"{case[0]}-n{case[1]}")
def test_order3_defect_vanishes_on_constructed_blocks(case, rng):
    # a 2-isometry is a 3-isometry: beta_3 = B* beta_2 B - beta_2 = 0; every
    # 50th x is the newest coordinate, so B^3 x forces lazy extensions
    name, n = case
    dim = n if name == "theorem1" else 16
    sp = prepare_space(dim, 64 * dim + 3 * 200)  # room for 3 extensions per x
    f_basis = standard_f_basis(sp, n)
    if name == "theorem1":
        block, _ = theorem1_construct(f_basis, sp)
    else:
        block, _, _ = theorem2_construct(THEOREM2_ORDER3_OPERATORS[name](),
                                         f_basis, sp)
    scale = max(1.0, block.operator_norm ** 2) ** 3
    for i in range(200):
        x = (sp.basis_vector(sp.allocated - 1) if i % 50 == 49
             else random_instantiated(sp, rng))
        assert abs(defect_form(block, x, 3)) <= 1e-8 * scale * x.norm() ** 2


class TestBruteForceOracle:
    def test_gram_quadratic_form_matches(self, rng):
        T = expansive_generator(4, "svd_random", seed=21)
        sp = prepare_space(4)
        f_basis = standard_f_basis(sp, 2)
        block, T4, trace = theorem2_construct(T, f_basis, sp)

        m0 = sp.allocated
        # warm-up: materialize R on the whole current span
        for j in range(m0):
            block.apply(block.apply(sp.basis_vector(j)))
        images1 = [block.apply(sp.basis_vector(j)) for j in range(m0)]
        images2 = [block.apply(v) for v in images1]
        G0 = np.eye(m0)
        G1 = gram_matrix(images1)
        G2 = gram_matrix(images2)
        D = G2 - 2 * G1 + G0

        scale = max(1.0, block.operator_norm ** 2) ** 2
        for _ in range(100):
            c = rng.standard_normal(m0) + 1j * rng.standard_normal(m0)
            c /= np.linalg.norm(c)
            coords = np.zeros(sp.capacity, dtype=complex)
            coords[:m0] = c
            x = Vector(coords, sp)
            direct = defect_form(block, x, 2)
            oracle = float(np.real(np.conj(c) @ D @ c))
            assert abs(direct - oracle) <= 1e-12 * scale


class TestCertificate:
    def build(self):
        T = expansive_generator(8, "svd_random", seed=4)
        sp = prepare_space(8)
        f_basis = standard_f_basis(sp, 4)
        block, T4, trace = theorem2_construct(T, f_basis, sp)
        return T, sp, f_basis, block, T4, trace

    def test_subspace_not_contained(self):
        T, sp, f_basis, block, T4, trace = self.build()
        outside = sp.basis_vector(sp.labels["H1"][5])
        with pytest.raises(SubspaceNotContained):
            certificate_evaluate(T4, block, trace, [outside],
                                 operator_norm_T=T.operator_norm,
                                 bound_theoretical=1.0)

    @pytest.mark.parametrize("theorem", [1, 2])
    def test_roundoff_past_the_allocated_coordinates(self, theorem):
        # G with 1e-12 on a coordinate not allocated yet: Q is wider than
        # E (as wide as K, V and W), which is padded to target(Q)'s width,
        # and the certificate is the one of the clean G
        T, sp, f_basis, block, T4, trace = self.build()
        target, norm, bound = T4, T.operator_norm, (T.operator_norm + 1) / 4
        if theorem == 1:
            sp = prepare_space(8)
            f_basis = standard_f_basis(sp, 4)
            block, trace = theorem1_construct(f_basis, sp)
            target, norm, bound = ScalarOperator(2.0), 2.0, 1 / 4
        smudged = []
        for v in f_basis:
            coords = padded(v.prefix, sp.allocated + 2)
            coords[-1] = 1e-12
            smudged.append(Vector(coords, sp))
        clean, dirty = (certificate_evaluate(target, block, trace, g,
                                             operator_norm_T=norm,
                                             bound_theoretical=bound)
                        for g in (f_basis, smudged))
        for name in ("bound_measured", "bound_exact", "defect_max",
                     "expansivity_min", "orthogonality_max"):
            assert getattr(dirty, name) == getattr(clean, name), name
        assert dirty.bound_measured == (0.24999999999999997 if theorem == 1
                                        else 0.775700760502932)

    def test_domain_mismatch(self):
        # a basis of another space, or a target attached to none
        T, sp, f_basis, block, T4, trace = self.build()
        for target, basis in ((T4, standard_f_basis(prepare_space(8), 4)),
                              (direct_sum_power(T, 4), f_basis)):
            with pytest.raises(DomainMismatch):
                certificate_evaluate(target, block, trace, basis,
                                     operator_norm_T=T.operator_norm,
                                     bound_theoretical=1.0)

    def test_restriction_monotonicity(self):
        T, sp, f_basis, block, T4, trace = self.build()
        kwargs = dict(operator_norm_T=T.operator_norm,
                      bound_theoretical=(T.operator_norm + 1) / 4)
        full = certificate_evaluate(T4, block, trace, f_basis, **kwargs)
        single = certificate_evaluate(T4, block, trace, [f_basis[0]], **kwargs)
        assert single.bound_measured <= full.bound_theoretical * (1 + 1e-9)
        assert full.bound_holds

    def test_nested_sweep_bound(self):
        T = expansive_generator(16, "svd_random", seed=6)
        for n in (2, 4, 8, 16):
            sp = prepare_space(16)
            f_basis = standard_f_basis(sp, n)
            block, T4, trace = theorem2_construct(T, f_basis, sp)
            cert = certificate_evaluate(
                T4, block, trace, f_basis,
                operator_norm_T=T.operator_norm,
                bound_theoretical=(T.operator_norm + 1) / n)
            assert cert.bound_measured * n <= T.operator_norm + 1 + 1e-9

    def test_leaves_block_and_space_unchanged(self):
        T, sp, f_basis, block, T4, trace = self.build()
        before = block_state(block)
        certificate_evaluate(T4, block, trace, f_basis,
                             operator_norm_T=T.operator_norm,
                             bound_theoretical=(T.operator_norm + 1) / 4)
        assert_same_state(before, block)

    def test_fits_the_construction_footprint(self):
        # theorem1 allocates dim H + 2n coordinates; the certificate none
        sp = prepare_space(8, capacity=24)
        f_basis = standard_f_basis(sp, 8)
        block, trace = theorem1_construct(f_basis, sp)
        assert sp.allocated == sp.capacity
        cert = certificate_evaluate(ScalarOperator(2.0), block, trace, f_basis,
                                    operator_norm_T=2.0, bound_theoretical=1 / 8)
        assert sp.allocated == sp.capacity
        assert cert.defect_max <= 1e-12 and cert.expansivity_min >= 1 - 1e-12

    def test_exact_bound_on_subspace_not_coordinate_aligned(self, rng):
        T = expansive_generator(8, "svd_random", seed=11)
        sp = prepare_space(8)
        raw = [sp.vector(rng.standard_normal(8) + 1j * rng.standard_normal(8),
                         sp.labels["H1"]) for _ in range(4)]
        f_basis = gram_schmidt(raw)
        block, T4, trace = theorem2_construct(T, f_basis, sp)
        bound = (T.operator_norm + 1) / 4
        cert = certificate_evaluate(T4, block, trace, f_basis,
                                    operator_norm_T=T.operator_norm,
                                    bound_theoretical=bound)
        rows = np.array([v.coords for v in f_basis])
        sampled = 0.0
        for _ in range(200):
            c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            x = Vector((c / np.linalg.norm(c)) @ rows, sp)
            sampled = max(sampled, (block.apply(x) - T4.apply(x)).norm())
        assert sampled <= cert.bound_measured * (1 + 1e-12)
        assert cert.bound_measured <= bound * (1 + 1e-9)

        sp1 = prepare_space(8)
        f1 = gram_schmidt([sp1.vector(v.coords[:8], sp1.labels["H1"])
                           for v in raw])
        block1, trace1 = theorem1_construct(f1, sp1)
        cert1 = certificate_evaluate(ScalarOperator(2.0), block1, trace1, f1,
                                     operator_norm_T=2.0,
                                     bound_theoretical=1 / 4)
        assert cert1.bound_measured == pytest.approx(1 / 4, abs=1e-12)

    def test_defect_normalized_by_squared_norm_squared(self):
        # B is an isometry for T = id, so tB has defect (t^2-1)^2 ||x||^2,
        # Gram(tBe_j) = t^2 I, and ||tB|| = t: defect_max = (t^2-1)^2/t^4.
        # The exact reference takes B^2 e_j as [E2 | r2 | r1] from two steps,
        # so the wrapper scales the r1 part of (tB)^2 e_j once, not twice.
        # The defect's eigenvalues are then (t^2-1)^2 - (t^4-t^2) l, with l
        # an eigenvalue of r1 r1* in [0, 1]; at l = 0 (on K + span of R's
        # inputs) the largest in modulus, (t^2-1)^2, is that of tB.
        class Scaled:
            def __init__(self, block, t):
                self.block, self.t = block, t
                self.operator_norm = t * block.operator_norm

            def _step(self, X):
                E, r = self.block._step(X)
                return self.t * E, self.t * r

        T = DenseOperator(np.eye(4))
        sp = prepare_space(4)
        f_basis = standard_f_basis(sp, 2)
        block, T4, trace = theorem2_construct(T, f_basis, sp)
        defect, expansivity, _ = exact_certificate(Scaled(block, 2.0),
                                                   sp.allocated)
        assert defect == pytest.approx(9 / 16, abs=1e-12)
        assert expansivity == pytest.approx(4.0, abs=1e-12)

    def test_peak_memory_below_one_m_by_m_matrix(self):
        # dim F = 2, dim H = 128: m = 512 coordinates, whose m x m complex
        # matrix alone takes 4 MiB
        T = expansive_generator(128, "svd_random", seed=1)
        sp = prepare_space(128)
        f_basis = standard_f_basis(sp, 2)
        block, T4, trace = theorem2_construct(T, f_basis, sp)
        m = sp.allocated
        assert m == 512
        tracemalloc.start()
        try:
            certificate_evaluate(T4, block, trace, f_basis,
                                 operator_norm_T=T.operator_norm,
                                 bound_theoretical=(T.operator_norm + 1) / 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * m * 16

    def test_overlap_of_k_with_r_inputs_fails_the_row(self):
        # R: e1 -> e2 and V(k) = 2 e3, with k = e0 tilted by 1e-6 towards R's
        # input e1; the other six hypotheses hold to rounding, and so does
        # the 2-isometry of B, which takes off k's part before applying R
        sp = AmbientSpace(8)
        sp.allocate(4, label="H1")
        e = np.eye(4)
        k = np.array([[np.sqrt(1 - 1e-12), 1e-6, 0, 0]])
        R = LazyIsometry(sp, inputs=e[[1]], outputs=e[[2]])
        block = BrownianBlock(R, K_basis=k, V_images=2 * e[[3]])
        trace = ConstructionTrace(space=sp, epsilon=1.0, x_rows=k,
                                  y1_rows=e[[1]],
                                  y2_rows=k, sigmas=[2.0], norms_Tx=[1.0],
                                  orthogonality_max=0.0)
        cert = certificate_evaluate(ScalarOperator(1.0), block, trace,
                                    [Vector(k[0], sp)], operator_norm_T=1.0,
                                    bound_theoretical=3.0)
        assert exact_certificate(block, sp.allocated)[0] <= 1e-15
        assert cert.bound_holds
        assert cert.defect_max > DEFECT_THRESHOLD
        assert not cert.ok

    def test_memory_does_not_grow_with_capacity(self):
        # dim H = dim F = 32: m = 128 instantiated coordinates
        T = expansive_generator(32, "svd_random", seed=5)
        peaks = []
        for capacity in (2048, 16384):
            sp = prepare_space(32, capacity)
            f_basis = standard_f_basis(sp, 32)
            block, T4, trace = theorem2_construct(T, f_basis, sp)
            tracemalloc.start()
            try:
                certificate_evaluate(T4, block, trace, f_basis,
                                     operator_norm_T=T.operator_norm,
                                     bound_theoretical=(T.operator_norm + 1) / 32)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        m = sp.allocated
        assert m == 128
        assert abs(peaks[1] - peaks[0]) <= 0.05 * peaks[0]
        assert max(peaks) < 16 * m * m * 16


def seven_term_eta(block):
    """The block's hypothesis residual written out: Frobenius norms of
    UU* - I, WW* - I, KK* - I, UK*, WK*, WV*/nu and VK*/nu over the
    columns each pair carries, in the order the certificate sums them."""
    U, W = block.R.defined_inputs, defined_outputs(block.R)
    K, V = block._K, block._Vc.dense()
    nu = np.linalg.norm(V, 2)

    def fro(a, b=None):
        if b is None:
            return np.linalg.norm(np.conj(a) @ a.T - np.eye(len(a)))
        k = min(a.shape[1], b.shape[1])
        return np.linalg.norm(np.conj(a[:, :k]) @ b[:, :k].T)

    return (fro(U) + fro(W) + fro(K) + fro(U, K) + fro(W, K)
            + (fro(W, V) + fro(V, K)) / nu)


class TestRecordedQuantities:
    """The certificate reads epsilon from the trace and eta from the block."""

    @pytest.mark.parametrize("theorem", [1, 2])
    def test_epsilon_is_the_one_the_block_was_built_with(self, theorem):
        sp = prepare_space(8)
        f_basis = standard_f_basis(sp, 5)
        if theorem == 1:
            block, trace = theorem1_construct(f_basis, sp, epsilon=0.3)
            target, norm_T = ScalarOperator(2.0), 2.0
        else:
            T = expansive_generator(8, "svd_random", seed=4)
            block, target, trace = theorem2_construct(T, f_basis, sp,
                                                      epsilon=0.3)
            norm_T = T.operator_norm
        cert = certificate_evaluate(target, block, trace, f_basis,
                                    operator_norm_T=norm_T,
                                    bound_theoretical=0.3 * (norm_T + 1))
        assert trace.epsilon == 0.3
        assert cert.epsilon == 0.3

    def test_hypothesis_residual_is_the_seven_term_sum(self):
        T = expansive_generator(8, "svd_random", seed=4)
        sp = prepare_space(8)
        block, _, _ = theorem2_construct(T, standard_f_basis(sp, 4), sp)
        for extend in (False, True):
            if extend:  # the last coordinate of H4 lies outside R's span
                count = block.R.defined_count
                block.apply(sp.basis_vector(sp.allocated - 1))
                assert block.R.defined_count == count + 1
            allocated, count = sp.allocated, block.R.defined_count
            eta = block.hypothesis_residual()
            assert eta == pytest.approx(seven_term_eta(block), rel=1e-12)
            assert 0.0 < eta < 1e-12
            assert (sp.allocated, block.R.defined_count) == (allocated, count)

    def test_certificate_reuses_the_constructors_residuals(self, monkeypatch):
        # the constructors computed e_U, e_W, e_K and e_WV on the same rows;
        # the certificate computes only e_UK, and e_WK with e_VK in one call
        # (W and V share their base), and adds the same floats in the same
        # order as seven fresh calls on the rows as stored (W and V in
        # coefficient form) would
        T = expansive_generator(8, "svd_random", seed=4)
        sp = prepare_space(8)
        f_basis = standard_f_basis(sp, 4)
        block, T4, trace = theorem2_construct(T, f_basis, sp)
        residual = operators.gram_residual
        calls = []

        def counted(*args):
            calls.append(args)
            return residual(*args)

        def fresh_eta(stored=False):  # on the dense rows, or as stored
            U, W = block.R.defined_inputs, defined_outputs(block.R)
            K, V, nu = block._K, block._Vc.dense(), block._vnorm
            if stored:
                W, V = block.R._W, block._Vc
            return (residual(U) + residual(W) + residual(K) + residual(U, K)
                    + residual(W, K) + (residual(W, V) + residual(V, K)) / nu)

        monkeypatch.setattr(operators, "gram_residual", counted)
        cert = certificate_evaluate(T4, block, trace, f_basis,
                                    operator_norm_T=T.operator_norm,
                                    bound_theoretical=(T.operator_norm + 1) / 4)
        assert len(calls) == 2
        assert cert.defect_max == 10.0 * fresh_eta(stored=True)
        # and the dense rows they stand for give the same to rounding
        assert cert.defect_max == pytest.approx(10.0 * fresh_eta(), rel=1e-12)
        # the last coordinate of H4 lies outside R's span: R extends, so
        # only e_U is recomputed over its new rows, once
        count = block.R.defined_count
        block.apply(sp.basis_vector(sp.allocated - 1))
        assert block.R.defined_count == count + 1
        for expected in (3, 2):
            calls.clear()
            eta = block.hypothesis_residual()
            assert len(calls) == expected
            assert eta == pytest.approx(fresh_eta(), rel=1e-12)
            assert eta == pytest.approx(seven_term_eta(block), rel=1e-12)

    @pytest.mark.parametrize("theorem", [1, 2])
    def test_only_e_u_moves_under_forty_extensions(self, theorem):
        # an extension adds to W a unit row on a fresh coordinate, where
        # every stored W, K and V row vanishes: e_W, e_WV and e_WK over the
        # dense rows hold to the rounding of a fresh Gram, 8 m u
        dim, n = 12, 6
        sp = prepare_space(dim, capacity=8 * dim)
        f_basis = standard_f_basis(sp, n)
        if theorem == 1:
            block, _ = theorem1_construct(f_basis, sp)
        else:
            T = expansive_generator(dim, "svd_random", seed=5)
            block, _, _ = theorem2_construct(T, f_basis, sp)
        R, residual = block.R, operators.gram_residual

        def fixed(W, V):
            return np.array([residual(W), residual(W, V), residual(W, block._K)])

        # the stored ones, fresh calls on W and V in coefficient form
        at_construction = fixed(R._W, block._Vc)
        assert (R.e_W, block._e_WV) == tuple(at_construction[:2])
        dense = fixed(defined_outputs(R), block._Vc.dense())
        assert np.all(np.abs(dense - at_construction)
                      <= 8 * R.defined_count * np.finfo(float).eps)
        rng = np.random.default_rng(7)
        count = R.defined_count
        for _ in range(40):  # each random vector of the allocated span is new
            block.apply(random_instantiated(sp, rng))
        assert R.defined_count >= count + 40
        m = R.defined_count
        assert np.all(np.abs(fixed(defined_outputs(R), block._Vc.dense())
                             - at_construction) <= 8 * m * np.finfo(float).eps)
        eta = block.hypothesis_residual()
        assert R.e_U == residual(R.defined_inputs)
        assert eta == pytest.approx(seven_term_eta(block), rel=1e-12)

    def test_extension_rows_made_before_the_block_count(self):
        # R extends onto coordinate 2 before the block is built, so its
        # output row there is e2: a V row on e2 breaks R*V = 0, and a K
        # row on e2 puts 1 into e_WK
        def extended():
            sp = AmbientSpace(8)
            sp.allocate(2)
            R = LazyIsometry(sp, [sp.basis_vector(0)], [sp.basis_vector(1)])
            R.apply(sp.basis_vector(1))
            assert np.r_[R._fresh].tolist() == [2]
            return sp, R

        sp, R = extended()
        with pytest.raises(ValueError, match="R\\*V = 0"):
            BrownianBlock(R, [sp.basis_vector(0)], [sp.basis_vector(2)])
        sp, R = extended()
        block = BrownianBlock(R, [sp.basis_vector(2)], [sp.basis_vector(0)])
        assert block.hypothesis_residual() == 1.0 == seven_term_eta(block)

    def test_certificate_reports_ten_and_five_eta(self):
        T = expansive_generator(8, "svd_random", seed=4)
        sp = prepare_space(8)
        f_basis = standard_f_basis(sp, 4)
        block, T4, trace = theorem2_construct(T, f_basis, sp)
        cert = certificate_evaluate(T4, block, trace, f_basis,
                                    operator_norm_T=T.operator_norm,
                                    bound_theoretical=(T.operator_norm + 1) / 4)
        eta = block.hypothesis_residual()
        assert cert.defect_max == 10.0 * eta
        assert cert.expansivity_min == 1.0 - 5.0 * eta


def bound_at_full_width(target, block, trace, G_basis):
    """(bound_measured, bound_exact) as the certificate defines them, with
    G, F and Q padded to all m instantiated coordinates and SVD norms."""
    m = trace.space.allocated
    g_rows = padded(np.array([v.coords[:m] for v in G_basis]), m)
    f_rows = padded(trace.x_rows, m)
    q = gram_schmidt([Vector(row, trace.space)
                      for row in (g_rows @ np.conj(f_rows).T) @ f_rows])
    q = np.array([v.coords[:m] for v in q])
    eq, rq = block._step(q)
    moved = getattr(target, "_apply_rows", target.apply)(q)
    width = max(m, eq.shape[1], moved.shape[1])
    eq, moved, q = (padded(a, width) for a in (eq, moved, q))
    eps = float(np.real(np.vdot(trace.x_rows[0],
                                trace.y2_rows[0, :trace.x_rows.shape[1]])))
    return (np.linalg.norm(np.hstack([eq - moved, rq]), 2),
            eps * np.linalg.norm(moved - q, 2))


class TestCertificateWidth:
    """The certificate's Q at the wider of G's and F's widths against the
    same bound over all m instantiated coordinates."""

    @settings(max_examples=40, deadline=None)
    @given(theorem=st.sampled_from([1, 2]), dim=st.integers(2, 7),
           seed=st.integers(0, 2**32 - 1), n_frac=st.floats(0.0, 1.0),
           narrow_frac=st.floats(0.0, 1.0))
    def test_bound_matches_the_full_width_reference(self, theorem, dim, seed,
                                                    n_frac, narrow_frac):
        # F = span of j random vectors over the first w < dim coordinates
        # and n - j over all dim; G = random combinations of the first j,
        # so G lies in F, is not coordinate-aligned and is narrower than F
        rng = np.random.default_rng(seed)
        n = 2 + int(n_frac * (dim - 2))
        j = 1 + int(narrow_frac * (n - 2))
        w = j + int(narrow_frac * (dim - 1 - j))
        sp = prepare_space(dim)
        coeffs = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        coeffs[:j, w:] = 0
        f_basis = [sp.vector(c, np.arange(dim)) for c in coeffs]
        if theorem == 1:
            block, trace = theorem1_construct(f_basis, sp)
            target, norm_T = ScalarOperator(2.0), 2.0
        else:
            T = expansive_generator(dim, "svd_random", seed=seed)
            block, target, trace = theorem2_construct(T, f_basis, sp)
            norm_T = T.operator_norm
        mix = rng.standard_normal((j, j)) + 1j * rng.standard_normal((j, j))
        g_basis = [Vector(c @ coeffs[:j, :w], sp) for c in mix]
        assert max(len(g.prefix) for g in g_basis) < trace.x_rows.shape[1]

        cert = certificate_evaluate(target, block, trace, g_basis,
                                    operator_norm_T=norm_T,
                                    bound_theoretical=1.0)
        measured, exact = bound_at_full_width(target, block, trace, g_basis)
        scale = norm_T + 1
        assert abs(cert.bound_measured - measured) <= 1e-14 * scale
        assert abs(cert.bound_exact - exact) <= 1e-14 * scale

        # a G vector with support off F, inside F's width or past it
        for col in (w, sp.allocated - 1):
            leak = g_basis[0] + 1e-3 * sp.basis_vector(col)
            if col < trace.x_rows.shape[1] and abs(
                    np.vdot(trace.x_rows[:, col], trace.x_rows[:, col])) > 1 - 1e-3:
                continue  # e_col lies (almost) in F
            with pytest.raises(SubspaceNotContained):
                certificate_evaluate(target, block, trace, [leak],
                                     operator_norm_T=norm_T,
                                     bound_theoretical=1.0)


class TestLazyReference:
    """`certificate_evaluate` against `reference_certificate`, which applies
    the block lazily on a scratch copy."""

    def test_copy_to_extends_only_the_copy(self):
        sp = make_space(3, capacity=8)
        R = LazyIsometry(sp, inputs=[sp.basis_vector(1)],
                         outputs=[sp.basis_vector(2)])
        B = BrownianBlock(R, K_basis=[sp.basis_vector(0)],
                          V_images=[2 * sp.basis_vector(1)])
        scratch = make_space(3, capacity=5)
        image = copy_to(B, scratch).apply(vec(scratch, [1, 2j, 3]))
        # e_2 lies outside R's defined span: only the copy was extended
        assert (sp.allocated, scratch.allocated, R.defined_count) == (3, 4, 1)
        np.testing.assert_allclose(image.coords[:4],
                                   B.apply(vec(sp, [1, 2j, 3])).coords[:4],
                                   atol=1e-15)
        with pytest.raises(ValueError):
            copy_to(B, make_space(2, capacity=8))

    @settings(max_examples=60, deadline=None)
    @given(theorem=st.sampled_from([1, 2]),
           family=st.sampled_from(["svd_random", "id_plus_psd"]),
           dim=st.integers(1, 6), extra=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1), n_frac=st.floats(0.0, 1.0),
           g_frac=st.floats(0.0, 1.0),
           epsilon=st.one_of(st.none(), st.floats(0.05, 1.0)),
           leak=st.sampled_from([None, "instantiated", "past_allocated"]),
           extensions=st.integers(0, 2), slack=st.integers(0, 1))
    def test_matches_lazy_reference(self, theorem, family, dim, extra, seed,
                                    n_frac, g_frac, epsilon, leak, extensions,
                                    slack):
        rng = np.random.default_rng(seed)
        span = dim if theorem == 2 else dim + extra
        n = 1 + int(n_frac * (span - 1))
        # each defect_form below extends R twice
        footprint = dim + extra + (3 * dim if theorem == 2 else 2 * n)
        sp = AmbientSpace(footprint + 2 * extensions + slack)
        sp.allocate(dim, label="H1")
        sp.allocate(extra)
        coeffs = rng.standard_normal((n, span)) + 1j * rng.standard_normal((n, span))
        f_basis = [sp.vector(c, np.arange(span)) for c in coeffs]
        if theorem == 1:
            block, trace = theorem1_construct(f_basis, sp, epsilon=epsilon)
            target, norm_T = ScalarOperator(2.0), 2.0
        else:
            T = expansive_generator(dim, family, seed=seed)
            block, target, trace = theorem2_construct(T, f_basis, sp,
                                                      epsilon=epsilon)
            norm_T = T.operator_norm
        for i in range(extensions):  # U gains extension rows
            probe = (sp.basis_vector(sp.allocated - 1) if i % 2 == 0
                     else random_instantiated(sp, rng))
            defect_form(block, probe, 2)
        assert sp.allocated + slack == sp.capacity

        # G inside F, of random dimension, unless one vector leaks out
        f_rows = np.array([v.coords for v in f_basis])
        k = 1 + int(g_frac * (n - 1))
        mix = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        g_basis = [Vector(c @ f_rows, sp) for c in mix]
        if leak == "instantiated":
            g_basis[-1] = g_basis[-1] + sp.basis_vector(
                int(rng.integers(sp.allocated)))
        elif leak == "past_allocated" and slack:
            coords = g_basis[-1].coords.copy()
            coords[sp.allocated] = 0.5
            g_basis[-1] = Vector(coords, sp)

        before = block_state(block)
        try:
            cert = certificate_evaluate(target, block, trace, g_basis,
                                        operator_norm_T=norm_T,
                                        bound_theoretical=1.0)
        except SubspaceNotContained:
            cert = None
        assert_same_state(before, block)
        try:
            bound, defect, expansivity = reference_certificate(
                target, block, trace, g_basis)
        except SubspaceNotContained:
            assert cert is None
            return
        assert cert is not None
        scale = norm_T + 1
        assert abs(cert.bound_measured - bound) <= 1e-12 * scale
        assert abs(cert.bound_exact - cert.bound_measured) <= 1e-12 * scale
        assert abs(cert.defect_max - defect) <= 1e-12
        assert abs(cert.expansivity_min - expansivity) <= 1e-12 * max(
            1.0, block.operator_norm ** 2)
        assert_exact_within_structural(cert, block, sp.allocated)

    @settings(max_examples=80, deadline=None)
    @given(theorem=st.sampled_from([1, 2]),
           family=st.sampled_from(["svd_random", "id_plus_psd"]),
           dim=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           n_frac=st.floats(0.0, 1.0),
           which=st.sampled_from(["U", "W", "K", "V", "V along W",
                                  "U toward K"]),
           log_delta=st.floats(-13.0, -1.0), extensions=st.integers(0, 2))
    @example(theorem=2, family="svd_random", dim=6, seed=1, n_frac=1.0,
             which="V along W", log_delta=-1.0, extensions=2)
    def test_exact_within_structural_on_perturbed_blocks(
            self, theorem, family, dim, seed, n_frac, which, log_delta,
            extensions):
        # one stored system moved by delta: U, W or K by random rows of
        # Frobenius norm 1, V by such rows or by its W rows times ||V||, U
        # by M K with ||M||_F = 1; written past the constructors' 1e-10
        # checks with the residual ledger refreshed as they compute it, on
        # a random F in H1, then R extended; the whole run is redone with
        # delta halved until eta <= 1/50, the range hypothesis_residual's
        # derivation covers
        def run(delta):
            rng = np.random.default_rng(seed)
            n = 1 + int(n_frac * (dim - 1))
            sp = prepare_space(dim)
            coeffs = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
            f_basis = [sp.vector(c, sp.labels["H1"]) for c in coeffs]
            if theorem == 1:
                block, trace = theorem1_construct(f_basis, sp)
                target, norm_T = ScalarOperator(2.0), 2.0
            else:
                T = expansive_generator(dim, family, seed=seed)
                block, target, trace = theorem2_construct(T, f_basis, sp)
                norm_T = T.operator_norm
            R = block.R
            rows = {"U": R.defined_inputs, "W": R._W.dense(), "K": block._K,
                    "V": block._Vc.dense()}
            rows["V along W"], rows["U toward K"] = rows["V"], rows["U"]

            def unit(shape):
                z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                return z / np.linalg.norm(z)
            step = {"V along W": block._vnorm * rows["W"],
                    "U toward K": unit((n, n)) @ rows["K"],
                    "V": block._vnorm * unit(rows["V"].shape)}.get(which)
            base = rows[which]
            step = unit(base.shape) if step is None else step
            width = max(base.shape[1], step.shape[1])
            moved = padded(base, width) + delta * padded(step, width)
            if which.startswith("U"):
                R._U, R._uc = moved, width
            elif which == "W":
                R._W = CoefficientRows(moved)
            elif which == "K":
                block._K = moved
            else:
                block._Vc = CoefficientRows(moved)
            R._e_U, R.e_W = gram_residual(R.defined_inputs), gram_residual(R._W)
            block._e_K = gram_residual(block._K)
            block._vnorm = spectral_norm(block._Vc)
            block._e_WV = gram_residual(R._W, block._Vc)
            for _ in range(extensions):
                defect_form(block, random_instantiated(sp, rng), 2)
            cert = certificate_evaluate(target, block, trace, f_basis,
                                        operator_norm_T=norm_T,
                                        bound_theoretical=(norm_T + 1) / n)
            return cert, block, sp.allocated

        delta = 10.0 ** log_delta
        while (result := run(delta))[0].defect_max > 10 / 50:  # eta > 1/50
            delta /= 2
        assert_exact_within_structural(*result)


class TestCoefficientForm:
    """A Theorem-2 block keeps W and V as coefficients on the rows T x, a
    Theorem-1 block as dense rows with per-row weights (the one-copy
    case); the block rebuilt from the rows they stand for, dense, is the
    same operator."""

    @settings(max_examples=40, deadline=None)
    @given(theorem=st.sampled_from([1, 2]),
           family=st.sampled_from(["scalar", "diagonal", "svd_random",
                                   "id_plus_psd"]),
           dim=st.integers(1, 6), n_frac=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_dense_block_of_its_rows(self, theorem, family, dim,
                                                 n_frac, seed):
        rng = np.random.default_rng(seed)
        n = 1 + int(n_frac * (dim - 1))
        coeffs = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        T = expansive_generator(dim, family, seed=seed,
                                diag=1.0 + 3.0 * rng.random(dim))

        def build():  # F random in H1, not aligned with the coordinates
            sp = prepare_space(dim)
            f_basis = [sp.vector(c, sp.labels["H1"]) for c in coeffs]
            if theorem == 1:
                return sp, theorem1_construct(f_basis, sp)[0]
            return sp, theorem2_construct(T, f_basis, sp)[0]

        sp, block = build()
        dense_sp, twin = build()
        R = LazyIsometry(dense_sp, twin.R.defined_inputs, defined_outputs(twin.R))
        dense = BrownianBlock(R, twin._K, twin._Vc.dense())
        # copies of the base: Tx on H1..H4, or one of the dense rows
        assert len(block._Vc.starts) == (1 if theorem == 1 else 4)
        assert len(dense._Vc.starts) == 1
        norm = block.operator_norm
        assert abs(norm - dense.operator_norm) <= 1e-12 * norm

        def terms(blk):  # e_W, e_WV, e_WK, e_VK as eta sums them, and eta
            R, K, nu = blk.R, blk._K, max(blk._vnorm, 1e-300)
            return [R.e_W, blk._e_WV / nu, operators.gram_residual(R._W, K),
                    operators.gram_residual(blk._Vc, K) / nu,
                    blk.hypothesis_residual()]

        def assert_terms_agree():  # 1e-12 relative, and 2 m u: the terms
            # are rounding themselves, and measured apart by at most m u / 3
            rounding = 2 * sp.allocated * np.finfo(float).eps
            for got, want in zip(terms(block), terms(dense)):
                assert abs(got - want) <= 1e-12 * max(got, want) + rounding

        assert_terms_agree()

        m = sp.allocated
        X = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
        for got, want in zip(block._step(X), dense._step(X)):
            width = max(got.shape[1], want.shape[1])
            np.testing.assert_allclose(
                padded(got, width), padded(want, width), rtol=0,
                atol=1e-12 * norm * np.linalg.norm(X))
        for c in X:  # each application extends R on both sides alike
            want = dense.apply(Vector(c, dense_sp))
            got = block.apply(Vector(c, sp))
            assert sp.allocated == dense_sp.allocated
            np.testing.assert_allclose(got.coords, want.coords, rtol=0,
                                       atol=1e-12 * norm * np.linalg.norm(c))
        assert block.R.defined_count == dense.R.defined_count
        assert_terms_agree()

    def test_w_and_v_contract_their_base_once_per_consumer(self, monkeypatch):
        # W and V hold one base, the rows Tx, on the same copies: R's e_W
        # takes one product, VV* with WV* one, tz1 y2* with tz2 y2* and
        # WK* with VK* one per copy of H1, H2 (where y2 lives): 6 in all,
        # where a product per form takes 11
        real, lefts = linalg.products, []

        def counted(a, b):
            lefts.append(a)
            return real(a, b)

        monkeypatch.setattr(linalg, "products", counted)
        T = expansive_generator(8, "svd_random", seed=4)
        sp = prepare_space(8)
        f_basis = standard_f_basis(sp, 4)
        block, T4, trace = theorem2_construct(T, f_basis, sp)
        certificate_evaluate(T4, block, trace, f_basis,
                             operator_norm_T=T.operator_norm,
                             bound_theoretical=(T.operator_norm + 1) / 4)
        base = block.R._W.base
        assert block._Vc.base is base
        assert sum(a is base for a in lefts) == 6

    @pytest.mark.parametrize("case", ["theorem2", "theorem1", "other-copies"])
    def test_shared_products_are_the_separate_ones(self, case):
        # bit for bit: shared (Theorem 2), different bases (Theorem 1), and
        # one base on other copies (a hand-built V on H3, H4 only)
        T = expansive_generator(8, "svd_random", seed=4)
        sp = prepare_space(8)
        f_basis = standard_f_basis(sp, 4)
        if case == "theorem1":
            block, _ = theorem1_construct(f_basis, sp)
        else:
            block = theorem2_construct(T, f_basis, sp)[0]
        W, V, K = block.R._W, block._Vc, block._K
        if case == "other-copies":
            V = CoefficientRows(V.base, V.C[2:], V.starts[2:])
        shared = W.base is V.base and W.starts == V.starts
        assert shared == (case == "theorem2")
        for b in (V, W, K):
            for got, want in zip(products((V, W), b), (products(V, b),
                                                       products(W, b))):
                np.testing.assert_array_equal(got, want)
        assert gram_residual((W, V), K) == [gram_residual(W, K),
                                            gram_residual(V, K)]
        rng = np.random.default_rng(0)
        for shape in ((len(W),), (3, len(W))):  # one vector, and rows
            p, q = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    for _ in range(2))
            out = np.zeros(shape[:-1] + (max(W.end, V.end),), dtype=complex)
            both = add_images(out.copy(), (p, V), (q, W))
            one = add_images(add_images(out.copy(), (p, V)), (q, W))
            if shared:  # the weights are added first: one rounding apart
                np.testing.assert_allclose(both, one, rtol=0,
                                           atol=1e-14 * np.abs(one).max())
            else:
                np.testing.assert_array_equal(both, one)

    def test_block_retains_the_rows_tx_not_w_and_v_at_dim_128(self):
        # U and K (2 x 0.52e6 B) and x and Tx (2 x 0.26e6 B): measured
        # 1.60e6 B retained, 3.43e6 B with W and V stored dense
        T = expansive_generator(128, "svd_random", seed=1)
        sp = prepare_space(128)
        f_basis = standard_f_basis(sp, 128)
        tracemalloc.start()
        try:
            block, T4, trace = theorem2_construct(T, f_basis, sp)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 1.9e6


class TestRowPipeline:
    """The row construction against `reference_construct` on random F that
    are not coordinate-aligned: inside H1 for Theorem 2, anywhere in the
    instantiated span for Theorem 1."""

    @settings(max_examples=60, deadline=None)
    @given(theorem=st.sampled_from([1, 2]), dim=st.integers(1, 6),
           extra=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
           n_frac=st.floats(0.0, 1.0), leak=st.booleans(),
           shrink=st.booleans(), slack=st.integers(-1, 2))
    def test_matches_vector_reference(self, theorem, dim, extra, seed, n_frac,
                                      leak, shrink, slack):
        rng = np.random.default_rng(seed)
        T = None
        if theorem == 2:
            T = expansive_generator(dim, "svd_random", seed=seed)
            if shrink:  # most such T are not expansive on F
                T = DenseOperator(0.5 * T.matrix)
        span = dim if theorem == 2 else dim + extra
        n = 1 + int(n_frac * (span - 1))
        coeffs = rng.standard_normal((n, span)) + 1j * rng.standard_normal((n, span))
        leak = leak and theorem == 2 and extra > 0  # mass outside H1
        footprint = dim + extra + (3 * dim if theorem == 2 else 2 * n)
        capacity = footprint + slack

        def build(construct):
            sp = AmbientSpace(capacity)
            sp.allocate(dim, label="H1")
            sp.allocate(extra)
            f_basis = [sp.vector(c, np.arange(span)) for c in coeffs]
            if leak:
                f_basis[0] = f_basis[0] + sp.basis_vector(dim)
            try:
                return sp, construct(f_basis, sp)
            except (NotExpansive, DomainMismatch, CapacityExceeded) as exc:
                return sp, type(exc)

        if theorem == 1:
            sp, got = build(theorem1_construct)
        else:
            sp, got = build(lambda f, sp: theorem2_construct(T, f, sp)[::2])
        ref_sp, want = build(lambda f, sp: reference_construct(T, f, sp))
        if isinstance(want, type) or isinstance(got, type):
            assert got == want
            return
        assert sp.allocated == ref_sp.allocated
        assert sp.labels.keys() == ref_sp.labels.keys()
        for name, indices in ref_sp.labels.items():
            np.testing.assert_array_equal(sp.labels[name], indices)

        (block, trace), (ref_block, systems) = got, want
        for name, ref_vectors in systems.items():
            vectors = row_vectors(getattr(trace, name + "_rows"), sp)
            assert len(vectors) == len(ref_vectors)
            for v, ref_v in zip(vectors, ref_vectors):
                np.testing.assert_allclose(v.coords, ref_v.coords,
                                           rtol=0, atol=1e-12)

        def stored(b):  # U, W, K, V: y1, z1's and z2's images, y2
            return [padded(a, sp.capacity) for a in (
                b.R.defined_inputs, defined_outputs(b.R), b._K, b._Vc.dense())]

        for rows, ref_rows in zip(stored(block), stored(ref_block)):
            np.testing.assert_allclose(rows, ref_rows, rtol=0,
                                       atol=1e-12 * max(1.0, ref_block._vnorm))
        for _ in range(3):  # each application extends R on both sides
            c = rng.standard_normal(sp.allocated) + 1j * rng.standard_normal(
                sp.allocated)
            try:
                want = ref_block.apply(ref_sp.vector(c)).coords
            except CapacityExceeded:
                with pytest.raises(CapacityExceeded):
                    block.apply(sp.vector(c))
                break
            np.testing.assert_allclose(block.apply(sp.vector(c)).coords, want,
                                       rtol=0, atol=1e-12 * np.linalg.norm(c))
            assert sp.allocated == ref_sp.allocated


def random_combination(basis, rng):
    """A random nonzero vector of span(basis), with complex coefficients."""
    c = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    return sum((cj * v for cj, v in zip(c, basis)), Vector(np.zeros(0), basis[0].space))


class TestPointwiseIdentity:
    """||(B - T^(4))x|| = eps ||(T - I)x|| at every x in F, not only at the
    supremum the certificate reports: B x_i = s T^(4)y1_i + eps y2_i, and
    T^(4) commutes with the partner map.  Theorem 1 is the T = 2 id case,
    ||(B - 2)x|| = eps ||x||.  Along a chain with eps = 1/dim F_k this is
    the strong-operator convergence B_k -> T^(4) on F_1 (demo 05)."""

    epsilons = st.one_of(st.none(), st.floats(1e-60, 1.0))

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(["svd_random", "id_plus_psd", "diagonal"]),
           dim=st.integers(1, 8), n_frac=st.floats(0.0, 1.0),
           epsilon=epsilons, seed=st.integers(0, 2**32 - 1))
    def test_theorem2_distance_at_every_x(self, family, dim, n_frac, epsilon,
                                           seed):
        rng = np.random.default_rng(seed)
        T = expansive_generator(dim, family, seed=seed,
                                diag=1.0 + 3.0 * rng.random(dim))
        sp = prepare_space(dim)
        n = 1 + int(n_frac * (dim - 1))
        coeffs = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        f_basis = [sp.vector(c, sp.labels["H1"]) for c in coeffs]  # not aligned
        block, T4, trace = theorem2_construct(T, f_basis, sp, epsilon=epsilon)
        T1 = T.embedded(sp, sp.labels["H1"])
        scale = max(1.0, block.operator_norm ** 2) ** 2
        for _ in range(5):
            x = random_combination(f_basis, rng)
            gap = ((block.apply(x) - T4.apply(x)).norm()
                   - trace.epsilon * (T1.apply(x) - x).norm())
            assert abs(gap) <= 1e-12 * (T.operator_norm + 1) * x.norm()
            assert abs(defect_form(block, x, 2)) <= 1e-8 * scale * x.norm() ** 2

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(1, 6), extra=st.integers(0, 3),
           n_frac=st.floats(0.0, 1.0), epsilon=epsilons,
           seed=st.integers(0, 2**32 - 1))
    def test_theorem1_distance_at_every_x(self, dim, extra, n_frac, epsilon,
                                          seed):
        rng = np.random.default_rng(seed)
        sp = prepare_space(dim)
        sp.allocate(extra)
        span = dim + extra  # F anywhere in the instantiated span
        n = 1 + int(n_frac * (span - 1))
        coeffs = rng.standard_normal((n, span)) + 1j * rng.standard_normal((n, span))
        f_basis = [sp.vector(c) for c in coeffs]
        block, trace = theorem1_construct(f_basis, sp, epsilon=epsilon)
        scale = max(1.0, block.operator_norm ** 2) ** 2
        for _ in range(5):
            x = random_combination(f_basis, rng)
            gap = (block.apply(x) - 2.0 * x).norm() - trace.epsilon * x.norm()
            assert abs(gap) <= 3e-12 * x.norm()
            assert abs(defect_form(block, x, 2)) <= 1e-8 * scale * x.norm() ** 2

    @pytest.mark.parametrize("theorem,dim,n", [(2, 6, 3), (2, 1, 1), (2, 4, 4),
                                               (1, 6, 3), (1, 1, 1), (1, 4, 4)])
    def test_capacity_at_the_edge(self, theorem, dim, n):
        # H2-H4 for Theorem 2, the two partner copies of F for Theorem 1:
        # the construction takes every coordinate of the budget
        capacity = 4 * dim if theorem == 2 else dim + 2 * n
        sp = prepare_space(dim, capacity=capacity)
        rng = np.random.default_rng(dim + n)
        coeffs = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        f_basis = [sp.vector(c, sp.labels["H1"]) for c in coeffs]
        if theorem == 2:
            T = expansive_generator(dim, "svd_random", seed=dim)
            block, target, trace = theorem2_construct(T, f_basis, sp)
            norm_T, T1 = T.operator_norm, T.embedded(sp, sp.labels["H1"])
        else:
            block, trace = theorem1_construct(f_basis, sp)
            target, norm_T, T1 = ScalarOperator(2.0), 2.0, ScalarOperator(2.0)
        assert sp.allocated == sp.capacity == capacity
        for _ in range(3):
            x = random_combination(f_basis, rng)
            gap = ((block.apply(x) - target.apply(x)).norm()
                   - trace.epsilon * (T1.apply(x) - x).norm())
            assert abs(gap) <= 1e-12 * (norm_T + 1) * x.norm()
        cert = certificate_evaluate(target, block, trace, f_basis,
                                    operator_norm_T=norm_T,
                                    bound_theoretical=trace.epsilon * (norm_T + 1))
        assert cert.ok
        state = block_state(block)
        with pytest.raises(CapacityExceeded):  # U and K span 2n < capacity
            block.apply(random_instantiated(sp, rng))
        assert_same_state(state, block)


class TestCertifiedObstruction:
    """The converse inclusion: an expansive B has ||Bx|| >= ||x||, so at a
    unit x every expansive B, every 2-isometry among them, stays at least
    1 - ||Tx|| away from T there.  `NotExpansive` states that bound at the
    witness, the bottom eigenvector of the compression of T*T to F."""

    def test_bound_stated_for_diagonal_contraction(self):
        T = DenseOperator(np.diag([0.5, 2.0, 3.0]))
        sp = prepare_space(3)
        with pytest.raises(NotExpansive) as info:
            theorem2_construct(T, standard_f_basis(sp, 2), sp)
        assert str(info.value) == ("image norm below 1: ||Tx|| = 0.5; every "
                                   "expansive B has ||(B - T(4))x|| >= 0.5 "
                                   "at this x")
        sp = prepare_space(3)  # F = span(e2, e3) misses the contraction
        theorem2_construct(T, [sp.basis_vector(1), sp.basis_vector(2)], sp)

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(2, 6), n_frac=st.floats(0.0, 1.0),
           small=st.floats(0.01, 0.99), seed=st.integers(0, 2**32 - 1))
    def test_stated_bound_is_the_compressions_and_holds(self, dim, n_frac,
                                                        small, seed):
        rng = np.random.default_rng(seed)
        left, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                               + 1j * rng.standard_normal((dim, dim)))
        right, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                                + 1j * rng.standard_normal((dim, dim)))
        sigma = np.r_[small, 1.0 + 3.0 * rng.random(dim - 1)]
        T = DenseOperator(left @ np.diag(sigma) @ np.conj(right.T))
        sp = prepare_space(dim)
        h1 = sp.labels["H1"]
        # F: the contracted direction mixed with random others, not aligned
        n = 2 + int(n_frac * (dim - 2))
        coeffs = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        coeffs[1] = right[:, 0]  # T right[:, 0] = small left[:, 0]
        f_basis = gram_schmidt([sp.vector(c, h1) for c in coeffs])
        with pytest.raises(NotExpansive) as info:
            theorem2_construct(T, f_basis, sp)
        stated = float(str(info.value).split(">= ")[1].split(" at")[0])

        T1 = T.embedded(sp, h1)
        images = np.array([T1.apply(f).coords for f in f_basis])
        lam, ev = np.linalg.eigh(np.conj(images) @ images.T)
        assert stated == pytest.approx(1.0 - np.sqrt(lam[0]), abs=1e-12)
        assert stated == pytest.approx(1.0 - small, abs=1e-9)

        block, _ = theorem1_construct(f_basis, sp)
        x = sum((c * f for c, f in zip(ev[:, 0], f_basis)), Vector(np.zeros(0), sp))
        assert x.norm() == pytest.approx(1.0, abs=1e-12)
        assert (block.apply(x) - T1.apply(x)).norm() >= stated - 1e-12

    CLOSURE = re.compile(r"closure: .* >= 1 - sigma_min = (\S+) at the unit "
                         r"right singular vector x of sigma_min")

    @settings(max_examples=25, deadline=None)
    @given(half=st.integers(1, 12), n_frac=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @example(half=8, n_frac=0.5, seed=3)
    def test_three_isometries_lie_outside_the_closure(self, tmp_path_factory,
                                                      half, n_frac, seed):
        # id + A, A 2-nilpotent, is a 3-isometry with sigma_min < 1: every
        # expansive B, every 2-isometry, stays 1 - sigma_min away at x
        dim = 2 * half
        T = three_isometry_from_nilpotent(random_2nilpotent(dim, seed=seed))
        _, sv, vh = np.linalg.svd(T.matrix)
        smin = sv[-1]
        assert smin < 1.0
        if (dim, seed) == (16, 3):
            assert smin == pytest.approx(0.1308273737, abs=1e-10)

        path = tmp_path_factory.mktemp("op") / "op.json"
        write_operator(path, T.matrix)
        out = io.StringIO()
        code = run_verify(RunConfig(command="verify", input_path=str(path)), out)
        lines = out.getvalue().splitlines()
        assert code == 1
        assert "(3-isometry: yes)" in lines[2] and "expansive: no" in lines[3]
        bound = float(self.CLOSURE.fullmatch(lines[4]).group(1))
        assert bound == pytest.approx(1.0 - smin, rel=1e-12)

        rng = np.random.default_rng(seed)
        sp = prepare_space(dim)
        h1 = sp.labels["H1"]
        n = 1 + int(n_frac * (dim - 1))
        coeffs = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        block, _ = theorem1_construct([sp.vector(c, h1) for c in coeffs], sp)
        x = sp.vector(vh[-1].conj(), h1)  # T x = sigma_min (unit vector)
        T1 = T.embedded(sp, h1)
        assert (block.apply(x) - T1.apply(x)).norm() >= 1.0 - smin - 1e-12


class TestNormLowerBound:
    """A 2-isometry close to T at x and at Tx must have a large norm.  With
    e1 = ||(B - T)x||, e2 = ||(B - T)Tx||, t1 = ||Tx||, t2 = ||T^2 x|| and
    D = |d2(T)(x)| - |d2(B)(x)| - 2 e1 (2 t1 + e1), D > 0 gives
    ||B|| >= (sqrt(t2^2 + D) - t2 - e2) / e1, since B^2 x - T^2 x =
    (B - T)Tx + B(B - T)x.  Here T stands for T^(4), F = H1."""

    @staticmethod
    def bound_terms(T, dim, seed):
        sp = prepare_space(dim)
        h1 = sp.labels["H1"]
        block, T4, _ = theorem2_construct(T, standard_f_basis(sp, dim), sp)
        T1 = T.embedded(sp, h1)
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        x = sp.vector(c / np.linalg.norm(c), h1)
        Tx = T1.apply(x)
        e1 = (block.apply(x) - T4.apply(x)).norm()
        e2 = (block.apply(Tx) - T4.apply(Tx)).norm()
        t1, t2 = Tx.norm(), T1.apply(Tx).norm()
        D = (abs(defect_form(T1, x, 2)) - abs(defect_form(block, x, 2))
             - 2 * e1 * (2 * t1 + e1))
        return block.operator_norm, e1, e2, t2, D

    @settings(max_examples=30, deadline=None)
    @given(family=st.sampled_from(["scalar", "svd_random", "id_plus_psd"]),
           dim=st.integers(4, 32), seed=st.integers(0, 2**32 - 1))
    def test_block_norm_is_at_least_the_bound(self, family, dim, seed):
        T = expansive_generator(dim, family, seed=seed)
        norm, e1, e2, t2, D = self.bound_terms(T, dim, seed)
        if family == "scalar":  # d2(2 id) = 9, e1 = eps = 1/dim
            assert D > 0
        if D > 0:
            assert norm * e1 >= np.sqrt(t2 ** 2 + D) - t2 - e2

    @pytest.mark.parametrize("dim,ratio", [(4, 6.0), (16, 2.1), (32, 1.9)])
    def test_bound_is_tight_for_twice_identity(self, dim, ratio):
        # ||B|| -> sqrt(3) n while the bound grows like n - 2
        norm, e1, e2, t2, D = self.bound_terms(
            expansive_generator(dim, "scalar"), dim, seed=dim)
        assert norm / ((np.sqrt(t2 ** 2 + D) - t2 - e2) / e1) == pytest.approx(
            ratio, abs=0.01)
