import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isolab import (AllVectorsNegligible, AmbientSpace, BrownianBlock,
                    CapacityExceeded, ConstructionTrace, DenseOperator,
                    DomainMismatch, LazyIsometry, NotExpansive,
                    ScalarOperator, SubspaceNotContained, Vector,
                    certificate_evaluate, compressed_gram, defect_form,
                    diagonalizing_basis, direct_sum_power, expansive_generator,
                    gram_matrix, gram_schmidt, hermitian_eig,
                    prepare_space, split_pair, standard_f_basis,
                    theorem1_construct, theorem2_construct, translate)

from isolab.constructions import DEFECT_THRESHOLD
from isolab.spaces import padded

from conftest import make_space, second_split, theorem2_partner2, vec


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
        _, ev = hermitian_eig(compressed_gram(T1, x))
        x = [sum((ev[j, k] * x[j] for j in range(n)), space.zero())
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
        w = Vector(block.R.defined_outputs[i], trace.space)
        v = Vector(block._V[i], trace.space)
        assert (w - (1.0 / trace.norms_Tx[i]) * target.apply(z1[i])).norm() <= tol
        assert (v - trace.sigmas[i] * target.apply(z2[i])).norm() <= tol


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
                     block.R.defined_outputs[:, :m])
    return BrownianBlock(R, block._K[:, :m], block._V[:, :m])


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
    """The order-2 defect and the expansivity of `block` over its m
    instantiated coordinates, computed exactly from m x m Gram matrices, as
    (defect_max, expansivity_min): with (E1, r1) = _step(I_m) and
    (E2, r2) = _step(E1), B e_j is [E1 | r1] and B^2 e_j is [E2 | r2 | r1]
    up to isometries of the fresh coordinates.  defect_max is
    ||Gram(B^2 e_j) - 2 Gram(B e_j) + I||_2 / max(1, ||B||^2)^2 and
    expansivity_min the smallest eigenvalue of Gram(B e_j)."""
    b1 = np.hstack(block._step(np.eye(m, dtype=np.complex128)))
    b2 = np.hstack(block._step(b1[:, :m]) + (b1[:, m:],))
    gram1 = b1 @ np.conj(b1).T
    defect = b2 @ np.conj(b2).T - 2 * gram1 + np.eye(m)
    scale = max(1.0, block.operator_norm ** 2)
    return (float(np.abs(np.linalg.eigvalsh(defect)).max()) / scale ** 2,
            float(np.linalg.eigvalsh(gram1)[0]))


def assert_exact_within_structural(cert, block, m):
    """The exact defect and normalized expansivity deficit of `block` are at
    most the structural ones of its certificate, up to the reference's own
    rounding, 8 m u: where all seven residuals vanish (dim F = 1, eps = 1),
    the structural values are 0 and the m x m sums read a few u."""
    defect, expansivity = exact_certificate(block, m)
    rounding = 8 * m * np.finfo(float).eps
    assert defect <= cert.defect_max + rounding
    assert ((1.0 - expansivity) / max(1.0, block.operator_norm ** 2)
            <= 1.0 - cert.expansivity_min + rounding)


def block_state(block):
    """Everything the block and its space have instantiated, copied."""
    R = block.R
    return (block.space.allocated, R.defined_count,
            *(rows.copy() for rows in (R.defined_inputs, R.defined_outputs,
                                       block._K, block._V)))


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
        z1, z2 = second_split(trace.y1, trace.norms_Tx,
                              lambda v: sp.basis_vector(next(fresh)))
        eps = 1.0 / 3.0
        s = np.sqrt(1 - eps ** 2)
        for i in range(3):
            recon = s * trace.y1[i] + eps * trace.y2[i]
            assert (trace.x[i] - recon).norm() <= 1e-12
            recon2 = 0.5 * z1[i] + (np.sqrt(3) / 2) * z2[i]
            assert (trace.y1[i] - recon2).norm() <= 1e-12
        assert_block_holds_z_images(block, trace, ScalarOperator(2.0), z1, z2)
        G = gram_matrix(trace.y1 + trace.y2)
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
        for i in range(3):
            lhs = T4.apply(trace.x[i]) - block.apply(trace.x[i])
            rhs = eps * (T4.apply(trace.y2[i]) - trace.y2[i])
            assert (lhs - rhs).norm() <= 1e-9 * (T.operator_norm + 1)

    def test_step3_orthogonality(self):
        T = expansive_generator(8, "svd_random", seed=9)
        _, T4, trace, sp, _ = self.run(T, n=4)
        assert trace.orthogonality_max <= 1e-10 * T.operator_norm
        # the larger Frobenius norm of the overlaps of z1's and z2's images
        zs = second_split(trace.y1, trace.norms_Tx, theorem2_partner2(sp))
        overlaps = [np.linalg.norm([[T4.apply(u).inner(w) for w in trace.y2]
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
        for rows in (block.R.defined_outputs, block._V):
            assert rows.shape == (8, 1 + max(h[3]))
        for _ in range(3):  # extensions keep the storage on the allocated span
            block.apply(block.apply(sp.basis_vector(sp.allocated - 1)))
            for rows in (block.R.defined_inputs, block.R.defined_outputs,
                         block._K, block._V):
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
        # (5.53e6 and 12.35e6 with the z rows kept and [E | r] stacked)
        T = expansive_generator(128, "svd_random", seed=1)
        sp = prepare_space(128)
        f_basis = standard_f_basis(sp, 128)
        tracemalloc.start()
        try:
            block, T4, trace = theorem2_construct(T, f_basis, sp)
            retained = tracemalloc.get_traced_memory()[0]
            certificate_evaluate(T4, block, trace, f_basis,
                                 operator_norm_T=T.operator_norm,
                                 bound_theoretical=(T.operator_norm + 1) / 128)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 4.5e6
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
        assert block._V.shape == R.defined_outputs.shape == (n, 4 * d)
        if n < d:  # e_n lies in H1 off F: R stores its residual over H1, H2
            block.apply(sp.basis_vector(n))
            assert R.defined_inputs.shape == (n + 1, 2 * d)
            assert R.defined_outputs.shape == (n + 1, 4 * d + 1)

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
        z1, z2 = second_split(trace.y1, trace.norms_Tx, theorem2_partner2(sp))
        for i in range(2):
            a = 1.0 / trace.norms_Tx[i]
            b = np.sqrt(1 - a ** 2)
            recon = a * z1[i] + b * z2[i]
            assert (trace.y1[i] - recon).norm() <= 1e-12
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
        z1, z2 = second_split(trace.y1, trace.norms_Tx, theorem2_partner2(sp))
        np.testing.assert_array_equal(z1[i].prefix, trace.y1[i].prefix)
        assert_block_holds_z_images(block, trace, T4, z1, z2)
        np.testing.assert_array_equal(block._V[i], 0.0)
        np.testing.assert_allclose(
            np.linalg.norm(block.R.defined_outputs, axis=1), 1.0, atol=1e-15)
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
        defect, expansivity = exact_certificate(Scaled(block, 2.0), sp.allocated)
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
    U, W = block.R.defined_inputs, block.R.defined_outputs
    K, V = block._K, block._V
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

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(["svd_random", "id_plus_psd"]),
           dim=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           n_frac=st.floats(0.0, 1.0),
           delta=st.sampled_from([0.0, 1e-13, 1e-12, 1e-11]),
           extensions=st.integers(0, 2))
    def test_exact_within_structural_on_perturbed_blocks(
            self, family, dim, seed, n_frac, delta, extensions):
        # V moved along W by delta ||V||, on a random F not aligned with
        # the coordinates, with R extended before the certificate
        rng = np.random.default_rng(seed)
        T = expansive_generator(dim, family, seed=seed)
        n = 1 + int(n_frac * (dim - 1))
        sp = prepare_space(dim)
        coeffs = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        f_basis = [sp.vector(c, sp.labels["H1"]) for c in coeffs]
        block, T4, trace = theorem2_construct(T, f_basis, sp)
        W = block.R.defined_outputs
        moved = padded(block._V, W.shape[1]) + delta * block._vnorm * W
        perturbed = BrownianBlock(block.R, block._K, moved)
        for _ in range(extensions):
            defect_form(perturbed, random_instantiated(sp, rng), 2)
        cert = certificate_evaluate(T4, perturbed, trace, f_basis,
                                    operator_norm_T=T.operator_norm,
                                    bound_theoretical=(T.operator_norm + 1) / n)
        assert_exact_within_structural(cert, perturbed, sp.allocated)


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
            vectors = getattr(trace, name)
            assert len(vectors) == len(ref_vectors)
            for v, ref_v in zip(vectors, ref_vectors):
                np.testing.assert_allclose(v.coords, ref_v.coords,
                                           rtol=0, atol=1e-12)

        def stored(b):  # U, W, K, V: y1, z1's and z2's images, y2
            return [padded(a, sp.capacity) for a in (
                b.R.defined_inputs, b.R.defined_outputs, b._K, b._V)]

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
    return sum((cj * v for cj, v in zip(c, basis)), basis[0].space.zero())


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
