from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from isolab import (AmbientSpace, BrownianBlock, CapacityExceeded,
                    DenseOperator, DomainMismatch, LazyIsometry, NotNilpotent,
                    OddDimension, ScalarOperator, Vector, compressed_gram,
                    defect_form, direct_sum_power, expansive_generator,
                    gram_matrix, prepare_space, random_2nilpotent,
                    read_operator, standard_f_basis, theorem1_construct,
                    theorem2_construct, three_isometry_from_nilpotent,
                    write_operator)
from isolab.spaces import padded

from conftest import make_space, second_split, theorem2_partner2, vec


class FullCapacityIsometry:
    """Reference lazy isometry: U and W as m x capacity arrays, extended by
    stacking one row per fresh direction."""

    def __init__(self, space, inputs, outputs, extension_tol=1e-12):
        self.space, self.tol = space, extension_tol
        self.U = np.array([x.coords for x in inputs]).reshape(-1, space.capacity)
        self.W = np.array([y.coords for y in outputs]).reshape(-1, space.capacity)

    def apply(self, x):
        v = x.coords.copy()
        coeffs = np.zeros(len(self.U), dtype=np.complex128)
        for _ in range(2):
            c = np.conj(self.U) @ v
            v -= c @ self.U
            coeffs += c
        rnorm = np.linalg.norm(v)
        out = coeffs @ self.W
        if rnorm > self.tol * max(x.norm(), 1e-300):
            w_new = np.zeros(self.space.capacity, dtype=np.complex128)
            w_new[self.space.allocate(1)[0]] = 1.0
            out = out + rnorm * w_new
            self.U = np.vstack([self.U, v / rnorm])
            self.W = np.vstack([self.W, w_new])
        return Vector(out, self.space)


def support_width(coords):
    nonzero = np.flatnonzero(coords)
    return int(nonzero[-1]) + 1 if nonzero.size else 0


def reference_lazy_coords(R, x, xnorm):
    """R applied on coordinates by a projection loop of its own, the
    reference for `_project` and `_extended`: `x` lists a vector over a
    leading prefix, and the extension test is relative to `xnorm`."""
    k = R.defined_inputs.shape[1]
    U, W = R.defined_inputs, R.defined_outputs
    w = k + support_width(x[k:])  # x[:w] holds all of x
    v = np.zeros(w, dtype=np.complex128)
    v[:len(x)] = x[:w]
    coeffs = np.zeros(R.defined_count, dtype=np.complex128)
    for _ in range(2):
        c = np.conj(np.conj(v[:k]) @ U.T)
        v[:k] -= c @ U
        coeffs += c
    rnorm = float(np.linalg.norm(v))
    image = coeffs @ W
    if rnorm > R.extension_tol * max(xnorm, 1e-300):
        new_index = int(R.space.allocate(1)[0])
        w_new = np.zeros(new_index + 1, dtype=np.complex128)
        w_new[new_index] = 1.0
        R._append(v / rnorm, w_new)
        image = padded(image, new_index + 1)
        image[new_index] += rnorm
    return image


def reference_block_apply(block, x):
    """B x by the K/L split: x_K = P_K x goes to V x_K + x_K, and x_L to R
    through `reference_lazy_coords`, tested relative to ||x||.  Returns the
    image's capacity-long coordinates."""
    K, V = block._K, block._V
    coords = x.coords
    k = K.shape[1]
    c = np.conj(np.conj(coords[:k]) @ K.T)
    xK = c @ K
    xL = coords[:max(k, support_width(coords))].copy()
    xnorm = float(np.linalg.norm(xL))
    xL[:k] -= xK
    out = padded(reference_lazy_coords(block.R, xL, xnorm), x.space.capacity)
    out[:V.shape[1]] += c @ V
    out[:k] += xK
    return out


def twin_isometries(dim=3, capacity=40):
    """A LazyIsometry and the reference, each on its own space, same seeds."""
    pair = []
    for cls in (LazyIsometry, FullCapacityIsometry):
        sp = make_space(dim, capacity=capacity)
        pair.append((sp, cls(sp, [sp.basis_vector(0)], [sp.basis_vector(2)])))
    return pair


def on(space, coords):
    """The same coordinates as a vector of `space`."""
    return Vector(np.array(coords, dtype=np.complex128), space)


class TestDenseOperator:
    def test_plain_matrix_apply(self):
        T = DenseOperator([[2, 1], [0, 2]])
        np.testing.assert_allclose(T.apply([1, 0]), [2, 0])

    def test_attached_apply(self):
        sp = make_space(2)
        T = DenseOperator([[2, 1], [0, 2]], sp, sp.labels["H1"])
        out = T.apply(vec(sp, [1, 0]))
        np.testing.assert_allclose(out.coords[:2], [2, 0])

    def test_rejects_support_outside_domain(self):
        sp = make_space(2, capacity=4)
        sp.allocate(1)
        T = DenseOperator([[2, 1], [0, 2]], sp, sp.labels["H1"])
        with pytest.raises(DomainMismatch):
            T.apply(sp.basis_vector(2))

    @pytest.mark.parametrize("indices", [None, [0], [0, -1], [0, 4]],
                             ids=["none", "too-few", "negative", "past-capacity"])
    def test_attached_operator_needs_one_coordinate_per_column(self, indices):
        with pytest.raises(ValueError):
            DenseOperator(np.eye(2), make_space(2, capacity=4), indices)

    def test_operator_norm_is_largest_singular_value(self, rng):
        M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert DenseOperator(M).operator_norm == pytest.approx(
            np.linalg.svd(M, compute_uv=False).max())


class TestLazyIsometry:
    def test_defined_span_is_linear(self):
        sp = make_space(2, capacity=8)
        sp.allocate(2)
        R = LazyIsometry(sp, inputs=[sp.basis_vector(0), sp.basis_vector(1)],
                         outputs=[sp.basis_vector(2), sp.basis_vector(3)])
        x = vec(sp, [3, 4j])
        out = R.apply(x)
        assert out.norm() == pytest.approx(x.norm())
        np.testing.assert_allclose(out.coords[2:4], [3, 4j])
        assert R.defined_count == 2

    def test_fresh_direction_gets_fresh_coordinate(self):
        sp = make_space(1, capacity=4)
        R = LazyIsometry(sp)
        x = 2.0 * sp.basis_vector(0)
        out = R.apply(x)
        assert out.norm() == pytest.approx(2.0)
        assert abs(out.coords[1]) == pytest.approx(2.0)  # coordinate 1 is fresh

    def test_half_defined_superposition(self):
        # (v1 + v2)/sqrt(2) with v1 defined, v2 fresh: image (w1 + w2)/sqrt(2)
        sp = make_space(2, capacity=8)
        sp.allocate(1)
        w1 = sp.basis_vector(2)
        R = LazyIsometry(sp, inputs=[sp.basis_vector(0)], outputs=[w1])
        x = (sp.basis_vector(0) + sp.basis_vector(1)) * (1 / np.sqrt(2))
        out = R.apply(x)
        assert out.norm() == pytest.approx(1.0)
        assert w1.inner(out) == pytest.approx(1 / np.sqrt(2))
        W = R.defined_outputs
        G = np.conj(W) @ W.T
        assert np.max(np.abs(G - np.eye(2))) <= 1e-12

    def test_inner_products_preserved(self, rng):
        sp = make_space(4, capacity=32)
        R = LazyIsometry(sp)
        for _ in range(20):
            a = vec(sp, rng.standard_normal(4) + 1j * rng.standard_normal(4))
            b = vec(sp, rng.standard_normal(4) + 1j * rng.standard_normal(4))
            lhs = R.apply(a).inner(R.apply(b))
            rhs = a.inner(b)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_capacity_exceeded(self):
        sp = make_space(2, capacity=2)
        R = LazyIsometry(sp)
        with pytest.raises(CapacityExceeded):
            R.apply(sp.basis_vector(0))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["span", "newest", "defined",
                                               "allocate"]),
                              st.integers(0, 2**32 - 1)),
                    max_size=30))
    def test_matches_full_capacity_reference(self, ops):
        (sp, R), (ref_sp, ref) = twin_isometries()
        for kind, seed in ops:
            rng = np.random.default_rng(seed)
            if kind == "allocate":
                count = int(rng.integers(1, 4))
                if sp.allocated + count <= sp.capacity:
                    sp.allocate(count)
                    ref_sp.allocate(count)
                continue
            coords = np.zeros(sp.capacity, dtype=np.complex128)
            if kind == "newest":
                coords[sp.allocated - 1] = 1.0
            else:
                m = sp.allocated if kind == "span" else len(ref.U)
                c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                coords[:sp.allocated] = (c if kind == "span"
                                         else c @ ref.U)[:sp.allocated]
            try:
                expected = ref.apply(on(ref_sp, coords))
            except CapacityExceeded:
                with pytest.raises(CapacityExceeded):
                    R.apply(on(sp, coords))
                continue
            image = R.apply(on(sp, coords))
            assert (R.defined_count, sp.allocated) == (len(ref.U), ref_sp.allocated)
            np.testing.assert_allclose(image.coords, expected.coords,
                                       rtol=0, atol=1e-12 * np.linalg.norm(coords))

    def test_support_allocated_after_the_buffers_grew(self, rng):
        (sp, R), (ref_sp, ref) = twin_isometries()
        R.apply(sp.basis_vector(1))
        ref.apply(ref_sp.basis_vector(1))
        stored = R.defined_inputs.shape[1]
        for space in (sp, ref_sp):
            space.allocate(6)
        coords = np.zeros(sp.capacity, dtype=np.complex128)
        coords[[0, stored + 2, sp.allocated - 1]] = rng.standard_normal(3)
        image = R.apply(on(sp, coords))
        np.testing.assert_allclose(image.coords, ref.apply(on(ref_sp, coords)).coords,
                                   rtol=0, atol=1e-12)
        assert (R.defined_count, sp.allocated) == (3, ref_sp.allocated)
        assert image.norm() == pytest.approx(np.linalg.norm(coords))

    def test_support_past_the_allocated_coordinates_extends(self):
        # a hand-built vector may carry coordinates not allocated yet
        (sp, R), (ref_sp, ref) = twin_isometries()
        coords = np.zeros(sp.capacity, dtype=np.complex128)
        coords[[1, sp.allocated + 5]] = [0.6, 0.8j]
        image = R.apply(on(sp, coords))
        np.testing.assert_allclose(image.coords, ref.apply(on(ref_sp, coords)).coords,
                                   rtol=0, atol=1e-12)
        assert (R.defined_count, sp.allocated) == (2, 4)
        assert abs(image.coords[3]) == pytest.approx(1.0)
        again = R.apply(on(sp, coords))  # now in the defined span
        assert R.defined_count == 2
        np.testing.assert_allclose(again.coords, image.coords, atol=1e-15)

    def test_capacity_exceeded_leaves_the_isometry_unchanged(self):
        sp = make_space(4, capacity=4)
        R = LazyIsometry(sp, inputs=[sp.basis_vector(0)],
                         outputs=[sp.basis_vector(3)])
        before = (R.defined_count, sp.allocated, R.defined_inputs.copy(),
                  R.defined_outputs.copy())
        with pytest.raises(CapacityExceeded):
            R.apply(vec(sp, [1, 1j]))
        assert (R.defined_count, sp.allocated) == before[:2]
        np.testing.assert_array_equal(R.defined_inputs, before[2])
        np.testing.assert_array_equal(R.defined_outputs, before[3])
        out = R.apply(2j * sp.basis_vector(0))
        np.testing.assert_allclose(out.coords, [0, 0, 0, 2j], atol=1e-15)

    def test_rejects_non_orthonormal_seed(self):
        sp = make_space(2, capacity=8)
        with pytest.raises(ValueError):
            LazyIsometry(sp, inputs=[vec(sp, [1, 1])],
                         outputs=[sp.basis_vector(0)])


class TestBrownianBlock:
    def test_identity_block(self):
        # V = 0, K the whole instantiated span: B acts as the identity
        sp = make_space(2)
        basis = [sp.basis_vector(0), sp.basis_vector(1)]
        B = BrownianBlock(LazyIsometry(sp), K_basis=basis,
                          V_images=[sp.zero(), sp.zero()])
        x = vec(sp, [1, 2j])
        np.testing.assert_allclose(B.apply(x).coords, x.coords, atol=1e-14)
        assert B.operator_norm == pytest.approx(1.0)

    def test_hypothesis_violation_rejected(self):
        # V image parallel to a defined R output
        sp = make_space(2, capacity=8)
        sp.allocate(2)
        R = LazyIsometry(sp, inputs=[sp.basis_vector(2)],
                         outputs=[sp.basis_vector(3)])
        with pytest.raises(ValueError):
            BrownianBlock(R, K_basis=[sp.basis_vector(0)],
                          V_images=[sp.basis_vector(3)])

    def test_row_arrays_build_the_same_block(self, rng):
        blocks = []
        for as_rows in (False, True):
            sp = make_space(3, capacity=12)
            K, V = [sp.basis_vector(0)], [2 * sp.basis_vector(1)]
            U, W = [sp.basis_vector(1)], [sp.basis_vector(2)]
            if as_rows:  # rows over the allocated prefix, zeros included
                K, V, U, W = (np.array([v.coords[:3] for v in vs])
                              for vs in (K, V, U, W))
            blocks.append((sp, BrownianBlock(LazyIsometry(sp, U, W), K, V)))
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        (sp, B), (sp_rows, B_rows) = blocks
        for _ in range(2):  # the first application extends R
            x, x_rows = vec(sp, c), vec(sp_rows, c)
            image = B_rows.apply(x_rows)
            np.testing.assert_array_equal(x_rows.coords, x.coords)
            np.testing.assert_allclose(image.coords, B.apply(x).coords,
                                       rtol=0, atol=1e-15)
            assert sp_rows.allocated == sp.allocated
        for bad in (np.full((1, 3), np.nan), np.zeros(3), np.zeros((1, 13))):
            with pytest.raises(ValueError):
                LazyIsometry(sp, bad, bad)

    def test_corner_vector_does_not_extend_r(self, rng):
        # dim H = 1 and F = span(c e_0) fill the footprint dim H + 2 = 3;
        # y2 spans K and its L-part is roundoff, which must not cost R a
        # fresh coordinate (nor, at this capacity, raise CapacityExceeded)
        for _ in range(50):
            sp = AmbientSpace(3)
            sp.allocate(1, label="H1")
            c = complex(*rng.standard_normal(2))
            block, trace = theorem1_construct([vec(sp, [c])], sp)
            assert sp.allocated == 3
            y2 = trace.y2[0]
            image = block.apply(y2)
            assert sp.allocated == 3
            assert image.norm() == pytest.approx(block.operator_norm * y2.norm())


    @settings(max_examples=80, deadline=None)
    @given(theorem=st.sampled_from([1, 2]), dim=st.integers(1, 4),
           n_frac=st.floats(0, 1), slack=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1),
           ops=st.lists(st.sampled_from(["span", "K", "defined", "newest",
                                         "past"]), min_size=1, max_size=10))
    @example(theorem=1, dim=1, n_frac=0.0, slack=0, seed=0,
             ops=["K", "K", "span", "newest"])
    def test_matches_the_split_reference(self, theorem, dim, n_frac, slack,
                                         seed, ops):
        # twin blocks, one applied by `apply`, one by the reference, from
        # a construction at the edge of its capacity (at dim 1, theorem 1
        # and no slack, F = span(c e_0) fills the capacity 3)
        rng = np.random.default_rng(seed)
        n = 1 + int(n_frac * (dim - 1))
        coeffs = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        T = expansive_generator(dim, "svd_random", seed=seed)
        capacity = dim + (2 * n if theorem == 1 else 3 * dim) + slack
        twins = []
        for _ in range(2):
            sp = make_space(dim, capacity=capacity)
            f_basis = [sp.vector(c) for c in coeffs]
            block = (theorem1_construct(f_basis, sp)[0] if theorem == 1
                     else theorem2_construct(T, f_basis, sp)[0])
            twins.append((sp, block))
        (sp, block), (ref_sp, ref) = twins
        for kind in ops:
            m = sp.allocated
            coords = np.zeros(capacity, dtype=np.complex128)
            if kind == "newest":
                coords[m - 1] = 1.0
            elif kind == "past" and m < capacity:  # support not allocated yet
                coords[:m] = rng.standard_normal(m)
                coords[int(rng.integers(m, capacity))] = 1j
            else:
                rows = {"K": ref._K, "defined": ref.R.defined_inputs}.get(
                    kind, np.eye(m))
                c = rng.standard_normal(len(rows)) + 1j * rng.standard_normal(
                    len(rows))
                coords[:rows.shape[1]] = c @ rows
            try:
                want = reference_block_apply(ref, Vector(coords, ref_sp))
            except CapacityExceeded:
                with pytest.raises(CapacityExceeded):
                    block.apply(Vector(coords, sp))
            else:
                image = block.apply(Vector(coords, sp))
                np.testing.assert_allclose(
                    image.coords, want, rtol=0,
                    atol=1e-12 * max(np.linalg.norm(coords), 1e-300))
            assert (sp.allocated, block.R.defined_count) == (
                ref_sp.allocated, ref.R.defined_count)


    @pytest.mark.parametrize("factor", [10.0, 0.1],
                             ids=["above-threshold", "below-threshold"])
    @pytest.mark.parametrize("which", ["lazy", "block"])
    def test_extension_threshold_matches_the_two_pass_reference(
            self, rng, factor, which):
        # x = u + delta e_fresh, u in R's defined span and delta = factor *
        # extension_tol * ||x||: one projection pass, plus a second on a
        # kept residual, extends exactly when the two-pass reference does
        coeffs = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        T = expansive_generator(6, "svd_random", seed=4)
        grow = rng.standard_normal((4, 24)) + 1j * rng.standard_normal((4, 24))
        twins = []
        for _ in range(2):
            sp = make_space(6, capacity=200)
            block = theorem2_construct(T, [sp.vector(c) for c in coeffs], sp)[0]
            for g in grow:  # the same extensions on both twins
                block.apply(sp.vector(g))
            twins.append((sp, block))
        (sp, block), (ref_sp, ref) = twins
        c = rng.standard_normal(block.R.defined_count) * (1 + 1j)
        u = c @ block.R.defined_inputs
        fresh = int(sp.allocate(1)[0])
        assert int(ref_sp.allocate(1)[0]) == fresh
        coords = np.zeros(fresh + 1, dtype=np.complex128)
        coords[:len(u)] = u
        coords[fresh] = factor * block.R.extension_tol * np.linalg.norm(u)
        xnorm = np.linalg.norm(coords)
        count = block.R.defined_count
        if which == "lazy":
            image = block.R.apply(Vector(coords, sp)).coords
            want = padded(reference_lazy_coords(ref.R, coords, xnorm),
                          sp.capacity)
        else:
            image = block.apply(Vector(coords, sp)).coords
            want = reference_block_apply(ref, Vector(coords, ref_sp))
        np.testing.assert_allclose(image, want, rtol=0, atol=1e-12 * xnorm)
        assert (sp.allocated, block.R.defined_count) == (
            ref_sp.allocated, ref.R.defined_count)
        assert block.R.defined_count == count + (factor > 1)

    @pytest.mark.parametrize("theorem, n", [(2, 8), (1, 32)],
                             ids=["theorem2", "theorem1"])
    def test_stored_rows_stay_orthonormal_through_many_extensions(
            self, theorem, n):
        # 300 order-2 forms, 600 applications: every 10th x is the newest
        # coordinate, the others random over the instantiated ones, so R
        # stores hundreds of rows; they must stay orthonormal (each gets
        # two projection passes) for B to stay a 2-isometry
        rng = np.random.default_rng(9301)
        dim_h = 16 if theorem == 2 else n
        sp = prepare_space(dim_h)
        f_basis = standard_f_basis(sp, n)
        if theorem == 2:
            T = expansive_generator(dim_h, "svd_random", seed=5)
            block = theorem2_construct(T, f_basis, sp)[0]
        else:
            block = theorem1_construct(f_basis, sp)[0]
        scale = max(1.0, block.operator_norm ** 2) ** 2
        start = block.R.defined_count
        worst = 0.0
        for k in range(300):
            if k % 10 == 0:
                x = sp.basis_vector(sp.allocated - 1)
            else:
                m = sp.allocated
                x = sp.vector(rng.standard_normal(m) + 1j * rng.standard_normal(m))
            worst = max(worst, abs(defect_form(block, x, 2))
                        / (scale * x.norm() ** 2))
        assert block.R.defined_count > start + 300
        assert worst <= 1e-12
        for M in (block.R.defined_inputs, block.R.defined_outputs):
            drift = np.max(np.abs(np.conj(M) @ M.T - np.eye(len(M))))
            assert drift <= 1e-12


class TestDefectForm:
    def test_identity_order2(self):
        B = ScalarOperator(1.0)
        assert defect_form(B, np.array([1.0, 2.0]), 2) == pytest.approx(0.0)

    def test_twice_identity_hand_value(self):
        # 1 - 2*4 + 16 = 9 on a unit vector
        B = ScalarOperator(2.0)
        assert defect_form(B, np.array([1.0]), 2) == pytest.approx(9.0)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.sampled_from([1, 2, 3]), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_vector_form_is_the_defect_operators_form(self, dim, m, scalar,
                                                      seed):
        # <beta_m x, x>, beta_m = sum_k (-1)^(m-k) C(m, k) B*^k B^k
        rng = np.random.default_rng(seed)

        def gauss(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        M = np.eye(dim) * gauss(1)[0] if scalar else gauss(dim, dim)
        B = ScalarOperator(M[0, 0]) if scalar else DenseOperator(M)
        x = gauss(dim)
        x /= np.linalg.norm(x)
        powers = [np.linalg.matrix_power(M, k) for k in range(m + 1)]
        beta = sum((-1) ** (m - k) * comb(m, k) * np.conj(P.T) @ P
                   for k, P in enumerate(powers))
        form = defect_form(B, x, m)
        assert isinstance(form, float)
        tol = 1e-12 * max(1.0, np.linalg.norm(M, 2) ** 2) ** m
        assert abs(form - np.vdot(x, beta @ x).real) <= tol

    def test_isometry_order1(self, rng):
        sp = make_space(3, capacity=16)
        R = LazyIsometry(sp)
        for _ in range(5):
            x = vec(sp, rng.standard_normal(3))
            assert abs(defect_form(R, x, 1)) <= 1e-10 * x.norm() ** 2


class TestCompressedGram:
    def test_identity(self):
        sp = make_space(3)
        S = [sp.basis_vector(i) for i in range(3)]
        np.testing.assert_allclose(compressed_gram(ScalarOperator(1.0), S),
                                   np.eye(3), atol=1e-15)

    def test_hand_product(self):
        sp = make_space(2)
        T = DenseOperator([[2, 1], [0, 2]], sp, sp.labels["H1"])
        S = [sp.basis_vector(0), sp.basis_vector(1)]
        np.testing.assert_allclose(compressed_gram(T, S),
                                   [[4, 2], [2, 5]], atol=1e-14)


class TestDirectSumPower:
    def test_one_dim_doubled(self):
        out = direct_sum_power(DenseOperator([[2.0]]), 2)
        np.testing.assert_allclose(out.matrix, np.diag([2.0, 2.0]))

    def test_identity_power_four(self):
        out = direct_sum_power(DenseOperator(np.eye(3)), 4)
        np.testing.assert_allclose(out.matrix, np.eye(12))

    def test_norm_preserved(self, rng):
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        T = DenseOperator(M)
        assert direct_sum_power(T, 4).operator_norm == pytest.approx(
            T.operator_norm)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6), k=st.sampled_from([2, 4]),
           gaps=st.lists(st.integers(0, 3), min_size=5, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_copywise_application_matches_the_dense_matrix(self, d, k, gaps,
                                                           seed):
        # the k copies lie on labels with gaps between them, listed in a
        # random order; one more coordinate past them is off the domain
        rng = np.random.default_rng(seed)
        T = DenseOperator(rng.standard_normal((d, d))
                          + 1j * rng.standard_normal((d, d)))
        sp = AmbientSpace(k * d + sum(gaps) + 1)
        copies = []
        for gap in gaps[:k]:
            sp.allocate(gap)
            copies.append(sp.allocate(d))
        outside = int(sp.allocate(1)[0])
        indices = np.concatenate([copies[j] for j in rng.permutation(k)])
        Tk = direct_sum_power(T, k, sp, indices)
        dense = np.zeros((k * d, k * d), dtype=np.complex128)
        for j in range(k):
            dense[j * d:(j + 1) * d, j * d:(j + 1) * d] = T.matrix
        np.testing.assert_array_equal(Tk.matrix, dense)

        coeffs = (rng.standard_normal((3, k * d))
                  + 1j * rng.standard_normal((3, k * d)))
        coeffs /= np.linalg.norm(coeffs, axis=1)[:, None]
        rows = np.zeros((3, sp.allocated), dtype=np.complex128)
        rows[:, indices] = coeffs
        expected = np.zeros_like(rows)
        expected[:, indices] = coeffs @ dense.T
        tol = 1e-14 * T.operator_norm
        assert np.abs(Tk._apply_rows(rows) - expected).max() <= tol
        for r, e in zip(rows, expected):
            image = Tk.apply(Vector(r, sp))
            assert np.abs(padded(image.prefix, len(e)) - e).max() <= tol
        assert np.abs(Tk.apply(coeffs.T) - dense @ coeffs.T).max() <= tol
        assert np.abs(Tk.apply(coeffs[0]) - dense @ coeffs[0]).max() <= tol
        assert Tk.operator_norm == T.operator_norm

        off = rows.copy()
        off[0, outside] = 1.0
        with pytest.raises(DomainMismatch):
            Tk._apply_rows(off)
        with pytest.raises(DomainMismatch):
            Tk.apply(sp.basis_vector(outside))

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 6), k=st.sampled_from([2, 4]),
           lead=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_contiguous_and_permuted_copies_agree(self, d, k, lead, seed):
        # the same k copies on one contiguous run, listed in order (a slice
        # selects them) and in reverse (an index array does): equal images,
        # and the same verdict on rows with parts off the run on either side
        rng = np.random.default_rng(seed)
        T = DenseOperator(rng.standard_normal((d, d))
                          + 1j * rng.standard_normal((d, d)))
        sp = AmbientSpace(lead + k * d + 1)
        sp.allocate(lead)
        copies = [sp.allocate(d) for _ in range(k)]
        after = int(sp.allocate(1)[0])
        run = direct_sum_power(T, k, sp, np.concatenate(copies))
        permuted = direct_sum_power(T, k, sp, np.concatenate(copies[::-1]))
        assert isinstance(run._sel, slice)
        assert isinstance(permuted._sel, np.ndarray)

        rows = np.zeros((3, sp.allocated), dtype=np.complex128)
        rows[:, lead:after] = (rng.standard_normal((3, k * d))
                               + 1j * rng.standard_normal((3, k * d)))
        tol = 1e-14 * T.operator_norm * np.linalg.norm(rows, axis=1).max()
        image = run._apply_rows(rows)
        assert np.abs(image - permuted._apply_rows(rows)).max() <= tol
        assert np.abs(image[:, :lead]).max(initial=0) == 0
        assert np.abs(image[:, after:]).max(initial=0) == 0
        assert np.abs(image[:, lead:after] - run.apply(rows[:, lead:after].T).T
                      ).max() <= tol

        for col in ([after] if lead == 0 else [0, after]):
            for size, raises in ((1e-12, False), (1e-9, True), (1.0, True)):
                off = rows.copy()
                off[1, col] = size * np.linalg.norm(rows[1])
                for op in (run, permuted):
                    if raises:
                        with pytest.raises(DomainMismatch):
                            op._apply_rows(off)
                    else:  # below 1e-10 relative: dropped from the image
                        assert np.abs(op._apply_rows(off) - image).max() <= tol


@pytest.mark.parametrize("build, message", [
    (lambda sp: DenseOperator([1.0, 2.0]), "2-d"),
    (lambda sp: LazyIsometry(sp, inputs=[sp.basis_vector(0)], outputs=[]),
     "equal length"),
    (lambda sp: BrownianBlock(LazyIsometry(sp), K_basis=[sp.basis_vector(0)],
                              V_images=[]), "equal length"),
    (lambda sp: BrownianBlock(LazyIsometry(sp), K_basis=[vec(sp, [1, 1])],
                              V_images=[sp.zero()]), "not orthonormal"),
    (lambda sp: direct_sum_power(DenseOperator(np.eye(2)), 3), "k must be"),
    (lambda sp: direct_sum_power(DenseOperator(np.ones((2, 3))), 2),
     "square"),
    (lambda sp: defect_form(ScalarOperator(2.0), np.ones(2), 0), "m must be"),
], ids=["1-d-matrix", "lazy-unequal-lengths", "block-unequal-lengths",
        "non-orthonormal-k", "power-three", "non-square-power", "order-zero"])
def test_malformed_arguments_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build(make_space(2, capacity=8))


@pytest.mark.parametrize("build", [
    lambda sp: DenseOperator(np.eye(2), sp, sp.labels["H1"]),
    lambda sp: LazyIsometry(sp),
    lambda sp: BrownianBlock(LazyIsometry(sp), [sp.basis_vector(0)],
                             [sp.zero()]),
], ids=["dense", "lazy", "block"])
def test_vector_of_another_space_rejected(build):
    op = build(make_space(2, capacity=8))
    with pytest.raises(DomainMismatch):
        op.apply(make_space(2, capacity=8).basis_vector(0))


def test_cached_norms_are_fresh_norms(rng):
    # every Vector a constructor or an operator returns caches the norm
    # a fresh sum over its prefix gives
    sp = prepare_space(3)
    f_basis = standard_f_basis(sp, 2)
    T = expansive_generator(3, "svd_random", seed=2)
    block, T4, trace = theorem2_construct(T, f_basis, sp)
    R = LazyIsometry(sp, [sp.basis_vector(0)], [sp.basis_vector(1)])
    u = sp.vector(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    w = sp.vector([2.0, -1j], indices=[7, 4])
    made = [u, w, sp.basis_vector(5), sp.zero(), Vector(np.zeros(4), sp),
            u + w, u - w, 2.5j * u, u * 3, -w, T4.apply(w),
            T.embedded(sp, sp.labels["H1"]).apply(u), R.apply(u),
            block.apply(u), block.apply(block.apply(w)), *trace.y2,
            *second_split(trace.y1, trace.norms_Tx, theorem2_partner2(sp))[1]]
    for v in made:
        assert v.norm() == np.sqrt(np.vdot(v.prefix, v.prefix).real)


class TestNilpotents:
    def test_canonical_shift(self):
        A = np.array([[0, 1], [0, 0]], dtype=complex)
        B = three_isometry_from_nilpotent(DenseOperator(A))
        np.testing.assert_allclose(B.matrix, [[1, 1], [0, 1]])

    def test_square_exactly_zero(self):
        for seed in range(5):
            A = random_2nilpotent(8, seed)
            assert np.max(np.abs(A.matrix @ A.matrix)) == 0.0

    def test_rank_bound(self):
        A = random_2nilpotent(4, seed=3)
        assert np.linalg.matrix_rank(A.matrix) <= 2
        assert np.max(np.abs(A.matrix @ A.matrix)) == 0.0

    def test_odd_dimension(self):
        with pytest.raises(OddDimension):
            random_2nilpotent(3, seed=0)

    def test_not_nilpotent(self):
        with pytest.raises(NotNilpotent):
            three_isometry_from_nilpotent(DenseOperator(np.eye(2)))

    def test_zero_nilpotent_gives_identity(self):
        B = three_isometry_from_nilpotent(DenseOperator(np.zeros((2, 2))))
        x = np.array([1.0, 1.0])
        assert defect_form(B, x, 2) == pytest.approx(0.0)
        assert defect_form(B, x, 3) == pytest.approx(0.0)

    def test_hand_order3_defect(self):
        # B = [[1,1],[0,1]], x = (0,1): norms^2 are 1, 2, 5, 10
        B = three_isometry_from_nilpotent(
            DenseOperator(np.array([[0, 1], [0, 0]], dtype=complex)))
        x = np.array([0.0, 1.0])
        d3 = defect_form(B, x, 3)
        assert d3 == pytest.approx(-1 + 3 * 2 - 3 * 5 + 10, abs=1e-12)

    def test_random_nilpotents_are_3_isometries(self, rng):
        for seed, dim in ((0, 4), (1, 16), (2, 32)):
            B = three_isometry_from_nilpotent(random_2nilpotent(dim, seed))
            scale = max(1.0, B.operator_norm ** 2) ** 3
            for _ in range(50):
                x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                x /= np.linalg.norm(x)
                assert abs(defect_form(B, x, 3)) <= 1e-9 * scale


class TestOperatorFile:
    def test_round_trip(self, tmp_path, rng):
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        path = tmp_path / "op.json"
        write_operator(path, M)
        np.testing.assert_array_equal(read_operator(path), M)

    def test_entry_count_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]}')
        with pytest.raises(ValueError):
            read_operator(path)
