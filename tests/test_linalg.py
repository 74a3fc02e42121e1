import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isolab import AllVectorsNegligible, Vector, gram_matrix, gram_schmidt
from isolab.linalg import (RANK_TOL, CoefficientRows, add_images,
                           gram_residual, orthonormal_rows, products)
from isolab.spaces import as_rows

from conftest import make_space, vec


def reference_orthonormal_rows(rows, rank_tol=1e-10):
    """Classical Gram-Schmidt with one reorthogonalization (CGS2), row by
    row: (the orthonormal rows, the indices of the input rows kept)."""
    scale = np.linalg.norm(rows, axis=1).max()
    basis = np.zeros(rows.shape, dtype=np.complex128)
    kept = []
    for i, row in enumerate(rows):
        v = np.array(row, dtype=np.complex128)
        k = len(kept)
        for _ in range(2):
            v -= np.conj(basis[:k] @ np.conj(v)) @ basis[:k]
        r = np.linalg.norm(v)
        if r > rank_tol * scale:
            basis[k] = v / r
            kept.append(i)
    return basis[:len(kept)], kept


def subspace_rows(rng, n, dim, width):
    """n random complex combinations of an orthonormal basis of a random
    dim-dimensional subspace of C^width, aligned with no coordinate."""
    a = rng.standard_normal((width, dim)) + 1j * rng.standard_normal((width, dim))
    basis = np.linalg.qr(a)[0].T
    c = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return c @ basis


def assert_matches_reference(out, rows):
    """Same count as CGS2 and orthonormal to 1e-13; the rows are those of
    the rows CGS2 keeps, factored alone, and agree with CGS2's within
    1e-12 cond(kept rows): the condition of the rank-deficient input is
    infinite, so it would bound nothing."""
    ref, kept = reference_orthonormal_rows(rows)
    assert out.shape == ref.shape and out.dtype == np.complex128
    assert np.max(np.abs(np.conj(out) @ out.T - np.eye(len(out)))) <= 1e-13
    assert np.array_equal(out, orthonormal_rows(rows[kept]))
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.linalg.cond(rows[kept])


class TestHouseholderAgainstCGS2:
    """`orthonormal_rows` is one Householder QR of the rows it keeps, and
    it keeps CGS2's rows."""

    @settings(max_examples=60, deadline=None)
    @given(width=st.integers(1, 12), dim_frac=st.floats(0.0, 1.0),
           n=st.integers(1, 15), seed=st.integers(0, 2**32 - 1))
    def test_rows_of_a_subspace(self, width, dim_frac, n, seed):
        # n <= dim: full rank, one QR (n = width when dim = width);
        # n > dim, including n > width: dependent rows are dropped
        dim = 1 + int(dim_frac * (width - 1))
        rows = subspace_rows(np.random.default_rng(seed), n, dim, width)
        out = orthonormal_rows(rows)
        assert len(out) == min(n, dim)
        assert_matches_reference(out, rows)

    @settings(max_examples=40, deadline=None)
    @given(width=st.integers(2, 12), n=st.integers(2, 10),
           planted=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_planted_dependent_combinations(self, width, n, planted, seed):
        rng = np.random.default_rng(seed)
        n = min(n, width)
        rows = subspace_rows(rng, n, width, width)
        for _ in range(planted):  # a combination of the rows before it
            at = int(rng.integers(1, len(rows) + 1))
            c = rng.standard_normal(at) + 1j * rng.standard_normal(at)
            rows = np.insert(rows, at, c @ rows[:at], axis=0)
        out = orthonormal_rows(rows)
        assert len(out) == n
        assert_matches_reference(out, rows)

    @settings(max_examples=40, deadline=None)
    @given(dim_h=st.integers(1, 6), extra=st.integers(1, 6),
           n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_rows_past_h1(self, dim_h, extra, n, seed):
        sp = make_space(dim_h, capacity=4 * (dim_h + extra))
        sp.allocate(extra)
        width = dim_h + extra
        rows = subspace_rows(np.random.default_rng(seed), n, width, width)
        vectors = [sp.vector(r) for r in rows]
        out = as_rows(gram_schmidt(vectors), sp)
        assert out.shape[1] == width  # the outputs reach past H1 too
        assert_matches_reference(out, as_rows(vectors, sp))


class TestGramSchmidt:
    def test_already_orthogonal_rescaled(self):
        sp = make_space(2)
        out = gram_schmidt([vec(sp, [1, 0]), vec(sp, [0, 2])])
        np.testing.assert_allclose(out[0].coords[:2], [1, 0], atol=1e-15)
        np.testing.assert_allclose(out[1].coords[:2], [0, 1], atol=1e-15)

    def test_dependent_vector_dropped(self):
        sp = make_space(2)
        out = gram_schmidt([vec(sp, [1, 0]), vec(sp, [1, 0])])
        assert len(out) == 1
        np.testing.assert_allclose(out[0].coords[:2], [1, 0], atol=1e-15)

    def test_hand_computed_basis(self):
        # Gram-Schmidt of (1,1), (1,0) by hand
        sp = make_space(2)
        out = gram_schmidt([vec(sp, [1, 1]), vec(sp, [1, 0])])
        r = 1 / np.sqrt(2)
        np.testing.assert_allclose(out[0].coords[:2], [r, r], atol=1e-15)
        np.testing.assert_allclose(out[1].coords[:2], [r, -r], atol=1e-14)

    def test_all_zero_raises(self):
        sp = make_space(2)
        with pytest.raises(AllVectorsNegligible):
            gram_schmidt([vec(sp, [0, 0]), vec(sp, [0, 0])])

    def test_empty_raises(self):
        with pytest.raises(AllVectorsNegligible, match="no input vectors"):
            gram_schmidt([])

    @pytest.mark.parametrize("rank_tol", [RANK_TOL])
    @pytest.mark.parametrize("factor, kept", [(1.01, 2), (0.99, 1)])
    def test_dependent_at_the_rank_tol_edge(self, rank_tol, factor, kept):
        # (1, d) leaves residual d exactly; the largest input norm is
        # sqrt(1 + d^2), so the vector is kept iff d > rank_tol sqrt(1 + d^2)
        sp = make_space(2)
        d = factor * rank_tol
        out = gram_schmidt([vec(sp, [1, 0]), vec(sp, [1, d])])
        assert len(out) == kept

    def test_only_the_first_low_row_is_dropped_per_factorization(self):
        # the QR of e1, e1, e2 reads |R_kk| = 1, 0, 0; dropping every low
        # row at once would lose e2, which is independent of the e1 kept
        rows = np.eye(3, dtype=complex)[[0, 0, 1]]
        assert np.abs(np.diagonal(np.linalg.qr(rows.T)[1])).tolist() == [1, 0, 0]
        out = orthonormal_rows(rows)
        np.testing.assert_array_equal(np.abs(out), np.eye(3)[:2])
        assert_matches_reference(out, rows)

    def test_support_past_the_allocated_coordinates(self):
        sp = make_space(2, capacity=16)
        coords = np.zeros(16, dtype=complex)
        coords[[0, 9]] = [1, 1j]
        out = gram_schmidt([Vector(coords, sp), vec(sp, [1, 0])])
        r = 1 / np.sqrt(2)
        expected = np.zeros((2, 16), dtype=complex)
        expected[:, [0, 9]] = [[r, 1j * r], [r, -1j * r]]
        np.testing.assert_allclose([v.coords for v in out], expected,
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 8, 33, 64])
    def test_random_output_orthonormal(self, dim, rng):
        sp = make_space(dim)
        vecs = [vec(sp, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
                for _ in range(dim)]
        out = gram_schmidt(vecs)
        G = gram_matrix(out)
        assert np.max(np.abs(G - np.eye(len(out)))) <= 1e-10


class TestGramMatrix:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            gram_matrix([])

    def test_orthonormal_gives_identity(self):
        sp = make_space(3)
        basis = [sp.basis_vector(i) for i in range(3)]
        np.testing.assert_allclose(gram_matrix(basis), np.eye(3), atol=1e-15)

    def test_scaled_orthogonal(self):
        sp = make_space(2)
        G = gram_matrix([vec(sp, [2, 0]), vec(sp, [0, 3])])
        np.testing.assert_allclose(G, np.diag([4.0, 9.0]), atol=1e-15)

    def test_operator_images(self):
        # images of the standard basis under [[2,1],[0,2]]: Gram = T^H T
        sp = make_space(2)
        T = np.array([[2, 1], [0, 2]], dtype=complex)
        images = [vec(sp, T[:, j]) for j in range(2)]
        np.testing.assert_allclose(gram_matrix(images),
                                   [[4, 2], [2, 5]], atol=1e-15)


class TestCoefficientRows:
    """Products and images of rows in coefficient form against the dense
    rows they stand for, on copies with gaps between them."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
           d=st.integers(1, 6), gaps=st.lists(st.integers(0, 3), min_size=1,
                                              max_size=4))
    def test_against_the_dense_rows(self, seed, n, d, gaps):
        rng = np.random.default_rng(seed)
        starts = [int(s) for s in np.cumsum(gaps) + d * np.arange(len(gaps))]

        def rows(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        a, b = (CoefficientRows(rows((k, d)), rng.standard_normal((len(gaps), k)),
                                starts) for k in (n, n + 1))
        A, B = a.dense(), b.dense()
        assert A.shape == (n, starts[-1] + d)
        for j, s in enumerate(starts):  # copy j, and zeros between copies
            np.testing.assert_array_equal(A[:, s:s + d], a.C[j][:, None] * a.base)
            A[:, s:s + d] = 0
        assert not A.any()
        A = a.dense()
        K = rows((3, int(rng.integers(1, A.shape[1] + 3))))
        k = min(A.shape[1], K.shape[1])

        def close(got, want):
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-12 * max(1.0, np.abs(want).max()))

        close(products(a, b), A @ np.conj(B).T)
        close(products(a, K), A[:, :k] @ np.conj(K[:, :k]).T)
        close(products(a, CoefficientRows(K)), A[:, :k] @ np.conj(K[:, :k]).T)
        assert gram_residual(a) == pytest.approx(
            np.linalg.norm(A @ np.conj(A).T - np.eye(n)), rel=1e-12)
        for p in (rows(n), rows((2, n))):
            close(add_images(np.zeros(p.shape[:-1] + A.shape[1:], complex),
                             (p, a)), p @ A)

