import numpy as np
import pytest

from isolab import (AllVectorsNegligible, NotHermitian, Vector, gram_matrix,
                    gram_schmidt, hermitian_eig)

from conftest import make_space, vec


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
        out = gram_schmidt([vec(sp, [1, 1]), vec(sp, [1, 0])], rank_tol=0.0)
        r = 1 / np.sqrt(2)
        np.testing.assert_allclose(out[0].coords[:2], [r, r], atol=1e-15)
        np.testing.assert_allclose(out[1].coords[:2], [r, -r], atol=1e-14)

    def test_all_zero_raises(self):
        sp = make_space(2)
        with pytest.raises(AllVectorsNegligible):
            gram_schmidt([vec(sp, [0, 0]), vec(sp, [0, 0])])

    def test_empty_raises(self):
        with pytest.raises(AllVectorsNegligible):
            gram_schmidt([])

    def test_negative_rank_tol_rejected(self):
        sp = make_space(2)
        with pytest.raises(ValueError, match="rank_tol"):
            gram_schmidt([vec(sp, [1, 0])], rank_tol=-1e-10)

    def test_every_vector_dropped_raises(self):
        # no residual exceeds the largest input norm, so rank_tol 1.5 drops all
        sp = make_space(2)
        with pytest.raises(AllVectorsNegligible, match="every vector dropped"):
            gram_schmidt([vec(sp, [1, 0]), vec(sp, [1, 1])], rank_tol=1.5)

    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-6])
    @pytest.mark.parametrize("factor, kept", [(1.01, 2), (0.99, 1)])
    def test_dependent_at_the_rank_tol_edge(self, rank_tol, factor, kept):
        # (1, d) leaves residual d exactly; the largest input norm is
        # sqrt(1 + d^2), so the vector is kept iff d > rank_tol sqrt(1 + d^2)
        sp = make_space(2)
        d = factor * rank_tol
        out = gram_schmidt([vec(sp, [1, 0]), vec(sp, [1, d])], rank_tol=rank_tol)
        assert len(out) == kept

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


class TestHermitianEig:
    def test_identity(self):
        w, V = hermitian_eig(np.eye(3))
        np.testing.assert_allclose(w, [1, 1, 1])
        np.testing.assert_allclose(np.conj(V.T) @ V, np.eye(3), atol=1e-12)

    def test_diagonal_sorted_descending(self):
        w, V = hermitian_eig(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(w, [9, 4])
        np.testing.assert_allclose(np.abs(V), [[0, 1], [1, 0]], atol=1e-12)

    def test_hand_characteristic_polynomial(self):
        # [[4,2],[2,5]]: lambda^2 - 9 lambda + 16 = 0
        w, _ = hermitian_eig(np.array([[4.0, 2.0], [2.0, 5.0]]))
        expected = [(9 + np.sqrt(17)) / 2, (9 - np.sqrt(17)) / 2]
        np.testing.assert_allclose(w, expected, atol=1e-12)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("dim", [2, 5, 17])
    def test_reconstruction(self, dim, rng):
        A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        M = A + np.conj(A.T)
        w, V = hermitian_eig(M)
        recon = V @ np.diag(w) @ np.conj(V.T)
        scale = np.max(np.abs(M))
        assert np.max(np.abs(M - recon)) <= 1e-9 * scale
        for k in range(dim):
            assert np.linalg.norm(M @ V[:, k] - w[k] * V[:, k]) <= 1e-9 * scale
