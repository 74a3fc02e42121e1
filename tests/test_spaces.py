import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isolab import AmbientSpace, Vector

from conftest import make_space


def gauss(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestVector:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
           st.integers(0, 2**32 - 1))
    def test_prefix_and_capacity_long_arrays_agree(self, wa, wb, extra, seed):
        # a support of width w given as w entries, w + extra entries (a
        # zero tail) or the whole capacity: one vector, stored at width w
        rng = np.random.default_rng(seed)
        space = AmbientSpace(12)
        a, b = gauss(rng, wa), gauss(rng, wb)
        t = complex(*rng.standard_normal(2))

        def laid_out(x, width):
            out = np.zeros(width, dtype=np.complex128)
            out[:len(x)] = x
            return out
        va = [Vector(laid_out(a, w), space) for w in (wa, wa + extra, 12)]
        vb = [Vector(laid_out(b, w), space) for w in (wb, wb + extra, 12)]
        for u in va:
            assert len(u.prefix) == wa
            np.testing.assert_array_equal(u.coords, va[2].coords)
            assert u.norm() == pytest.approx(va[2].norm(), rel=1e-15)
            np.testing.assert_array_equal((u * t).coords, (va[2] * t).coords)
            np.testing.assert_array_equal((t * u).coords, (va[2] * t).coords)
            np.testing.assert_array_equal((-u).coords, -va[2].coords)
            for v in vb:
                assert u.inner(v) == pytest.approx(va[2].inner(vb[2]),
                                                   rel=1e-15, abs=1e-300)
                np.testing.assert_array_equal((u + v).coords,
                                              va[2].coords + vb[2].coords)
                np.testing.assert_array_equal((u - v).coords,
                                              va[2].coords - vb[2].coords)
        assert len((va[0] - va[2]).prefix) == 0

    @pytest.mark.parametrize("coords", [
        np.ones(13), np.ones((1, 4)), np.array([1.0, np.nan]),
        np.array([np.inf, 0.0]), np.array([0.0, 1j * np.inf])],
        ids=["too-long", "2-d", "nan", "inf", "complex-inf"])
    def test_rejects_bad_arrays(self, coords):
        with pytest.raises(ValueError):
            Vector(coords, AmbientSpace(12))


class TestAmbientSpace:
    def test_vector_rejects_negative_indices(self):
        space = AmbientSpace(8)
        space.allocate(2)
        with pytest.raises(ValueError):
            space.vector([1.0], [-1])
        with pytest.raises(ValueError):
            space.vector([1.0, 2.0], [0, -8])
        np.testing.assert_array_equal(space.vector([3.0], [1]).coords,
                                      [0, 3, 0, 0, 0, 0, 0, 0])

    @pytest.mark.parametrize("values, indices", [
        ([1.0, 2.0], [0, 0]), ([1.0, 2.0, 3.0], [2, 0, 2]),
        ([1.0], [0, 1, 2]), ([1.0, 2.0], [1]), ([1.0, 2.0], [[0, 1]])],
        ids=["duplicate", "duplicate-unsorted", "one-value-three-indices",
             "two-values-one-index", "2-d-indices"])
    def test_vector_rejects_malformed_index_lists(self, values, indices):
        space = AmbientSpace(8)
        space.allocate(3)
        with pytest.raises(ValueError):
            space.vector(values, indices)

    def test_vector_without_indices_copies_its_values(self):
        space = AmbientSpace(8)
        space.allocate(3)
        values = np.array([1.0, 2j, 0.0])
        v = space.vector(values)
        values[0] = 5.0
        np.testing.assert_array_equal(v.coords, [1, 2j, 0, 0, 0, 0, 0, 0])
        assert len(v.prefix) == 2
        with pytest.raises(ValueError):
            space.vector(np.ones(4))  # past the allocated coordinates

    def test_built_vectors_are_stored_at_their_prefix(self):
        space = make_space(3, capacity=1000)
        assert len(space.basis_vector(1).prefix) == 2
        assert len(space.vector([1.0, 0.0]).prefix) == 1
        assert len(space.vector([1.0], [2]).prefix) == 3
        assert len(space.zero().prefix) == 0
