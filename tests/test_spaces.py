import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isolab import AmbientSpace, DomainMismatch, Vector

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
        np.array([np.inf, 0.0]), np.array([0.0, 1j * np.inf]),
        np.array([1e200, np.nan]), np.array([1e200, 0, -np.inf])],
        ids=["too-long", "2-d", "nan", "inf", "complex-inf", "huge-and-nan",
             "huge-and-inf"])
    def test_rejects_bad_arrays(self, coords):
        with pytest.raises(ValueError):
            Vector(coords, AmbientSpace(12))

    def test_inner_across_spaces_rejected(self):
        a, b = AmbientSpace(4), AmbientSpace(4)
        with pytest.raises(DomainMismatch):
            Vector(np.ones(2), a).inner(Vector(np.ones(2), b))

    def test_repr_names_support_and_norm(self):
        v = Vector(np.array([3.0, 0.0, 4j]), AmbientSpace(4))
        assert repr(v) == "Vector(support=[0, 2], norm=5)"

    def test_repr_marks_only_a_cut_support(self):
        space = AmbientSpace(12)
        assert repr(Vector(np.zeros(0), space)) == "Vector(support=[], norm=0)"
        eight, nine = (Vector(np.ones(k), space) for k in (8, 9))
        assert repr(eight) == f"Vector(support={list(range(8))}, norm={8 ** 0.5:.6g})"
        assert repr(nine) == f"Vector(support={list(range(8))}..., norm=3)"

    def test_accepts_huge_finite_entries(self):
        # the sum of squares overflows, the entries are finite
        v = Vector(np.array([1e200, 1e200]), AmbientSpace(12))
        np.testing.assert_array_equal(v.prefix, [1e200, 1e200])
        assert v.norm() == np.sqrt(np.vdot(v.prefix, v.prefix).real)


class TestAmbientSpace:
    def test_equality_is_identity_and_spaces_hash(self):
        a, b = AmbientSpace(4), AmbientSpace(4)
        assert a == a and a != b
        a.allocate(2, label="H1")
        b.allocate(2, label="H1")  # equal fields, numpy labels included
        assert a != b
        assert len({a, b, a}) == 2 and {a: 1}[a] == 1

    def test_rejects_bad_capacity_count_and_coordinate(self):
        with pytest.raises(ValueError, match="capacity"):
            AmbientSpace(0)
        space = AmbientSpace(4)
        with pytest.raises(ValueError, match="count"):
            space.allocate(-1)
        space.allocate(2)
        with pytest.raises(ValueError, match="not allocated"):
            space.basis_vector(2)
        assert space.allocated == 2

    @pytest.mark.parametrize("index", [True, False, 1.0, np.True_, "1"],
                             ids=["true", "false", "float", "numpy-bool",
                                  "string"])
    def test_basis_vector_needs_an_integer_index(self, index):
        # True would give prefix [1, 1] and False the zero vector
        space = AmbientSpace(4)
        space.allocate(2)
        with pytest.raises(ValueError, match="is not an integer"):
            space.basis_vector(index)
        for i in (1, np.int64(1), np.uint8(1)):
            np.testing.assert_array_equal(space.basis_vector(i).prefix, [0, 1])

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
        ([1.0], [0, 1, 2]), ([1.0, 2.0], [1]), ([1.0, 2.0], [[0, 1]]),
        ([], None)],
        ids=["duplicate", "duplicate-unsorted", "one-value-three-indices",
             "two-values-one-index", "2-d-indices", "no-values"])
    def test_vector_rejects_malformed_index_lists(self, values, indices):
        space = AmbientSpace(8)
        space.allocate(3)
        with pytest.raises(ValueError):
            space.vector(values, indices)

    def test_vector_checks_distinct_indices_without_numpy_ma(self):
        # np.unique's first call imports numpy.ma (about 1.3 MB of peak RSS);
        # a set of the indices finds duplicates without it
        code = ("import sys\nfrom isolab import AmbientSpace\n"
                "space = AmbientSpace(8)\nspace.allocate(3)\n"
                "v = space.vector([1, 2], [0, 1])\n"
                "print(v.prefix.tolist(), 'numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(Path(__file__).resolve().parents[1] / "src"),
            os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[(1+0j), (2+0j)] False\n"
        space = AmbientSpace(8)
        space.allocate(3)
        for indices in ([0, 0], [2, 0, 2]):
            with pytest.raises(ValueError,
                               match="need one distinct index per value"):
                space.vector([1.0] * len(indices), indices)

    @pytest.mark.parametrize("indices, named", [
        ([0.5, 1.5], r"\[0.5, 1.5\]"), (np.array([1.0, 2.0]), r"\[1.0, 2.0\]"),
        ([True, False], r"\[True, False\]")],
        ids=["float", "integral-float", "boolean"])
    def test_vector_needs_integer_indices(self, indices, named):
        # numpy would refuse float indices with an IndexError and read
        # boolean ones as a mask
        space = AmbientSpace(8)
        space.allocate(3)
        with pytest.raises(ValueError, match=f"indices {named} are not integers"):
            space.vector([1.0, 2.0], indices)
        with pytest.raises(ValueError, match="values placed on unallocated"):
            space.vector([1.0, 2.0], [1, 3])
        np.testing.assert_array_equal(space.vector([1.0, 2.0], [2, 0]).prefix,
                                      [2, 0, 1])

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
        assert len(space.vector([1.0, -0.0, complex(0.0, -0.0)]).prefix) == 1
        assert len(space.vector([1.0], [2]).prefix) == 3
        assert len(Vector(np.zeros(0), space).prefix) == 0
