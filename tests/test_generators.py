import numpy as np
import pytest

from isolab import (InvalidFamilyParameter, NotExpansive, expansive_generator,
                    generators, random_unitary)


def test_scalar_family():
    T = expansive_generator(4, "scalar", scale=2.0)
    np.testing.assert_allclose(T.matrix, 2 * np.eye(4))


def test_diagonal_identity():
    T = expansive_generator(2, "diagonal", diag=[1, 1])
    np.testing.assert_allclose(T.matrix, np.eye(2))


def test_svd_random_certified_expansive():
    # oracle: eigensolver on T^H T
    T = expansive_generator(8, "svd_random", seed=7)
    w = np.linalg.eigvalsh(np.conj(T.matrix.T) @ T.matrix)
    assert w.min() >= 1.0 - 1e-10
    assert w.max() <= 9.0 + 1e-9  # singular values capped at 3


def test_svd_random_deterministic():
    a = expansive_generator(6, "svd_random", seed=11)
    b = expansive_generator(6, "svd_random", seed=11)
    np.testing.assert_array_equal(a.matrix, b.matrix)


def test_id_plus_psd_expansive():
    T = expansive_generator(5, "id_plus_psd", seed=3)
    s = np.linalg.svd(T.matrix, compute_uv=False)
    assert s.min() >= 1.0 - 1e-10


@pytest.mark.parametrize("kwargs", [
    dict(family="scalar", scale=0.5),
    dict(family="diagonal", diag=[1.0, 0.9]),
    dict(family="diagonal", diag=[1.0]),
    dict(family="diagonal"),
    dict(family="no-such-family"),
    dict(family="scalar", scale=np.inf),
    dict(family="scalar", scale=np.nan),
    dict(family="diagonal", diag=[1.0, np.inf]),
    dict(family="diagonal", diag=[np.nan, 2.0]),
])
def test_invalid_parameters(kwargs):
    with pytest.raises(InvalidFamilyParameter):
        expansive_generator(2, **kwargs)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(0)
    U = random_unitary(7, rng)
    np.testing.assert_allclose(np.conj(U.T) @ U, np.eye(7), atol=1e-12)


def test_dim_must_be_positive():
    with pytest.raises(ValueError):
        expansive_generator(0, "scalar")


def test_built_matrix_below_one_raises_not_expansive(monkeypatch):
    # singular values drawn below 1 fail the final check, a raise that
    # `python -O` keeps (an assert would be stripped)
    monkeypatch.setattr(generators, "SV_RANGE", (0.5, 0.9))
    with pytest.raises(NotExpansive, match="sigma_min"):
        expansive_generator(4, "svd_random", seed=0)
