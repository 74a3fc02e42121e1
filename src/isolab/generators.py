"""Seeded generators of expansive test operators."""

from __future__ import annotations

import numpy as np

from .errors import InvalidFamilyParameter, NotExpansive
from .operators import DenseOperator

#: singular values of the svd_random family are drawn uniformly from this
#: range; kept small so the approximation bounds stay tight at desk scale
SV_RANGE = (1.0, 3.0)

#: an operator counts as expansive when its smallest singular value, or the
#: norm of its image of a unit vector, is at least 1 - EXPANSIVITY_TOL
EXPANSIVITY_TOL = 1e-10


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Gaussian, phases fixed for
    determinism of the decomposition."""
    Z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def expansive_generator(dim: int, family: str, *, scale: float = 2.0,
                        diag=None, seed: int = 0) -> DenseOperator:
    """Build an operator with smallest singular value >= 1.

    Families:
      scalar        -- scale * identity, scale >= 1
      diagonal      -- diag(d_1, ..., d_dim), all d_i >= 1
      svd_random    -- U diag(s) W^H with seeded unitaries U, W and singular
                       values uniform in [1, 3]
      id_plus_psd   -- identity + seeded positive semidefinite perturbation

    The result is certified internally: raises InvalidFamilyParameter if any
    prescribed singular value is not finite and >= 1, NotExpansive if the
    result's cached `singular_values` have sigma_min < 1 - EXPANSIVITY_TOL.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    if family == "scalar":
        if not 1.0 <= scale < np.inf:
            raise InvalidFamilyParameter(f"scalar factor {scale} not in [1, inf)")
        M = scale * np.eye(dim, dtype=np.complex128)
    elif family == "diagonal":
        if diag is None:
            raise InvalidFamilyParameter("diagonal family needs entries")
        d = np.asarray(diag, dtype=float)
        if len(d) != dim:
            raise InvalidFamilyParameter("diagonal length must equal dim")
        if not np.all((1.0 <= d) & (d < np.inf)):
            raise InvalidFamilyParameter("diagonal entries must lie in [1, inf)")
        M = np.diag(d).astype(np.complex128)
    elif family == "svd_random":
        rng = np.random.default_rng(seed)
        U = random_unitary(dim, rng)
        W = random_unitary(dim, rng)
        s = rng.uniform(SV_RANGE[0], SV_RANGE[1], size=dim)
        M = U @ np.diag(s).astype(np.complex128) @ np.conj(W.T)
    elif family == "id_plus_psd":
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        psd = (np.conj(G.T) @ G) / dim
        M = np.eye(dim, dtype=np.complex128) + psd
    else:
        raise InvalidFamilyParameter(f"unknown family {family!r}")
    T = DenseOperator(M)
    smin = T.singular_values.min()
    if not smin >= 1.0 - EXPANSIVITY_TOL:
        raise NotExpansive(f"generator produced sigma_min={smin}")
    return T
