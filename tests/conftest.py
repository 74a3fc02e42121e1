import os

# One BLAS thread: the suite's small products gain nothing from a second
# one, and spinning BLAS threads stall when another process shares the
# cores.  Set before numpy is first imported, which is here.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np
import pytest

from isolab import AmbientSpace, translate


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_space(dim, capacity=None):
    """Space with `dim` coordinates allocated under label H1."""
    space = AmbientSpace(capacity or 4 * dim)
    space.allocate(dim, label="H1")
    return space


def gapped_space(dim):
    """Space with H1, H2, H3, H4 of `dim` coordinates each and unlabeled
    coordinates after H1 and after H2, so that neither H1 + H2 nor H2
    directly follows the copy before it."""
    sp = make_space(dim, capacity=64 * dim)
    for label, gap in (("H2", 3), ("H3", 2), ("H4", 0)):
        sp.allocate(gap)
        sp.allocate(dim, label=label)
    return sp


def vec(space, values):
    return space.vector(values)


def defined_outputs(R):
    """The output rows of a LazyIsometry R (defined_count x W's columns):
    the stored W, then a unit row at each of R's fresh coordinates."""
    out = np.zeros((R._m, R._wc), dtype=np.complex128)
    out[:len(R._W), :R._W.end] = R._W.dense()
    out[np.arange(len(R._W), R._m), np.r_[R._fresh]] = 1.0
    return out


def second_split(y1, norms_Tx, partner2):
    """The second splitting of a construction on Vector lists: (z1, z2) with
    z1_i = a_i y1_i + b_i q_i and z2_i = b_i y1_i - a_i q_i, q_i =
    partner2(y1_i), a_i = min(1/||Tx_i||, 1) and b_i = sqrt(1 - a_i^2).
    The constructions keep z1, z2 only as the images W and V of the block,
    so the tests rebuild them from the trace's y1 and norms_Tx this way."""
    a = [min(1.0 / t, 1.0) for t in norms_Tx]  # z1 = y1 for a norm just below 1
    b = [np.sqrt(1.0 - ai * ai) for ai in a]
    q = [partner2(v) for v in y1]
    return ([a[i] * y1[i] + b[i] * q[i] for i in range(len(y1))],
            [b[i] * y1[i] - a[i] * q[i] for i in range(len(y1))])


def theorem2_partner2(space):
    """The second partner map of `theorem2_construct`: H1 + H2 onto H3 + H4."""
    h = [space.labels[k] for k in ("H1", "H2", "H3", "H4")]
    return lambda v: translate(v, np.r_[h[0], h[1]], np.r_[h[2], h[3]])
