import os

# One BLAS thread: the suite's small products gain nothing from a second
# one, and spinning BLAS threads stall when another process shares the
# cores.  Set before numpy is first imported, which is here.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np
import pytest

from isolab import AmbientSpace


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_space(dim, capacity=None):
    """Space with `dim` coordinates allocated under label H1."""
    space = AmbientSpace(capacity or 4 * dim)
    space.allocate(dim, label="H1")
    return space


def vec(space, values):
    return space.vector(values)
