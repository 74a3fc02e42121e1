"""Numerical laboratory for 2-isometric approximation of expansive operators.

Builds Brownian-type block operators on truncations of an
infinite-dimensional Hilbert space, checks their defining identities by
forward application, and certifies the quantitative approximation bound
(||T|| + 1) / dim(F).
"""

from .errors import (AllVectorsNegligible, CapacityExceeded, DomainMismatch,
                     InvalidFamilyParameter, IsolabError, NotExpansive,
                     NotNilpotent, OddDimension, SubspaceNotContained,
                     UsageError)
from .spaces import AmbientSpace, Vector
from .linalg import gram_schmidt, gram_matrix
from .operators import (BrownianBlock, DenseOperator, LazyIsometry,
                        ScalarOperator, compressed_gram, defect_form,
                        direct_sum_power, random_2nilpotent, read_operator,
                        three_isometry_from_nilpotent, write_operator)
from .generators import expansive_generator, random_unitary
from .constructions import (Certificate, ConstructionTrace,
                            certificate_evaluate, diagonalizing_basis,
                            prepare_space, split_pair, standard_f_basis,
                            theorem1_construct, theorem2_construct,
                            translate)

__version__ = "0.1.0"
