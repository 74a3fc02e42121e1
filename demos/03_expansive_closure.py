"""Walkthrough: every expansive operator is a limit of 2-isometries.

For an expansive T (||Tx|| >= ||x||) we build, per finite-dimensional F,
a 2-isometric block within (||T|| + 1)/dim(F) of four copies of T on F.
The pipeline: diagonalize the compression of T*T on F, split the basis
twice across the four copies, and assemble a Brownian-type block whose
upper-right entry carries direction-dependent weights
sigma_i = sqrt((1 - eps^2)(1 - 1/||Tx_i||^2)) / eps.

Each row is certified: "measured" is the exact supremum of
||(B - T^(4))x|| over unit x in F.  defect_max is an upper bound on the
normalized order-2 defect on the whole space, and expansivity a lower
bound on the normalized expansivity; both are read off how far the
stored rows are from the hypotheses that make B an expansive 2-isometry
(R isometric, R*V = 0, Im R and Im V orthogonal to K), so they sit at
roundoff, about 1e-14, rather than at the exact 1e-20.
"""

import numpy as np

from isolab import (certificate_evaluate, expansive_generator, prepare_space,
                    standard_f_basis, theorem2_construct)

T = expansive_generator(16, "svd_random", seed=42)
print(f"T: random expansive, dim 16, ||T|| = {T.operator_norm:.4f}, "
      f"sigma_min = {T.singular_values.min():.4f}\n")

print(f"{'n':>3} {'(||T||+1)/n':>12} {'measured':>12} {'defect_max':>12} "
      f"{'expansivity':>12}")
for n in (2, 4, 8, 16):
    space = prepare_space(16)
    f_basis = standard_f_basis(space, n)
    block, T4, trace = theorem2_construct(T, f_basis, space)
    cert = certificate_evaluate(
        T4, block, trace, f_basis,
        operator_norm_T=T.operator_norm,
        bound_theoretical=(T.operator_norm + 1) / n)
    print(f"{n:>3} {cert.bound_theoretical:>12.6f} "
          f"{cert.bound_measured:>12.6f} "
          f"{cert.defect_max:>12.3e} "
          f"{cert.expansivity_min:>12.9f}")

print("\nper-direction weights sigma_i of the last run:")
print(np.array2string(np.array(trace.sigmas), precision=4))
print("image norms ||T x_i||:")
print(np.array2string(np.array(trace.norms_Tx), precision=4))
