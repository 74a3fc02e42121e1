"""Walkthrough: the blocks converge to T^(4) at each x of a nested chain.

For every x in F the Theorem-2 block B built on F with eps = 1/dim(F)
satisfies ||(B - T^(4))x|| = eps ||(T - I)x|| exactly, not only at the
supremum.  Along a nested chain F_1 < F_2 < ... < H1 a fixed x in F_1
lies in every F_k, so dim(F_k) ||(B_k - T^(4))x|| stays equal to
||(T - I)x|| while ||(B_k - T^(4))x|| itself goes to zero: B_k x ->
T^(4) x at each x in the union of the F_k.

That is not convergence in the strong operator topology on all of an
infinite-dimensional H.  ||B_k|| = sqrt(1 + ||V_k||^2) grows with
dim(F_k) (last column), and by uniform boundedness a sequence that
converges at every x of H is bounded in norm.  So no sequence of these
blocks converges in SOT on H, and the paper's closure theorem takes a net
over the finite-dimensional F, not a sequence.
"""

import numpy as np

from isolab import (expansive_generator, gram_schmidt, prepare_space,
                    theorem2_construct)

dim = 16
T = expansive_generator(dim, "svd_random", seed=5)
rng = np.random.default_rng(5)
# a chain that is not coordinate-aligned: the first k of a random ONB of H1
coeffs = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
phase = np.exp(0.7j)  # x = phase * f_1, a unit vector of F_1

print(f"{'dim F_k':>8} {'||(B_k - T4)x||':>18} {'dim F_k ||(B_k - T4)x||':>25}"
      f" {'||(T - I)x||':>14} {'||B_k||':>9}")
for k in (1, 2, 4, 8, 16):
    space = prepare_space(dim)
    onb = gram_schmidt([space.vector(c, space.labels["H1"]) for c in coeffs])
    block, T4, _ = theorem2_construct(T, onb[:k], space)
    x = phase * onb[0]
    T1 = T.embedded(space, space.labels["H1"])
    dist = (block.apply(x) - T4.apply(x)).norm()
    print(f"{k:>8} {dist:>18.12f} {k * dist:>25.12f} "
          f"{(T1.apply(x) - x).norm():>14.12f} {block.operator_norm:>9.3f}")
