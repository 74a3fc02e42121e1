"""Walkthrough: the closure theorem, both ways.

Every expansive T is approached by 2-isometries (demos 03 and 05).
Conversely a 2-isometry B is expansive, ||Bx|| >= ||x||, so at a unit x
with ||Tx|| < 1 every 2-isometry keeps ||(B - T)x|| >= 1 - ||Tx||: an
operator that shrinks some vector lies outside the closure.  And
approaching an expansive T has a price: ||B|| must grow with dim(F).
"""

import numpy as np

from isolab import (DenseOperator, NotExpansive, defect_form,
                    expansive_generator, prepare_space, random_2nilpotent,
                    standard_f_basis, theorem1_construct, theorem2_construct,
                    three_isometry_from_nilpotent)

print("1. T = diag(0.5, 2, 3) tiled to dim 16 shrinks e_1: refused at every n")
T = DenseOperator(np.diag(np.resize([0.5, 2.0, 3.0], 16)))
print(f"{'dim F':>6} {'(||T||+1)/n':>12} {'certified lower bound':>22}")
for n in (1, 2, 4, 8, 12, 16):
    space = prepare_space(16)
    try:
        theorem2_construct(T, standard_f_basis(space, n), space)
        raise AssertionError("a contraction on F was accepted")
    except NotExpansive as exc:  # the bound is stated in the message
        bound = float(str(exc).split(">= ")[1].split(" at")[0])
    print(f"{n:>6} {(T.operator_norm + 1) / n:>12.4f} {bound:>22.4f}")
print("past n = 8 the promised distance would beat the certified one")

print("\n2. T = id + A, A 2-nilpotent: a 3-isometry outside the closure")
T = three_isometry_from_nilpotent(random_2nilpotent(16, seed=3))
_, sv, vh = np.linalg.svd(T.matrix)
space = prepare_space(16)
h1 = space.labels["H1"]
x = space.vector(vh[-1].conj(), h1)  # unit, ||Tx|| = sigma_min
block, _ = theorem1_construct(standard_f_basis(space, 16), space)
print(f"sigma_min = {sv[-1]:.4f}, |d_3(T)(x)| = "
      f"{abs(defect_form(T, vh[-1].conj(), 3)):.1e}")
print(f"every 2-isometry B: ||(B - T)x|| >= 1 - sigma_min = {1 - sv[-1]:.4f}")
print(f"the Theorem-1 block:  ||(B - T)x|| = "
      f"{(block.apply(x) - T.embedded(space, h1).apply(x)).norm():.4f}")

print("\n3. T = 2 id: ||B|| against its certified lower bound")
print(f"{'dim F':>6} {'||B||':>8} {'lower bound':>12} {'ratio':>6}")
for dim in (4, 16, 32):
    space = prepare_space(dim)
    h1 = space.labels["H1"]
    T = expansive_generator(dim, "scalar")
    block, T4, _ = theorem2_construct(T, standard_f_basis(space, dim), space)
    T1 = T.embedded(space, h1)
    x = space.basis_vector(h1[0])
    Tx = T1.apply(x)
    e1 = (block.apply(x) - T4.apply(x)).norm()    # ||(B - T)x||
    e2 = (block.apply(Tx) - T4.apply(Tx)).norm()  # ||(B - T)Tx||
    t1, t2 = Tx.norm(), T1.apply(Tx).norm()
    D = (abs(defect_form(T1, x, 2)) - abs(defect_form(block, x, 2))
         - 2 * e1 * (2 * t1 + e1))
    bound = (np.sqrt(t2 ** 2 + D) - t2 - e2) / e1  # from B^2 x - T^2 x
    print(f"{dim:>6} {block.operator_norm:>8.3f} {bound:>12.3f} "
          f"{block.operator_norm / bound:>6.2f}")
