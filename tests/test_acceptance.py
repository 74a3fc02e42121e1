"""Acceptance suite: every certified claim at its stated tolerance.

Each test prints one PASS line (visible with pytest -s or in failure
output); a failed assertion is the corresponding FAIL.
"""

import time

import numpy as np
import pytest

from isolab import (DenseOperator, Vector, certificate_evaluate,
                    compressed_gram, defect_form, diagonalizing_basis,
                    direct_sum_power, expansive_generator, gram_matrix,
                    gram_schmidt, prepare_space, random_2nilpotent,
                    split_pair, standard_f_basis,
                    theorem1_construct, theorem2_construct,
                    three_isometry_from_nilpotent, translate)
from isolab.harness import main, read_sweep_csv

THEOREM1_DIMS = (1, 2, 4, 8, 16, 32)
THEOREM2_FAMILIES = (
    ("scalar(2)", lambda d: expansive_generator(d, "scalar", scale=2.0)),
    ("diag(1.5,2,3,4)", lambda d: expansive_generator(
        d, "diagonal", diag=[(1.5, 2.0, 3.0, 4.0)[i % 4] for i in range(d)])),
    ("svd_random(seed=1)", lambda d: expansive_generator(d, "svd_random", seed=1)),
    ("svd_random(seed=2)", lambda d: expansive_generator(d, "svd_random", seed=2)),
    ("svd_random(seed=3)", lambda d: expansive_generator(d, "svd_random", seed=3)),
)
THEOREM2_NS = (2, 4, 8, 16)


@pytest.fixture(scope="module")
def theorem1_runs():
    runs = []
    start = time.perf_counter()
    for n in THEOREM1_DIMS:
        space = prepare_space(max(n, 2))
        f_basis = standard_f_basis(space, n)
        block, trace = theorem1_construct(f_basis, space)
        runs.append((n, space, f_basis, block, trace))
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def theorem2_runs():
    runs = []
    start = time.perf_counter()
    for label, make in THEOREM2_FAMILIES:
        T = make(max(THEOREM2_NS))
        for n in THEOREM2_NS:
            space = prepare_space(T.dim)
            f_basis = standard_f_basis(space, n)
            block, T4, trace = theorem2_construct(T, f_basis, space)
            cert = certificate_evaluate(
                T4, block, trace, f_basis,
                operator_norm_T=T.operator_norm,
                bound_theoretical=(T.operator_norm + 1.0) / n)
            runs.append((f"{label} n={n}", T, space, f_basis, block, T4,
                         trace, cert))
    return runs, time.perf_counter() - start


def test_criterion_1_theorem1_equality(theorem1_runs):
    """||(I_F - 2 id)x|| equals 1/n on F, for n up to 32."""
    runs, build_s = theorem1_runs
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for n, space, f_basis, block, _ in runs:
        rows = np.array([v.coords for v in f_basis])
        for _ in range(100):
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x = Vector((c / np.linalg.norm(c)) @ rows, space)
            resid = (block.apply(x) - 2.0 * x).norm()
            assert abs(resid - 1.0 / n) <= 1e-9, f"n={n}"
    elapsed = time.perf_counter() - start + build_s
    assert elapsed <= 5.0
    print(f"\nPASS criterion 1: | ||(I_F-2id)x|| - 1/n | <= 1e-9 for "
          f"n in {THEOREM1_DIMS}, 100 x each ({elapsed:.2f}s)")


def test_criterion_2_theorem2_bound(theorem2_runs):
    """Measured distance to T^(4) on F is within (||T||+1)/n."""
    runs, build_s = theorem2_runs
    for label, T, *_rest, cert in runs:
        assert cert.bound_measured <= cert.bound_theoretical * (1 + 1e-9), label
    assert build_s <= 20.0
    print(f"\nPASS criterion 2: bound_measured <= (||T||+1)/n for "
          f"{len(runs)} runs ({build_s:.2f}s)")


def _random_on_span(space, m, rng):
    """Random unit vector on the first m instantiated coordinates."""
    c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    coords = np.zeros(space.capacity, dtype=complex)
    coords[:m] = c / np.linalg.norm(c)
    return Vector(coords, space)


def test_criterion_3_two_isometry_defect(theorem1_runs, theorem2_runs):
    """Order-2 defect vanishes on 1000 random instantiated vectors per
    construction, including vectors whose square needs a lazy extension."""
    cases = [(f"theorem1 n={n}", space, block)
             for n, space, _, block, _ in theorem1_runs[0]]
    cases += [(label, space, block)
              for label, _, space, _, block, _, _, _ in theorem2_runs[0]]
    rng = np.random.default_rng(303)
    for label, space, block in cases:
        scale = max(1.0, block.operator_norm ** 2) ** 2
        m0 = space.allocated
        for k in range(1000):
            if k % 100 == 0:
                # pin the newest coordinate: forces extension for I_F^2
                x = space.basis_vector(space.allocated - 1)
            else:
                x = _random_on_span(space, m0, rng)
            d2 = defect_form(block, x, 2)
            assert abs(d2) <= 1e-8 * scale * x.norm() ** 2, label
    print(f"\nPASS criterion 3: |d_2| <= 1e-8 max(1,||I_F||^2)^2 ||x||^2, "
          f"1000 x per construction, {len(cases)} constructions")


def test_criterion_4_expansivity(theorem1_runs, theorem2_runs):
    """Compressions of every constructed 2-isometry are expansive."""
    cases = [(f"theorem1 n={n}", space, block)
             for n, space, _, block, _ in theorem1_runs[0]]
    cases += [(label, space, block)
              for label, _, space, _, block, _, _, _ in theorem2_runs[0]]
    rng = np.random.default_rng(404)
    for label, space, block in cases:
        m0 = space.allocated
        for _ in range(20):
            size = min(5, m0)
            S = gram_schmidt([_random_on_span(space, m0, rng)
                              for _ in range(size)])
            w = np.linalg.eigvalsh(compressed_gram(block, S))
            assert w.min() >= 1.0 - 1e-9, label
    print(f"\nPASS criterion 4: min eig of P_S B*B|_S >= 1 - 1e-9, "
          f"20 systems per construction")


def test_criterion_5_doubling_orthogonality():
    """Doubled images {T^(2) y_i^(k)} stay pairwise orthogonal."""
    operators = [DenseOperator(np.array([[2, 1], [0, 2]], dtype=complex))]
    operators += [expansive_generator(d, "svd_random", seed=40 + d)
                  for d in (4, 9, 16)]
    for T in operators:
        d = T.dim
        space = prepare_space(d, capacity=8 * d)
        space.allocate(d, label="H2")
        h1, h2 = space.labels["H1"], space.labels["H2"]
        T1 = T.embedded(space, h1)
        T2 = direct_sum_power(T, 2, space, np.concatenate([h1, h2]))
        x = diagonalizing_basis(T1, [space.basis_vector(h1[i]) for i in range(d)])
        y1, y2 = split_pair(x, 1.0 / d, lambda v: translate(v, h1, h2))
        G = gram_matrix([T2.apply(v) for v in y1 + y2])
        off = np.max(np.abs(G - np.diag(np.diag(G))))
        assert off <= 1e-10 * T.operator_norm ** 2, f"dim={d}"
    print("\nPASS criterion 5: doubled-image Gram diagonal to 1e-10 ||T||^2")


def test_criterion_6_step3_orthogonality(theorem2_runs):
    """Quadrupled images of the z-system are orthogonal to K."""
    for label, T, *_rest, trace, _cert in theorem2_runs[0]:
        assert trace.orthogonality_max <= 1e-10 * T.operator_norm, label
    print("\nPASS criterion 6: |<T^(4) z_i^(k), yhat_j^(2)>| <= 1e-10 ||T|| "
          "in every run")


def test_criterion_7_three_isometry_remark():
    """id + 2-nilpotent annihilates the order-3 defect form."""
    # exact hand case: intermediate squared norms 1, 2, 5, 10
    B = three_isometry_from_nilpotent(
        DenseOperator(np.array([[0, 1], [0, 0]], dtype=complex)))
    d3 = defect_form(B, np.array([0.0, 1.0]), 3)
    assert d3 == pytest.approx(-1 + 6 - 15 + 10, abs=1e-12)

    rng = np.random.default_rng(707)
    dims = [2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 32, 40,
            48, 56, 60, 64]
    for seed, dim in enumerate(dims):
        B = three_isometry_from_nilpotent(random_2nilpotent(dim, seed))
        scale = max(1.0, B.operator_norm ** 2) ** 3
        for _ in range(500):
            x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            x /= np.linalg.norm(x)
            assert abs(defect_form(B, x, 3)) <= 1e-9 * scale, f"dim={dim}"
    print("\nPASS criterion 7: |d_3| <= 1e-9 max(1,||id+A||^2)^3 for 20 "
          "nilpotents (dims 2-64), 500 x each; hand case d_3 = 0")


def test_criterion_8_brute_force_oracle():
    """defect_form agrees with the explicit Gram quadratic form."""
    T = expansive_generator(2, "svd_random", seed=8)
    space = prepare_space(2)
    f_basis = standard_f_basis(space, 2)
    block, T4, trace = theorem2_construct(T, f_basis, space)

    m0 = space.allocated
    for j in range(m0):  # materialize R on the whole span
        block.apply(block.apply(space.basis_vector(j)))
    images1 = [block.apply(space.basis_vector(j)) for j in range(m0)]
    images2 = [block.apply(v) for v in images1]
    D = gram_matrix(images2) - 2 * gram_matrix(images1) + np.eye(m0)

    rng = np.random.default_rng(808)
    scale = max(1.0, block.operator_norm ** 2) ** 2
    for _ in range(100):
        c = rng.standard_normal(m0) + 1j * rng.standard_normal(m0)
        c /= np.linalg.norm(c)
        coords = np.zeros(space.capacity, dtype=complex)
        coords[:m0] = c
        direct = defect_form(block, Vector(coords, space), 2)
        oracle = float(np.real(np.conj(c) @ D @ c))
        assert abs(direct - oracle) <= 1e-12 * scale
    print("\nPASS criterion 8: defect form = Gram quadratic form to 1e-12, "
          "100 x")


def test_criterion_9_convergence_table(tmp_path):
    """Sweep table certifies the net convergence claim at desk scale."""
    out = tmp_path / "sweep.csv"
    start = time.perf_counter()
    code = main(["sweep", "--family", "scalar:2", "--n", "2,4,8,16,32",
                 "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    rows = read_sweep_csv(out.read_text())
    assert [r.n for r in rows] == [2, 4, 8, 16, 32]
    measured = [r.bound_measured for r in rows]
    for row in rows:
        assert row.bound_measured * row.n <= 3.0 + 1e-9
    assert all(b <= a * (1 + 1e-12) for a, b in zip(measured, measured[1:]))
    assert elapsed <= 10.0
    print(f"\nPASS criterion 9: sweep scalar:2 rows satisfy "
          f"bound*n <= 3, non-increasing ({elapsed:.2f}s)")
