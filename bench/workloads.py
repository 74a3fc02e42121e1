"""The four benchmark workloads and the checks that certify their outputs.

Each workload has a ``setup(seed, workdir)`` that generates every input from
the seed (operators, vectors, operator files) and a ``run_pass(state, tally)``
that drives the package through its public functions and checks each case
against the paper's claims.  A pass does the same work every time it runs on
the same state, so pass times of one run are comparable.

Check functions return a list of problems (empty when the case is certified);
``Tally.case`` counts a case as failed when its check reports a problem or
when it raises.  The ``check.*`` residuals recorded on the tally are
diagnostics, not gates.
"""

from __future__ import annotations

import io
import os
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import isolab
from isolab import harness

# --- case accounting -----------------------------------------------------


@dataclass
class Tally:
    """Attempted and failed cases of one run, plus worst residuals."""
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    residuals: dict = field(default_factory=dict)
    #: called with the case id before each case (the tracer's case marker)
    on_case: Callable[[int], None] | None = None

    def case(self, label: str, thunk) -> None:
        if self.on_case is not None:
            self.on_case(self.attempted)
        self.attempted += 1
        try:
            problems = thunk()
        except Exception as exc:  # a case that raises is a failed case
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {problems[0]}")

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def worst(self, name: str, value: float, pick=max) -> None:
        value = float(value)
        old = self.residuals.get(name)
        self.residuals[name] = value if old is None else pick(old, value)


def _unit_vectors(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    c = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return c / np.linalg.norm(c, axis=1, keepdims=True)


def _seeds(rng: np.random.Generator, count: int) -> list:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


# --- sweep-cert ------------------------------------------------------------

SWEEP_NS = (2, 4, 8, 16, 32)
SWEEP_DIM_H = 32
BOUND_SLACK = 1 + 1e-9
DEFECT_GATE = 1e-8
THEOREM1_TOL = 1e-9


def check_sweep_csv(code: int, text: str, kind: str, ns, tally: Tally) -> list:
    """Certify one `--out` CSV of `isolab sweep` or `isolab theorem1`."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    header = text.split("\n", 1)[0]
    if header != ",".join(harness.CSV_HEADER):
        return problems + [f"header {header!r} differs from CSV_HEADER"]
    rows = harness.read_sweep_csv(text)
    if harness.emit_report(rows, "csv", None) != text:
        problems.append("CSV does not round-trip through read_sweep_csv")
    if [r.n for r in rows] != list(ns):
        problems.append(f"rows for n={[r.n for r in rows]}, expected {list(ns)}")
    for r in rows:
        if not r.bound_measured <= r.bound_theoretical * BOUND_SLACK:
            problems.append(f"n={r.n}: bound_measured {r.bound_measured!r} "
                            f"above bound {r.bound_theoretical!r}")
        if not r.defect_max <= DEFECT_GATE:
            problems.append(f"n={r.n}: defect_max {r.defect_max!r}")
        if kind == "theorem1" and not abs(r.bound_measured - 1.0 / r.n) <= THEOREM1_TOL:
            problems.append(f"n={r.n}: distance to 2 id {r.bound_measured!r} "
                            f"is not 1/n")
        tally.worst("check.bound_ratio_max", r.bound_measured / r.bound_theoretical)
        tally.worst("check.defect_max", r.defect_max)
        tally.worst("check.expansivity_min", r.expansivity_min, min)
    return problems


def _run_cli(argv, out: str):
    if os.path.exists(out):
        os.remove(out)  # a stale file must not pass for this call's output
    code = harness.main(argv + ["--out", out])
    with open(out, encoding="utf-8") as fh:
        return code, fh.read()


def sweep_setup(seed: int, workdir: str) -> dict:
    return {"seed": seed, "workdir": workdir}


def sweep_pass(state: dict, tally: Tally) -> None:
    seed, workdir = str(state["seed"]), state["workdir"]
    n_list = ",".join(str(n) for n in SWEEP_NS)
    out = os.path.join(workdir, "sweep.csv")
    tally.case("sweep svd-random", lambda: check_sweep_csv(
        *_run_cli(["sweep", "--family", "svd-random", "--n", n_list,
                   "--seed", seed], out), "theorem2", SWEEP_NS, tally))
    for n in SWEEP_NS:
        out = os.path.join(workdir, f"theorem1-{n}.csv")
        tally.case(f"theorem1 n={n}", lambda n=n, out=out: check_sweep_csv(
            *_run_cli(["theorem1", "--dim-f", str(n), "--dim-h", str(SWEEP_DIM_H),
                       "--seed", seed], out), "theorem1", (n,), tally))


# --- construct-large -------------------------------------------------------

CONSTRUCT_DIM = 128
CONSTRUCT_PROBES = 16
ORTHO_GATE = 1e-10


def construct_setup(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng(seed)
    s1, s2 = _seeds(rng, 2)
    d = CONSTRUCT_DIM
    ops = [("svd_random", isolab.expansive_generator(d, "svd_random", seed=s1)),
           ("id_plus_psd", isolab.expansive_generator(d, "id_plus_psd", seed=s2)),
           ("diagonal", isolab.expansive_generator(
               d, "diagonal", diag=rng.uniform(1.0, 3.0, size=d)))]
    return {"ops": ops, "probes": _unit_vectors(rng, CONSTRUCT_PROBES, d)}


def build_theorem2(T, n: int):
    """Theorem-2 block for the first n coordinates of a fresh copy of H."""
    space = isolab.prepare_space(T.dim)
    f_basis = isolab.standard_f_basis(space, n)
    block, T4, trace = isolab.theorem2_construct(T, f_basis, space)
    return space, block, T4, trace


def check_construction(T, space, block, T4, trace, probes, tally: Tally) -> list:
    """||(B - T^(4))x|| <= (||T||+1)/n on F = H1, and Step-3 orthogonality."""
    problems = []
    norm_T = T.operator_norm
    bound = (norm_T + 1.0) / T.dim
    f_coords = space.labels["H1"]
    for c in probes:
        x = space.vector(c, f_coords)
        resid = (block.apply(x) - T4.apply(x)).norm()
        tally.worst("check.bound_ratio_max", resid / bound)
        if not resid <= bound * BOUND_SLACK:
            problems.append(f"||(B - T4)x|| = {resid!r} above bound {bound!r}")
    ortho = trace.orthogonality_max
    if not ortho <= ORTHO_GATE * norm_T:
        problems.append(f"orthogonality_max {ortho!r} above {ORTHO_GATE} ||T||")
    return problems


def construct_pass(state: dict, tally: Tally) -> None:
    for family, T in state["ops"]:
        tally.case(family, lambda T=T: check_construction(
            T, *build_theorem2(T, T.dim), state["probes"], tally))


# --- defect-soak -----------------------------------------------------------

SOAK_THEOREM1_NS = (1, 2, 4, 8, 16, 32)
SOAK_THEOREM2_NS = (2, 4, 8, 16)
SOAK_DIM_H = 16
SOAK_OPERATORS = 3
SOAK_FORMS = 200
PIN_EVERY = 100


def soak_setup(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng(seed)
    ops = [isolab.expansive_generator(SOAK_DIM_H, "svd_random", seed=s)
           for s in _seeds(rng, SOAK_OPERATORS)]
    return {"ops": ops, "vector_seed": _seeds(rng, 1)[0]}


def build_theorem1(n: int):
    space = isolab.prepare_space(max(n, 2))
    f_basis = isolab.standard_f_basis(space, n)
    block, _ = isolab.theorem1_construct(f_basis, space)
    return space, block


def check_defects(space, block, rng: np.random.Generator, forms: int,
                  tally: Tally) -> list:
    """|d_2(x)| <= 1e-8 max(1,||B||^2)^2 ||x||^2 on random instantiated x;
    every PIN_EVERY-th x is the newest coordinate, forcing lazy extension."""
    problems = []
    scale = max(1.0, block.operator_norm ** 2) ** 2
    m0 = space.allocated
    coeffs = _unit_vectors(rng, forms, m0)
    for k in range(forms):
        if k % PIN_EVERY == 0:
            x = space.basis_vector(space.allocated - 1)
        else:
            x = space.vector(coeffs[k])
        d2 = abs(isolab.defect_form(block, x, 2))
        size = scale * x.norm() ** 2
        tally.worst("check.defect_max", d2 / size)
        if not d2 <= DEFECT_GATE * size:
            problems.append(f"form {k}: |d_2| = {d2!r} above {DEFECT_GATE} scale")
    return problems


def soak_pass(state: dict, tally: Tally) -> None:
    rng = np.random.default_rng(state["vector_seed"])
    for n in SOAK_THEOREM1_NS:
        tally.case(f"theorem1 n={n}", lambda n=n: check_defects(
            *build_theorem1(n), rng, SOAK_FORMS, tally))
    for i, T in enumerate(state["ops"]):
        for n in SOAK_THEOREM2_NS:
            tally.case(f"theorem2 T{i} n={n}", lambda T=T, n=n: check_defects(
                *build_theorem2(T, n)[:2], rng, SOAK_FORMS, tally))


# --- verify-dense ----------------------------------------------------------

VERIFY_DIMS = (8, 16, 32, 48, 64)
VERIFY_SAMPLES = 2000
_SIGMA_LINE = re.compile(r"sigma_min: (\S+) \(expansive: (yes|no)\)")
_D3_LINE = re.compile(r"defect order 3: max \|d_3\| = (\S+) \(3-isometry: (yes|no)\)")


def verify_setup(seed: int, workdir: str) -> dict:
    """Write id + A (A 2-nilpotent) and svd_random T at each dim to JSON."""
    rng = np.random.default_rng(seed)
    files = []
    for d in VERIFY_DIMS:
        s_nil, s_svd = _seeds(rng, 2)
        for kind, M in (
                ("id+A", np.eye(d) + isolab.random_2nilpotent(d, s_nil).matrix),
                ("svd", isolab.expansive_generator(d, "svd_random", seed=s_svd).matrix)):
            path = os.path.join(workdir, f"{kind}-{d}.json")
            isolab.write_operator(path, M)
            sigma = np.linalg.svd(M, compute_uv=False)
            files.append({"kind": kind, "dim": d, "path": path,
                          "sigma_min": float(sigma.min()),
                          "scale": max(1.0, float(sigma.max()) ** 2)})
    return {"seed": seed, "files": files}


def check_verify(entry: dict, code: int, text: str, tol: float, tally: Tally) -> list:
    """Verdicts of `isolab verify` against the benchmark's own sigma_min."""
    problems = []
    sigma = _SIGMA_LINE.search(text)
    d3 = _D3_LINE.search(text)
    if sigma is None or d3 is None:
        return [f"unparsed report {text!r}"]
    expansive = entry["sigma_min"] >= 1.0 - tol
    if (sigma.group(2) == "yes") != expansive:
        problems.append(f"expansive verdict {sigma.group(2)} for sigma_min "
                        f"{entry['sigma_min']!r}")
    if code != (0 if expansive else 1):
        problems.append(f"exit code {code} for sigma_min {entry['sigma_min']!r}")
    reported = float(sigma.group(1))
    if not abs(reported - entry["sigma_min"]) <= 1e-9 * max(1.0, entry["sigma_min"]):
        problems.append(f"sigma_min {reported!r} != {entry['sigma_min']!r}")
    if entry["kind"] == "id+A":
        if d3.group(2) != "yes":
            problems.append("id + A not reported as a 3-isometry")
        tally.worst("check.defect_max", float(d3.group(1)) / entry["scale"] ** 3)
    else:
        tally.worst("check.expansivity_min", reported, min)
    return problems


def _verify_one(entry: dict, seed: int, tally: Tally) -> list:
    cfg = harness.parse_config(["verify", "--input", entry["path"],
                                "--samples", str(VERIFY_SAMPLES), "--seed", str(seed)])
    buf = io.StringIO()
    code = harness.run_verify(cfg, stream=buf)
    return check_verify(entry, code, buf.getvalue(), cfg.tol_verify, tally)


def verify_pass(state: dict, tally: Tally) -> None:
    for entry in state["files"]:
        tally.case(f"verify {entry['kind']} dim={entry['dim']}",
                   lambda e=entry: _verify_one(e, state["seed"], tally))


#: the reference kernel (speed.py) whose speed stands for each workload's:
#: "stream" where operators act on capacity-padded ambient vectors of
#: thousands of coordinates, "small" for verify-dense's plain small arrays
SPEED_KERNEL = {
    "sweep-cert": "stream",
    "construct-large": "stream",
    "defect-soak": "stream",
    "verify-dense": "small",
}

WORKLOADS = {
    "sweep-cert": (sweep_setup, sweep_pass),
    "construct-large": (construct_setup, construct_pass),
    "defect-soak": (soak_setup, soak_pass),
    "verify-dense": (verify_setup, verify_pass),
}
