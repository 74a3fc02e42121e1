"""Tests of the benchmark itself: every workload check rejects a corrupted
result, the tracer's self-time arithmetic, absent trace targets, and the
result-line contract.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import io
import json
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run

run.load_isolab()

import isolab  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402
from isolab import harness  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def tally_of(check, *args) -> W.Tally:
    tally = W.Tally()
    tally.case("case", lambda: check(*args, tally))
    return tally


def assert_fails(check, *args):
    tally = tally_of(check, *args)
    assert (tally.failed, tally.attempted, tally.fail_frac) == (1, 1, 1.0), tally.failures


def assert_passes(check, *args):
    tally = tally_of(check, *args)
    assert (tally.failed, tally.attempted) == (0, 1), tally.failures


# --- workload checks reject corrupted results ------------------------------


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    code = harness.main(["sweep", "--family", "svd-random", "--n", "2,4",
                         "--samples", "20", "--out", str(out)])
    return code, out.read_text()


@pytest.fixture(scope="module")
def theorem1_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("theorem1") / "t1.csv"
    code = harness.main(["theorem1", "--dim-f", "4", "--dim-h", "4",
                         "--samples", "20", "--out", str(out)])
    return code, out.read_text()


def _rewrite(text: str, **changes) -> str:
    rows = [replace(r, **changes) for r in harness.read_sweep_csv(text)]
    return harness.emit_report(rows, "csv", None)


def test_sweep_check_accepts_real_output(sweep_csv, theorem1_csv):
    assert_passes(W.check_sweep_csv, *sweep_csv, "theorem2", (2, 4))
    assert_passes(W.check_sweep_csv, *theorem1_csv, "theorem1", (4,))


def test_sweep_check_rejects_bound_above_theory(sweep_csv):
    code, text = sweep_csv
    rows = harness.read_sweep_csv(text)
    bad = _rewrite(text, bound_measured=rows[0].bound_theoretical * 1.01)
    assert_fails(W.check_sweep_csv, code, bad, "theorem2", (2, 4))


def test_sweep_check_rejects_defect_and_nan(sweep_csv):
    code, text = sweep_csv
    assert_fails(W.check_sweep_csv, code, _rewrite(text, defect_max=1e-6),
                 "theorem2", (2, 4))
    assert_fails(W.check_sweep_csv, code, _rewrite(text, bound_measured=float("nan")),
                 "theorem2", (2, 4))


def test_sweep_check_rejects_theorem1_off_one_over_n(theorem1_csv):
    # within the bound, but not at the exact distance 1/n from 2 id
    code, text = theorem1_csv
    bad = _rewrite(text, bound_measured=0.99 / 4)
    assert_fails(W.check_sweep_csv, code, bad, "theorem1", (4,))


def test_sweep_check_rejects_header_rows_and_exit_code(sweep_csv):
    code, text = sweep_csv
    assert_fails(W.check_sweep_csv, code, text.replace("wall_ms", "wall_s", 1),
                 "theorem2", (2, 4))
    assert_fails(W.check_sweep_csv, code, text, "theorem2", (2, 4, 8))
    assert_fails(W.check_sweep_csv, 1, text, "theorem2", (2, 4))


@pytest.fixture(scope="module")
def construction():
    T = isolab.expansive_generator(16, "svd_random", seed=5)
    rng = np.random.default_rng(0)
    return T, W.build_theorem2(T, 16), W._unit_vectors(rng, 8, 16)


def test_construct_check_accepts_real_construction(construction):
    T, built, probes = construction
    assert_passes(W.check_construction, T, *built, probes)


def test_construct_check_rejects_block_for_another_operator(construction):
    T, built, probes = construction
    other = isolab.expansive_generator(16, "svd_random", seed=6)
    space, block, _, trace = built
    copies = np.concatenate([space.labels[k] for k in ("H1", "H2", "H3", "H4")])
    T4_other = isolab.direct_sum_power(other, 4, space, copies)
    assert_fails(W.check_construction, T, space, block, T4_other, trace, probes)


def test_construct_check_rejects_orthogonality(construction):
    T, (space, block, T4, trace), probes = construction
    bad_trace = replace(trace, orthogonality_max=1e-6)
    assert_fails(W.check_construction, T, space, block, T4, bad_trace, probes)


class Scaled:
    """B scaled by a factor: no longer a 2-isometry off the kernel of B - 1."""

    def __init__(self, block, factor):
        self.block, self.factor = block, factor

    @property
    def operator_norm(self):
        return self.factor * self.block.operator_norm

    def apply(self, x):
        return self.factor * self.block.apply(x)


def test_defect_check_accepts_and_rejects():
    space, block = W.build_theorem1(4)
    assert_passes(W.check_defects, space, block, np.random.default_rng(1), 120)
    space, block = W.build_theorem1(4)
    assert_fails(W.check_defects, space, Scaled(block, 1.01),
                 np.random.default_rng(1), 120)


@pytest.fixture(scope="module")
def verify_state(tmp_path_factory):
    return W.verify_setup(3, str(tmp_path_factory.mktemp("verify")))


def _verify_report(entry, seed=3):
    cfg = harness.parse_config(["verify", "--input", entry["path"],
                                "--samples", "50", "--seed", str(seed)])
    buf = io.StringIO()
    code = harness.run_verify(cfg, stream=buf)
    return code, buf.getvalue(), cfg.tol_verify


def test_verify_check_accepts_real_reports(verify_state):
    for entry in verify_state["files"][:4]:
        assert_passes(W.check_verify, entry, *_verify_report(entry))


def test_verify_check_rejects_wrong_verdicts(verify_state):
    nil, svd = verify_state["files"][:2]
    assert nil["kind"] == "id+A" and svd["kind"] == "svd"
    code, text, tol = _verify_report(nil)
    assert_fails(W.check_verify, nil, code,
                 text.replace("(3-isometry: yes)", "(3-isometry: no)"), tol)
    assert_fails(W.check_verify, nil, 0, text, tol)
    code, text, tol = _verify_report(svd)
    assert_fails(W.check_verify, svd, code,
                 text.replace("(expansive: yes)", "(expansive: no)"), tol)
    assert_fails(W.check_verify, {**svd, "sigma_min": svd["sigma_min"] * 1.01},
                 code, text, tol)


def test_raising_case_counts_as_failed():
    tally = W.Tally()
    tally.case("ok", lambda: [])
    tally.case("boom", lambda: 1 / 0)
    assert (tally.attempted, tally.failed, tally.fail_frac) == (2, 1, 0.5)
    assert "ZeroDivisionError" in tally.failures[0]


# --- speed scaling ---------------------------------------------------------


class SlowKernel:
    """A reference that takes 10 ms and reports twice its reference time."""
    kind = "small"

    def seconds(self) -> float:
        time.sleep(0.01)
        return 2 * speed.REF_S["small"]

    def speed(self, runs: int) -> list:
        return [speed.REF_S["small"] / self.seconds() for _ in range(runs)]


def test_sampler_scales_by_kernel_speed_and_drops_kernel_time():
    sampler = speed.Sampler(SlowKernel())
    old = signal.getsignal(signal.SIGALRM)

    def spin():  # 0.4 s of CPU; the kernel's sleeps use none
        end = time.thread_time() + 0.4
        while time.thread_time() < end:
            pass

    with sampler:
        start = time.perf_counter()
        wall, scaled = sampler.timed(spin)
        elapsed = time.perf_counter() - start
    # the kernel ran several times; its 10 ms each are not the pass's time
    assert len(sampler.speeds) >= 4
    assert elapsed - wall == pytest.approx(sampler.spent, abs=1e-3)
    assert wall == pytest.approx(0.4, rel=0.1)
    # at half the reference speed a pass scales to half its measured time
    assert scaled == pytest.approx(wall / 2)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is old


@pytest.mark.parametrize("kind", sorted(speed.REF_S))
def test_reference_kernels_run(kind):
    ref = speed.Reference(kind)
    speeds = ref.speed(3)
    assert len(speeds) == 3 and all(0 < v < 100 for v in speeds)


# --- tracer ----------------------------------------------------------------


def test_self_time_of_synthetic_tree():
    #            0: root [0, 10]
    #   1: a [1, 4]   2: b [3, 6] (overlaps a)   3: c [8, 12] (past root)
    #   4: a's child [2, 3]
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    got = self_times(start, end, parent)
    # root: 10 - |[1,6] u [8,10]| = 3; a: 3 - 1; b, c, leaf: own duration
    assert got.tolist() == [3.0, 2.0, 3.0, 4.0, 1.0]


def test_tracer_records_parents_cases_and_self_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    tracer.case_id = 7
    outer()
    spans = tracer.arrays()
    assert [tracer.names[i] for i in spans["name_id"]] == ["outer", "inner", "inner"]
    assert spans["parent"].tolist() == [-1, 0, 0]
    assert spans["case"].tolist() == [7, 7, 7]
    # clock ticks: outer 0..5, inner 1..2 and 3..4
    assert spans["self"].tolist() == [3.0, 1.0, 1.0]


def test_missing_targets_are_absent_and_patches_are_undone(tmp_path):
    from isolab import operators
    original = operators.defect_form
    tracer = Tracer()
    tracer.install("isolab", [("operators", "NoSuchClass.apply", None),
                              ("operators", "LazyIsometry.no_such_method", None),
                              ("no_such_module", "f", None),
                              ("operators", "defect_form", None)])
    try:
        assert tracer.absent == {"operators.NoSuchClass.apply",
                                 "operators.LazyIsometry.no_such_method",
                                 "no_such_module.f"}
        # every binding of the function is traced, not just its home module
        assert harness.defect_form is operators.defect_form is isolab.defect_form
        assert operators.defect_form is not original
        isolab.defect_form(isolab.DenseOperator(np.eye(2)), np.ones(2), 1)
    finally:
        tracer.uninstall()
    assert operators.defect_form is original and harness.defect_form is original
    assert tracer.names == ["operators.defect_form"] and len(tracer.start) == 1
    spans = tracer.arrays()
    metrics = layers.layer_metrics(tracer.names, spans, 0, 1, {}, [])
    assert metrics["operators.defect_form.calls"] == 1
    assert metrics["operators.LazyIsometry.apply.calls"] == 0
    tracer.dump(tmp_path / "spans.npz")
    with np.load(tmp_path / "spans.npz") as saved:
        assert saved["names"].tolist() == ["operators.defect_form"]


def test_layer_metrics_cover_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer()
    spans = tracer.arrays()
    produced = set(layers.layer_metrics(tracer.names, spans, 0, 0, {}, []))
    listed = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_frac"}
    assert listed == produced


# --- result-line contract --------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_contract(trace):
    proc = subprocess.run([sys.executable, str(Path(run.__file__)), "--workload",
                           "verify-dense", "--seed", "4", "--seconds", "0",
                           "--trace", str(trace)],
                          capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert result["metrics"]["operators.defect_form.calls"]["value"] > 0
        assert result["metrics"]["constructions.certificate_evaluate.calls"]["value"] == 0
        detail = json.loads(proc.stdout.splitlines()[-2][len("detail "):])
        assert detail["spans_file"] == ".bench_spans/verify-dense-4.npz"
        spans_file = run.ROOT / detail["spans_file"]
        with np.load(spans_file) as saved:
            assert len(saved["start"]) > 0
        spans_file.unlink()
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
