import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from isolab import (DenseOperator, InvalidFamilyParameter, UsageError,
                    certificate_evaluate, defect_form, expansive_generator,
                    prepare_space, random_2nilpotent, random_unitary,
                    standard_f_basis, theorem2_construct,
                    three_isometry_from_nilpotent, write_operator)
from isolab import harness
from isolab.constructions import (DEFECT_THRESHOLD, EXPANSIVITY_THRESHOLD,
                                  Certificate)
from isolab.harness import (_COMMAND_FLAGS, CSV_HEADER, RunConfig,
                            emit_report, main, parse_config, read_sweep_csv,
                            run_construction, run_sweep, run_verify)


class TestParseConfig:
    def test_theorem1_basic(self):
        cfg = parse_config(["theorem1", "--dim-f", "8", "--dim-h", "16"])
        assert cfg.command == "theorem1"
        assert cfg.n_list == [8]
        assert cfg.dim_h == 16
        assert cfg.seed == 0 and cfg.samples == 100

    def test_sweep_list_and_family(self):
        cfg = parse_config(["sweep", "--n", "2,4,8", "--family", "diag:1.5,2"])
        assert cfg.n_list == [2, 4, 8]
        assert cfg.family == "diag:1.5,2"
        assert cfg.dim_h == 8  # defaults to max(n)

    def test_dim_f_exceeds_dim_h(self):
        with pytest.raises(UsageError, match="--dim-f"):
            parse_config(["theorem2", "--dim-f", "9", "--dim-h", "4"])

    def test_unknown_flag(self):
        with pytest.raises(UsageError):
            parse_config(["theorem1", "--dim-f", "2", "--frobnicate", "1"])

    def test_missing_required(self):
        with pytest.raises(UsageError, match="--n"):
            parse_config(["sweep"])
        with pytest.raises(UsageError, match="--dim-f"):
            parse_config(["theorem1"])
        with pytest.raises(UsageError, match="--input"):
            parse_config(["verify"])

    def test_config_file_merge_and_override(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"dim_f": 4, "dim_h": 8, "seed": 7}))
        cfg = parse_config(["theorem1", "--config", str(cfgfile),
                            "--seed", "9"])
        assert cfg.dim_h == 8 and cfg.n_list == [4]
        assert cfg.seed == 9  # CLI wins over file

    def test_repeated_parses_give_independent_equal_configs(self):
        first = ["sweep", "--n", "2,4", "--family", "id-plus-psd",
                 "--seed", "3", "--format", "report"]
        a = parse_config(first)
        b = parse_config(["theorem1", "--dim-f", "4", "--capacity", "40"])
        c = parse_config(first)
        assert a == c and a is not c and a.n_list is not c.n_list
        assert (b.command, b.n_list, b.capacity, b.family, b.seed) == (
            "theorem1", [4], 40, "scalar:2", 0)
        assert (c.family, c.seed, c.format, c.capacity) == (
            "id-plus-psd", 3, "report", None)
        c.n_list.append(8)
        assert a.n_list == [2, 4]

    def test_config_file_unknown_key(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"dim_f": 4, "color": "red"}))
        with pytest.raises(UsageError, match="color"):
            parse_config(["theorem1", "--config", str(cfgfile)])


class TestSweep:
    def test_scalar_two_bounds(self):
        cfg = parse_config(["sweep", "--n", "2,4,8", "--family", "scalar:2"])
        rows = run_sweep(cfg)
        np.testing.assert_allclose([r.bound_theoretical for r in rows],
                                   [1.5, 0.75, 0.375])
        for row in rows:
            assert row.error is None
            assert row.bound_measured <= row.bound_theoretical * (1 + 1e-9)
            assert row.ok

    def test_identity_family_zero_bound(self):
        cfg = parse_config(["sweep", "--n", "2,4", "--family", "scalar:1"])
        for row in run_sweep(cfg):
            assert row.bound_measured <= 1e-12

    def test_rows_increasing_in_n(self):
        cfg = parse_config(["sweep", "--n", "8,2,4", "--family", "scalar:2"])
        assert [r.n for r in run_sweep(cfg)] == [2, 4, 8]

    def test_failed_row_marked_not_aborting(self, capsys):
        # theorem1 needs dim H + 2n coordinates: 12 fit in 20, 24 do not
        cfg = parse_config(["theorem1", "--dim-f", "2", "--dim-h", "8",
                            "--capacity", "20"])
        cfg.n_list = [2, 8]
        rows = run_sweep(cfg)
        assert len(rows) == 2
        assert rows[0].error is None
        assert rows[1].error is not None and np.isnan(rows[1].bound_measured)
        assert not rows[1].ok
        # the CSV keeps its NaN row; the reason goes to stderr
        argv = ["theorem1", "--dim-f", "8", "--dim-h", "8", "--capacity", "20"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == emit_report(rows[1:], "csv", None)
        assert err == f"error: n=8: {rows[1].error}\n"

    def test_theorem1_row(self):
        cfg = parse_config(["theorem1", "--dim-f", "4"])
        row = run_construction(cfg, 4, None)
        assert row.bound_measured == pytest.approx(0.25, abs=1e-10)

    def test_determinism_of_numeric_payload(self):
        cfg = parse_config(["sweep", "--n", "2,4", "--family", "svd-random",
                            "--seed", "3"])
        a, b = run_sweep(cfg), run_sweep(cfg)
        for ra, rb in zip(a, b):
            for key in CSV_HEADER[:-1]:  # wall_ms is timing, not payload
                assert getattr(ra, key) == getattr(rb, key)


class TestEmitReport:
    def test_empty_rows_header_only(self):
        assert emit_report([], "csv", None) == ",".join(CSV_HEADER) + "\n"

    def test_round_trip(self):
        cfg = parse_config(["sweep", "--n", "2,4", "--family", "diag:1.5,2"])
        rows = run_sweep(cfg)
        text = emit_report(rows, "csv", None)
        parsed = read_sweep_csv(text)
        for orig, back in zip(rows, parsed):
            for key in CSV_HEADER:
                assert getattr(orig, key) == getattr(back, key)

    def test_row_below_expansivity_threshold_fails(self):
        row = Certificate(n=4, epsilon=0.25, norm_T=2.0, bound_theoretical=0.75,
                          bound_measured=0.25, defect_max=0.0,
                          expansivity_min=1.0 - EXPANSIVITY_THRESHOLD / 2,
                          orthogonality_max=0.0, wall_ms=1.0)
        assert row.ok
        row.expansivity_min = 1.0 - 2 * EXPANSIVITY_THRESHOLD
        assert not row.ok

    def test_report_format_mirrors_fields(self):
        row = Certificate(n=4, epsilon=0.25, norm_T=2.0, bound_theoretical=0.75,
                          bound_measured=0.25, defect_max=0.0,
                          expansivity_min=1.0, orthogonality_max=0.0,
                          wall_ms=1.0, bound_exact=0.25)
        text = emit_report([row], "report", None)
        for key in CSV_HEADER[1:]:
            assert key in text
        assert "  bound_measured: 0.25\n  bound_exact: 0.25\n" in text
        assert "  defect3_max: 0\n" in text  # twice defect_max

    def test_report_format_of_an_error_row(self):
        row = Certificate(3, 1 / 3, *[np.nan] * 7, error="out of budget")
        lines = emit_report([row], "report", None).splitlines()
        assert lines[0] == "run n=3"
        keys = list(CSV_HEADER[2:])
        keys.insert(keys.index("bound_measured") + 1, "bound_exact")
        keys.insert(keys.index("defect_max") + 1, "defect3_max")
        keys.insert(keys.index("orthogonality_max") + 1, "orthogonality_rel")
        assert lines[2:] == [f"  {key}: nan" for key in keys] + [
            "  error: out of budget"]

    def test_report_gives_orthogonality_relative_to_norm_t(self, capsys):
        # diag:1,1e30 at n = 3: absolute orthogonality 3.5e13, relative to
        # ||T|| = 1e30 within rounding; the CSV header stays as it is
        assert main(["sweep", "--family", "diag:1,1e30", "--n", "1,2,3,4",
                     "--dim-h", "4", "--format", "report"]) == 0
        runs = capsys.readouterr().out.split("run n=")[1:]
        fields = dict(line.strip().split(": ")
                      for line in runs[2].splitlines()[1:])
        assert float(fields["orthogonality_max"]) > 1e13
        assert float(fields["orthogonality_rel"]) <= 1e-10
        assert "orthogonality_rel" not in CSV_HEADER

    def test_read_rejects_a_wrong_header(self):
        with pytest.raises(ValueError, match="unexpected header"):
            read_sweep_csv("n,epsilon\n2,0.5\n")

    @pytest.mark.parametrize("body, reason", [
        (None, "unexpected header ()"), ("2,0.5\n", "line 2: malformed"),
        ("2" + ",1" * 9 + "\n", "line 2: malformed"),
        ("2" + ",1" * 8 + "\n\n", "line 3: malformed")],
        ids=["empty-text", "two-fields", "ten-fields", "blank-line"])
    def test_read_rejects_malformed_text(self, body, reason):
        # a tenth field would be read into bound_exact, two would be a
        # TypeError and empty text a bare StopIteration
        text = "" if body is None else ",".join(CSV_HEADER) + "\n" + body
        with pytest.raises(ValueError, match=re.escape(reason)):
            read_sweep_csv(text)

    def test_writes_file(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_report([], "csv", str(path))
        assert path.read_text() == ",".join(CSV_HEADER) + "\n"


def reference_ok(row):
    """The pass/fail rule of a CLI row, written out apart from Certificate."""
    if row.error is not None:
        return False
    return (row.bound_measured <= row.bound_theoretical * (1 + 1e-9)
            and row.defect_max <= DEFECT_THRESHOLD
            and 1.0 - row.expansivity_min <= EXPANSIVITY_THRESHOLD)


def passing_row(**changes):
    fields = dict(n=4, epsilon=0.25, norm_T=2.0, bound_theoretical=0.75,
                  bound_measured=0.25, defect_max=1e-14,
                  expansivity_min=1.0 - 5e-15, orthogonality_max=0.0,
                  wall_ms=1.0)
    return Certificate(**{**fields, **changes})


_SLACK = 0.75 * (1 + 1e-9)
_EXP = 1.0 - EXPANSIVITY_THRESHOLD


class TestCertificateRecord:
    def test_leading_fields_are_the_csv_header(self):
        names = [f.name for f in dataclasses.fields(Certificate)]
        assert tuple(names[:len(CSV_HEADER)]) == CSV_HEADER

    @pytest.mark.parametrize("changes", [
        {},
        {"bound_measured": _SLACK},
        {"bound_measured": np.nextafter(_SLACK, 0)},
        {"bound_measured": np.nextafter(_SLACK, 1)},
        {"bound_measured": 0.75 * (1 + 2e-9)},
        {"defect_max": DEFECT_THRESHOLD},
        {"defect_max": np.nextafter(DEFECT_THRESHOLD, 0)},
        {"defect_max": np.nextafter(DEFECT_THRESHOLD, 1)},
        {"expansivity_min": _EXP},
        {"expansivity_min": np.nextafter(_EXP, 0)},
        {"expansivity_min": np.nextafter(_EXP, 1)},
        {"expansivity_min": 1.0 + 1e-3},
        {"bound_measured": np.nan},
        {"bound_theoretical": np.nan},
        {"defect_max": np.nan},
        {"expansivity_min": np.nan},
        {"norm_T": np.nan, "orthogonality_max": np.nan, "wall_ms": np.nan},
        {"error": "need 2 coordinates, 1 left of 3"},
        {"error": ""},
        # the row run_sweep records for a failed run
        {**dict.fromkeys(CSV_HEADER[2:], np.nan), "error": "out of coordinates"},
        {**dict.fromkeys(CSV_HEADER[2:], np.nan)},
    ])
    def test_ok_matches_the_reference_rule(self, changes):
        row = passing_row(**changes)
        assert row.ok == reference_ok(row)

    def test_error_row_read_back_still_fails(self):
        rows = run_sweep(parse_config(["theorem2", "--dim-f", "2",
                                       "--capacity", "3"]))
        assert rows[0].error is not None
        (back,) = read_sweep_csv(emit_report(rows, "csv", None))
        assert back.error is None and not back.ok

    def test_sweep_rows_carry_the_certificate_bound_exact(self):
        cfg = parse_config(["sweep", "--family", "svd-random", "--n", "2,5",
                            "--dim-h", "8", "--seed", "3"])
        T = expansive_generator(8, "svd_random", seed=3)
        for row in run_sweep(cfg):
            space = prepare_space(8)
            f_basis = standard_f_basis(space, row.n)
            block, T4, trace = theorem2_construct(T, f_basis, space)
            cert = certificate_evaluate(
                T4, block, trace, f_basis, operator_norm_T=T.operator_norm,
                bound_theoretical=(T.operator_norm + 1) / row.n)
            assert np.isfinite(row.bound_exact)
            assert row.bound_exact == cert.bound_exact


class TestVerify:
    def run_verify_on(self, tmp_path, matrix):
        path = tmp_path / "op.json"
        write_operator(path, matrix)
        cfg = RunConfig(command="verify", input_path=str(path), samples=50)
        out = io.StringIO()
        code = run_verify(cfg, stream=out)
        return code, out.getvalue()

    def test_expansive_operator_passes(self, tmp_path):
        code, text = self.run_verify_on(tmp_path, 2 * np.eye(3))
        assert code == 0
        assert "expansive: yes" in text
        # 2*id is expansive but no m-isometry for m <= 3
        assert text.count("isometry: no") == 3

    def test_identity_is_everything(self, tmp_path):
        code, text = self.run_verify_on(tmp_path, np.eye(3))
        assert code == 0
        assert text.count("isometry: yes") == 3

    def test_contraction_fails(self, tmp_path):
        code, text = self.run_verify_on(tmp_path, 0.5 * np.eye(3))
        assert code == 1
        assert "expansive: no" in text

    def test_three_isometry_detected(self, tmp_path):
        # id + nilpotent shift: a 3-isometry, but not expansive
        code, text = self.run_verify_on(
            tmp_path, np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert code == 1
        assert "expansive: no" in text
        lines = text.splitlines()
        assert "(1-isometry: no)" in lines[0]
        assert "(2-isometry: no)" in lines[1]
        assert "(3-isometry: yes)" in lines[2]

    CLOSURE = re.compile(r"closure: every expansive B \(so every 2-isometry\) "
                         r"has \|\|\(B - T\)x\|\| >= 1 - sigma_min = (\S+) at "
                         r"the unit right singular vector x of sigma_min")

    @pytest.mark.parametrize("name", ["half", "shift", "id+A"])
    def test_non_expansive_states_closure_obstruction(self, tmp_path, name):
        M = {"half": 0.5 * np.eye(3),
             "shift": np.array([[1.0, 1.0], [0.0, 1.0]]),
             "id+A": three_isometry_from_nilpotent(
                 random_2nilpotent(16, seed=3)).matrix}[name]
        code, text = self.run_verify_on(tmp_path, M)
        assert code == 1
        lines = text.splitlines()
        assert len(lines) == 5 and lines[3].startswith("sigma_min: ")
        bound = float(self.CLOSURE.fullmatch(lines[4]).group(1))
        _, s, vh = np.linalg.svd(M)
        smin, x = s[-1], vh[-1].conj()  # x: the right singular vector of smin
        assert bound == pytest.approx(1.0 - smin, rel=1e-12)
        # ||Bx|| >= 1 > sigma_min = ||Tx||
        assert np.linalg.norm(M @ x) == pytest.approx(smin, rel=1e-9)
        B = np.eye(len(M))  # an isometry, so expansive
        assert np.linalg.norm((B - M) @ x) >= bound * (1 - 1e-12)
        expected = {"half": 0.5, "shift": (3 - 5 ** 0.5) / 2,
                    "id+A": 1 - 0.1308273737}
        assert bound == pytest.approx(expected[name], abs=1e-10)

    def test_expansive_report_has_no_closure_line(self, tmp_path):
        code, text = self.run_verify_on(tmp_path, 2 * np.eye(3))
        assert code == 0
        assert len(text.splitlines()) == 4 and "closure" not in text


class TestVerifyExact:
    DEFECT_LINE = re.compile(r"defect order (\d): max \|d_\d\| = (\S+) ")

    @staticmethod
    def operators(dim, rng):
        """svd_random, id + A with A 2-nilpotent, and U diag(s) V* with s
        from 0.3 to 2: expansive, a 3-isometry and a non-expansive one."""
        s = np.linspace(0.3, 2.0, dim)
        return {"svd": expansive_generator(dim, "svd_random", seed=dim).matrix,
                "id+A": np.eye(dim) + random_2nilpotent(dim, dim + 1).matrix,
                "usv": (random_unitary(dim, rng) * s) @ random_unitary(dim, rng)}

    @pytest.mark.parametrize("dim", [2, 8, 48])
    def test_reported_supremum_bounds_samples_and_is_attained(self, tmp_path,
                                                              dim):
        rng = np.random.default_rng(dim)
        for name, M in self.operators(dim, rng).items():
            path = tmp_path / f"{name}.json"
            write_operator(path, M)
            out = io.StringIO()
            run_verify(RunConfig(command="verify", input_path=str(path)), out)
            op, scale = DenseOperator(M), max(1.0, np.linalg.norm(M, 2) ** 2)
            for found in self.DEFECT_LINE.finditer(out.getvalue()):
                m, value = int(found.group(1)), float(found.group(2))
                tol = scale ** m
                # beta_m from its sum, not from verify's recursion
                powers = [np.linalg.matrix_power(M, k) for k in range(m + 1)]
                beta = sum((-1) ** (m - k) * comb(m, k) * np.conj(P.T) @ P
                           for k, P in enumerate(powers))
                w, vecs = np.linalg.eigh(0.5 * (beta + np.conj(beta.T)))
                top = vecs[:, np.argmax(np.abs(w))]
                assert abs(abs(defect_form(op, top, m)) - value) <= 1e-10 * tol
                for _ in range(200):
                    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                    x /= np.linalg.norm(x)
                    assert abs(defect_form(op, x, m)) <= value + 1e-12 * tol

    def test_calls_defect_form_through_the_harness_binding(self, tmp_path,
                                                           monkeypatch):
        # the benchmark's tracer counts verify's forms by wrapping this name
        orders = []

        def counting(B, x, m):
            orders.append(m)
            return defect_form(B, x, m)
        monkeypatch.setattr(harness, "defect_form", counting)
        path = tmp_path / "op.json"
        write_operator(path, 2 * np.eye(3))
        run_verify(RunConfig(command="verify", input_path=str(path)),
                   io.StringIO())
        assert orders == [1, 2, 3]

    def test_output_ignores_samples_and_seed(self, tmp_path):
        path = tmp_path / "op.json"
        write_operator(path, expansive_generator(8, "svd_random", seed=4).matrix)
        reports = set()
        for flags in (["--samples", "1"], ["--samples", "20000"],
                      ["--seed", "0"], ["--seed", "12345"]):
            out = io.StringIO()
            cfg = parse_config(["verify", "--input", str(path), *flags])
            reports.add((run_verify(cfg, out), out.getvalue()))
        assert len(reports) == 1


class TestOneSVD:
    """T's singular values come from one SVD per run, cached on T."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls, svd = [], np.linalg.svd

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)
        # np.linalg.norm(M, 2) calls the svd of numpy's private module,
        # which patching np.linalg alone would not count
        for module in {np.linalg, getattr(np.linalg, "_linalg", np.linalg)}:
            monkeypatch.setattr(module, "svd", counting)
        return calls

    @pytest.mark.parametrize("argv, dim_h", [
        (["sweep", "--family", "svd-random", "--n", "2,4,8", "--seed", "3"], 8),
        (["sweep", "--family", "diag:1.5,2", "--n", "2,4"], 4),
        (["theorem2", "--family", "id-plus-psd", "--dim-f", "4",
          "--dim-h", "8"], 8),
    ], ids=["sweep", "sweep-diag", "theorem2"])
    def test_construction_run_makes_one_svd(self, argv, dim_h, svd_calls,
                                            capsys):
        assert main(argv) == 0, capsys.readouterr().err
        assert svd_calls == [(dim_h, dim_h)]

    def test_theorem1_makes_none(self, svd_calls, capsys):
        assert main(["theorem1", "--dim-f", "4"]) == 0
        assert svd_calls == []

    def test_verify_makes_one_svd(self, tmp_path, svd_calls):
        path = tmp_path / "op.json"
        write_operator(path, expansive_generator(6, "svd_random", seed=2).matrix)
        svd_calls.clear()
        out = io.StringIO()
        assert run_verify(RunConfig(command="verify", input_path=str(path)),
                          out) == 0
        assert svd_calls == [(6, 6)]


HALF = '{"rows": 1, "cols": 1, "entries": [[0.5, 0]]}'


class TestMain:
    def test_sweep_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(["sweep", "--n", "2,4", "--family", "scalar:2",
                     "--out", str(out)])
        assert code == 0
        rows = read_sweep_csv(out.read_text())
        assert [r.n for r in rows] == [2, 4]

    def test_sweep_epsilon_is_one_over_n_exactly(self, capsys):
        ns = [2, 3, 5, 7, 8, 16, 32]
        assert main(["sweep", "--family", "svd-random", "--seed", "3",
                     "--n", ",".join(map(str, ns))]) == 0
        rows = read_sweep_csv(capsys.readouterr().out)
        assert [(r.n, r.epsilon) for r in rows] == [(n, 1.0 / n) for n in ns]

    def test_id_plus_psd_family_certifies(self, capsys):
        assert main(["sweep", "--family", "id-plus-psd", "--n", "1,3,7",
                     "--dim-h", "8", "--seed", "5"]) == 0
        rows = read_sweep_csv(capsys.readouterr().out)
        T = expansive_generator(8, "id_plus_psd", seed=5)
        assert [(r.n, r.norm_T) for r in rows] == [
            (n, T.operator_norm) for n in (1, 3, 7)]
        assert all(r.ok for r in rows)

    @pytest.mark.parametrize("capacity", ["24", "50"])
    def test_certificate_fits_any_run_that_built(self, capacity, capsys):
        # 24 = dim H + 2n is the construction's whole footprint
        assert main(["theorem1", "--dim-f", "8", "--dim-h", "8",
                     "--capacity", capacity]) == 0

    def test_usage_error_exit_two(self, capsys):
        assert main(["theorem2", "--dim-f", "9", "--dim-h", "4"]) == 2
        assert "--dim-f" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, content, reason", [
        (["verify"], '{"rows": 2, "cols": 3, "entries": ' + str([[1, 0]] * 6)
         + '}', "2x3"),
        (["verify"], '{"rows": 1, "cols": 1, "entries": [[NaN, 0]]}',
         "non-finite"),
        (["verify"], None, "No such file"),
        (["verify"], '{"rows": 1, ', "JSONDecodeError"),
        (["verify"], '{"rows": 1, "cols": 1, "entries": [[1' + '0' * 400
         + ', 0]]}', "OverflowError"),
        (["sweep", "--n", "2", "--family", "diag:abc"], None, "diag:abc"),
        (["sweep", "--n", "2", "--seed", "-1"], None, "--seed"),
        (["theorem1", "--dim-f", "2", "--capacity", "0"], None, "--capacity"),
        (["theorem2", "--dim-f", "0"], None, "--dim-f"),
        (["verify", "--tol-verify", "-1"],
         '{"rows": 1, "cols": 1, "entries": [[2, 0]]}', "--tol-verify"),
        # only verify samples; the construction commands certify exactly
        (["sweep", "--n", "2", "--samples", "0"], None, "--samples"),
        (["sweep", "--n", "2", "--samples", "5"], None, "--samples"),
        (["verify", "--samples", "-3"],
         '{"rows": 1, "cols": 1, "entries": [[0.5, 0]]}', "--samples"),
        # each subcommand takes only the flags it reads
        (["theorem1", "--dim-f", "2", "--tol-verify", "1e-300"], None,
         "--tol-verify"),
        (["verify", "--out", "o.txt"],
         '{"rows": 1, "cols": 1, "entries": [[2, 0]]}', "--out"),
        # config-file values carry their flag's type
        (["verify", "--config", "PATH"], '{"samples": "5"}', "expected int"),
        (["theorem1", "--config", "PATH"], '{"dim_f": "2"}', "expected int"),
        (["theorem1", "--config", "PATH"], '{"dim_f": 2, "format": "xml"}',
         "not one of"),
        (["theorem1", "--config", "PATH"], '[2]', "JSON object"),
        (["theorem1", "--dim-f", "2", "--out", "/nonexistent/dir/x.csv"], None,
         "--out"),
        # non-finite family parameters
        (["sweep", "--n", "2", "--family", "diag:inf"], None, "[1, inf)"),
        (["sweep", "--n", "2", "--family", "diag:nan"], None, "[1, inf)"),
        (["sweep", "--n", "2", "--family", "scalar:inf"], None, "[1, inf)"),
        # out-of-range family parameters name their flag
        (["sweep", "--n", "2", "--family", "diag:0.5"], None,
         "--family diag:0.5: "),
        (["sweep", "--n", "2", "--family", "scalar:0.5"], None,
         "--family scalar:0.5: "),
        # huge but finite: dim(F) ||T|| or sigma_max just above its limit
        (["theorem2", "--dim-f", "2", "--family", "scalar:5.0000001e75"],
         None, "exceeds 1e+76"),
        (["theorem2", "--dim-f", "2", "--family", "scalar:1e77"], None,
         "exceeds 1e+76"),
        (["theorem2", "--dim-f", "2", "--family", "scalar:1e100"], None,
         "exceeds 1e+76"),
        (["sweep", "--n", "2,3", "--family", "diag:1e200"], None,
         "exceeds 1e+76"),
        (["verify"], '{"rows": 1, "cols": 1, "entries": [[1.0000001e51, 0]]}',
         "exceeds 1e+51"),
        (["verify"], '{"rows": 1, "cols": 1, "entries": [[1e60, 0]]}',
         "exceeds 1e+51"),
        # the shape is two JSON integers >= 1
        (["verify"], '{"rows": 2.7, "cols": 2, "entries": ' + str([[1, 0]] * 4)
         + '}', "JSON integers"),
        (["verify"], '{"rows": true, "cols": true, "entries": [[2, 0]]}',
         "JSON integers"),
        (["verify"], '{"rows": 0, "cols": 0, "entries": []}', "JSON integers"),
        # so are the entries numbers: complex(True, False) would read as 1
        (["verify"], '{"rows": 2, "cols": 2, "entries": '
         '[[true, false], [0, 0], [0, 0], [true, 0]]}', "not true or false"),
        (["verify"], '{"rows": "1", "cols": 1, "entries": [[2, 0]]}',
         "JSON integers"),
        # the tolerance lies in (0, 1), else the contraction 0.5 passes
        (["verify", "--tol-verify", "inf"], HALF, "--tol-verify"),
        (["verify", "--tol-verify", "1.5"], HALF, "--tol-verify"),
        (["verify", "--tol-verify", "nan"], HALF, "--tol-verify"),
        (["verify", "--config", "PATH"], '{"tol_verify": Infinity}',
         "--tol-verify"),
        # malformed sweep lists and family specs, an unreadable config
        (["sweep", "--n", "2,x"], None, "--n: ValueError: invalid literal"),
        (["sweep", "--n", "0"], None, "--n: entries must be positive"),
        (["sweep", "--n", "2", "--family", "diag:"], None,
         "--family diag:: ValueError: could not convert string to float"),
        # an empty list entry is refused, not skipped
        (["sweep", "--n", "2,,3"], None,
         "--n: ValueError: invalid literal for int() with base 10: ''"),
        (["sweep", "--n", "2", "--family", "diag:1,,2"], None,
         "--family diag:1,,2: ValueError: could not convert string to float"),
        (["sweep", "--n", "2", "--family", "nope"], None, "unknown spec"),
        (["theorem1", "--dim-f", "2", "--config", "/nonexistent/cfg.json"],
         None, "--config: "),
        # a dim(H) numpy cannot size names the flag it came from; those it
        # can size but not hold fail at the d x d matrix, before allocating
        (["theorem1", "--dim-f", "2", "--dim-h", str(10**30)], None,
         "--dim-h: "),
        (["theorem1", "--dim-f", str(10**30)], None, "--dim-f: "),
        (["sweep", "--n", "2", "--family", "diag:2", "--dim-h", str(10**30)],
         None, "--dim-h: "),
        (["sweep", "--n", f"2,{10**30}"], None, "--n: "),
        (["theorem1", "--dim-f", "2", "--config", "PATH"],
         '{"dim_h": ' + str(10**30) + '}', "--dim-h: "),
        (["sweep", "--n", "2", "--family", "id-plus-psd", "--dim-h",
          "4000000000"], None,
         "--family id-plus-psd: ValueError: array is too big"),
        (["sweep", "--n", "2", "--family", "svd-random", "--dim-h",
          "4000000000"], None,
         "--family svd-random: ValueError: array is too big"),
        # input that fails to read with an exception of its own kind
        (["theorem1", "--dim-f", "2", "--config", "PATH"],
         b'{"dim_h": "\xff"}', "--config: UnicodeDecodeError: "),
        (["theorem1", "--dim-f", "2", "--config", "PATH"],
         '{"a": ' * 50000 + '1' + '}' * 50000, "--config: RecursionError: "),
        (["verify"], "[" * 100000 + "]" * 100000, ": RecursionError: "),
        (["theorem1", "--dim-f", "2", "--config", "PATH"],
         '{"out": "a\\u0000b.csv"}',
         "--out a\\x00b.csv: ValueError: embedded null byte"),
        # control characters in a message print as their escapes, so it
        # is one line and sends nothing to the terminal raw
        (["theorem1", "--dim-f", "2", "--bogus", "a\nb"], None,
         "unrecognized arguments: --bogus a\\nb"),
        (["sweep", "--n", "2", "--family", "diag:\n"], None,
         "--family diag:\\n: ValueError: "),
        (["theorem1", "--dim-f", "2", "--out", "/nonexistent/\x1b[2J/x.csv"],
         None, "--out /nonexistent/\\x1b[2J/x.csv: FileNotFoundError: "),
    ], ids=["non-square", "nan-entry", "missing-file", "malformed-json",
            "huge-int-entry",
            "bad-family", "negative-seed", "zero-capacity", "zero-dim-f",
            "verify-negative-tolerance", "zero-samples", "sweep-samples",
            "verify-negative-samples", "theorem1-tol-verify", "verify-out",
            "config-string-samples", "config-string-dim-f",
            "config-bad-format", "config-not-object", "unwritable-out",
            "infinite-diag", "nan-diag", "infinite-scalar", "diag-below-one",
            "scalar-below-one",
            "scalar-above-limit", "scalar-1e77", "scalar-1e100", "diag-1e200",
            "verify-above-limit", "verify-1e60", "float-rows", "bool-shape",
            "zero-shape", "bool-entries", "string-rows", "tol-verify-inf", "tol-verify-1.5",
            "tol-verify-nan", "config-tol-verify-inf", "n-not-integer",
            "n-zero", "diag-no-entries", "n-empty-entry", "diag-empty-entry",
            "unknown-family",
            "unreadable-config", "dim-h-1e30", "dim-f-1e30",
            "sweep-dim-h-1e30", "n-1e30", "config-dim-h-1e30",
            "id-plus-psd-4e9", "svd-random-4e9", "config-not-utf-8",
            "config-nested-50000", "operator-nested-100000",
            "config-out-null-byte", "argument-line-break",
            "family-line-break", "out-escape-sequence"])
    def test_bad_input_exit_two(self, tmp_path, capsys, argv, content, reason):
        path = tmp_path / "op.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        argv = [str(path) if a == "PATH" else a for a in argv]
        if argv[0] == "verify":
            argv = argv + ["--input", str(path)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err[:-1].isprintable()  # no control character but the end
        assert reason in err

    def test_norms_at_their_limits_still_certify(self, tmp_path, capsys):
        # dim(F) ||T|| = 1e76 and sigma_max = 1e51 exactly; the values just
        # above are rejected in test_bad_input_exit_two
        for family in ("scalar:5e75", "scalar:1e20"):
            assert main(["theorem2", "--dim-f", "2", "--family", family]) == 0
        path = tmp_path / "op.json"
        path.write_text('{"rows": 1, "cols": 1, "entries": [[1e51, 0]]}')
        assert main(["verify", "--input", str(path)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("family", ["scalar:1e10", "scalar:1e20"])
    def test_expansivity_normalized_at_large_norms(self, family, capsys):
        # at 1e20 the entries of B*B are about 1e40, so its smallest
        # eigenvalue in floats would be roundoff of order 1e24
        assert main(["theorem2", "--dim-f", "2", "--family", family]) == 0
        (row,) = read_sweep_csv(capsys.readouterr().out)
        assert abs(row.expansivity_min - 1.0) <= 1e-8

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 7.28 TiB for an array with shape "
         "(1000000000000,) and data type int64", "Unable to allocate 7.28 TiB"),
        ("", "MemoryError")], ids=["numpy-message", "bare"])
    def test_out_of_memory_exit_two(self, monkeypatch, capsys, message, shown):
        # a huge --dim-h ends in numpy's MemoryError; it is raised by hand
        # here, since a host that overcommits memory would try to allocate
        def out_of_memory(*args):
            raise MemoryError(message)
        monkeypatch.setattr(harness, "prepare_space", out_of_memory)
        assert main(["theorem1", "--dim-f", "1",
                     "--dim-h", "1000000000000"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {shown}")
        assert err.count("\n") == 1

    def test_unwritable_out_fails_before_any_row(self, monkeypatch, capsys):
        def no_rows(*args):
            raise AssertionError("a row was built")
        monkeypatch.setattr(harness, "run_construction", no_rows)
        assert main(["theorem2", "--family", "svd-random", "--seed", "1",
                     "--dim-f", "8", "--out", "/nonexistent/dir/x.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out /nonexistent/dir/x.csv")

    @pytest.mark.parametrize("fmt", ["csv", "report"])
    def test_out_file_holds_the_stdout_text(self, tmp_path, capsys, fmt):
        argv = ["sweep", "--n", "2,3", "--family", "scalar:2", "--format", fmt]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "rows.txt"
        out.write_text("stale text, longer than the report " * 20)
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        def strip(text):  # wall_ms differs from run to run
            return re.sub(r"wall_ms: \S+|,[^,\n]*$", "", text, flags=re.M)
        assert strip(out.read_text()) == strip(printed)

    def test_verify_via_main(self, tmp_path):
        path = tmp_path / "op.json"
        write_operator(path, 3 * np.eye(2))
        assert main(["verify", "--input", str(path)]) == 0

    @pytest.mark.parametrize("argv", [["verify"],
                                      ["theorem1", "--dim-f", "2"]])
    def test_every_command_writes_to_the_current_stdout(self, tmp_path, capsys,
                                                        argv):
        path = tmp_path / "op.json"
        write_operator(path, 3 * np.eye(2))
        if argv == ["verify"]:
            argv = argv + ["--input", str(path)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        assert capsys.readouterr().out == ""
        lines = buf.getvalue().splitlines()
        assert len(lines) == (4 if argv[0] == "verify" else 2)


class TestInputRule:
    """`harness._input`: one rule for a failed read of outside input."""

    @pytest.mark.parametrize("kind", [
        OSError, FileNotFoundError, ValueError, UnicodeDecodeError, TypeError,
        KeyError, OverflowError, RecursionError, InvalidFamilyParameter])
    def test_listed_exception_becomes_usage_error(self, kind):
        exc = (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")
               if kind is UnicodeDecodeError else kind("the message"))
        with pytest.raises(UsageError) as info:
            with harness._input("--what x"):
                raise exc
        assert str(info.value) == f"--what x: {kind.__name__}: {exc}"
        assert info.value.__cause__ is exc

    def test_usage_error_passes_untouched(self):
        exc = UsageError("--family: unknown spec 'nope'")
        with pytest.raises(UsageError) as info:
            with harness._input("--family nope"):
                raise exc
        assert info.value is exc and info.value.__cause__ is None

    @pytest.mark.parametrize("kind", [ZeroDivisionError, AssertionError,
                                      MemoryError, IndexError])
    def test_unlisted_exception_propagates_unchanged(self, kind):
        exc = kind("internal fault")
        with pytest.raises(kind) as info:
            with harness._input("--input x"):
                raise exc
        assert info.value is exc


def _mostly(usual, other):
    """`usual` seven times in eight, else `other`."""
    return st.integers(0, 7).flatmap(lambda i: usual if i else other)


#: past np.iinfo(np.intp).max // 16, a dimension parse_config refuses
_PAST_NUMPY = np.iinfo(np.intp).max // 16 + 1
_INTS = _mostly(st.integers(1, 8),
                st.sampled_from([0, -1, 64, 2**63, -2**63, _PAST_NUMPY]))
_FLOATS = st.sampled_from([0.0, -1.0, 0.5, 1e-300, 1e308, -1e308, float("nan"),
                           float("inf"), float("-inf")]) | st.floats()
# no decimal digits: int() reads every Unicode digit, so free text could
# spell a dimension far past 64
_TEXT = st.text(st.characters(blacklist_categories=("Nd",)), max_size=6)
_JSON = st.recursive(st.none() | st.booleans() | _INTS | _FLOATS | _TEXT,
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(_TEXT, inner, max_size=3), max_leaves=4)
# paths relative to the test's working directory: the two input files, a
# file to write, a missing directory, a directory, a NUL byte, nothing
_PATHS = st.sampled_from(["op.json", "cfg.json", "out.txt", "no\ndir/x", ".",
                          "a\0b", ""])
#: a flag's value as the command line spells it, by flag (else an int flag)
_ARGUMENTS = {
    "--input": _PATHS, "--config": _PATHS, "--out": _PATHS,
    "--family": st.sampled_from([
        "scalar:2", "scalar:1", "scalar:0.5", "scalar:1e308", "scalar:inf",
        "scalar:nan", "diag:1,2", "diag:", "diag:1e200", "diag:x",
        "svd-random", "id-plus-psd", "nope"]) | _TEXT,
    "--format": st.sampled_from(["csv", "report", "xml", ""]),
    "--n": st.lists(_INTS, max_size=4).map(lambda ns: ",".join(map(str, ns)))
    | _TEXT,
    "--tol-verify": (_FLOATS | _INTS).map(str) | _TEXT,
}
_INT_ARGUMENT = _mostly(_INTS.map(str),
                        _TEXT | st.sampled_from(["1e308", "2.5"]))
#: a config value by key, of the flag's type (else an int) or any JSON value
_CONFIG_VALUES = {"input": _PATHS, "config": _PATHS, "out": _PATHS,
                  "family": _ARGUMENTS["--family"], "n": _ARGUMENTS["--n"],
                  "format": _ARGUMENTS["--format"], "tol_verify": _FLOATS}


@st.composite
def _document(draw, value):
    """JSON text of `value`, maybe nested deep, cut short or not UTF-8."""
    text = json.dumps(value).encode()
    fault = draw(st.sampled_from([None, None, None, "nest", "cut", "byte"]))
    if fault == "nest":
        depth = draw(st.sampled_from([3, 5000, 100000]))
        text = b"[" * depth + text + b"]" * depth
    at = draw(st.integers(0, len(text)))
    if fault == "cut":
        text = text[:at]
    if fault == "byte":
        byte = draw(st.sampled_from([b"\xff", b"\xc3", b"\0"]))
        text = text[:at] + byte + text[at:]
    return text


@st.composite
def _cli_inputs(draw):
    """(argv, config file, operator file) for one call of `main`."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    flags = [*_COMMAND_FLAGS[command], "--config", "--bogus"]
    # the flag the command requires, mostly given
    required = {"sweep": ["--n"], "verify": ["--input"]}.get(command,
                                                             ["--dim-f"])
    chosen = draw(_mostly(st.just(required), st.just([])))
    argv = [command]
    for flag in chosen + draw(st.lists(st.sampled_from(flags), max_size=4)):
        argv += [flag, draw(_ARGUMENTS.get(flag, _INT_ARGUMENT))]
    keys = draw(st.lists(st.sampled_from([f[2:].replace("-", "_")
                                          for f in flags]), max_size=4))
    config = {k: draw(_mostly(_CONFIG_VALUES.get(k, _INTS), _JSON))
              for k in keys}
    config = draw(_mostly(st.just(config), _JSON))
    k = draw(st.integers(1, 6))
    operator = {"rows": k, "cols": k, "entries": draw(st.lists(
        st.lists(_INTS | _FLOATS, min_size=2, max_size=2),
        min_size=k * k, max_size=k * k))}
    key = draw(_mostly(st.none(), st.sampled_from(sorted(operator))))
    if key is not None:
        operator[key] = draw(_INTS | _JSON)
    return argv, draw(_document(config)), draw(_document(operator))


class TestInputFuzz:
    """Every input ends in a run (exit 0 or 1) or in exactly one `error: `
    line on stderr with exit 2 and nothing on stdout; no exception escapes
    `main`."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(inputs=_cli_inputs())
    def test_main_exits_cleanly(self, tmp_path, monkeypatch, inputs):
        argv, config, operator = inputs
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_bytes(config)
        Path("op.json").write_bytes(operator)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")


def test_module_entry_point_runs_main():
    """`python -m isolab.harness` reaches `main` through the module's
    `__main__` guard: its exit code and streams are main's."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1]
                                         / "src"))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "isolab.harness", *args],
                              env=env, capture_output=True, text=True,
                              timeout=120)

    done = run("theorem1", "--dim-f", "2", "--dim-h", "4")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == (
        "n,epsilon,norm_T,bound_theoretical,bound_measured,defect_max,"
        "expansivity_min,orthogonality_max,wall_ms")
    done = run("sweep")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == "error: --n is required for sweep\n"


def test_benchmark_entry_paths_never_import_numpy_ma(tmp_path):
    """A sweep, theorem1, a theorem2 report and verify of id + A, run in
    one interpreter, leave numpy.ma unimported: np.unique, for one,
    imports it on its first call, about 1.3 MB of peak RSS."""
    code = f"""if True:
        import contextlib, io, sys
        import numpy as np
        from isolab import random_2nilpotent, write_operator
        from isolab.harness import main
        path = {str(tmp_path / "op.json")!r}
        write_operator(path, np.eye(6) + random_2nilpotent(6, 1).matrix)
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in (
                ["sweep", "--family", "svd-random", "--n", "2,4", "--seed", "3"],
                ["theorem1", "--dim-f", "4", "--dim-h", "8"],
                ["theorem2", "--dim-f", "4", "--family", "id-plus-psd",
                 "--format", "report"],
                ["verify", "--input", path])]
        print(codes, "numpy.ma" in sys.modules)"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"),
        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 0, 0, 1] False\n"
