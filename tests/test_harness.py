import dataclasses
import io
import json
import re
from math import comb

import numpy as np
import pytest

from isolab import (DenseOperator, UsageError, certificate_evaluate,
                    defect_form, expansive_generator, prepare_space,
                    random_2nilpotent, random_unitary, standard_f_basis,
                    theorem2_construct, write_operator)
from isolab import harness
from isolab.constructions import (DEFECT_THRESHOLD, EXPANSIVITY_THRESHOLD,
                                  Certificate)
from isolab.harness import (CSV_HEADER, RunConfig, emit_report, main,
                            parse_config, read_sweep_csv, run_construction,
                            run_sweep, run_verify)


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
                          wall_ms=1.0)
        text = emit_report([row], "report", None)
        for key in CSV_HEADER[1:]:
            assert key in text

    def test_report_format_of_an_error_row(self):
        row = Certificate(3, 1 / 3, *[np.nan] * 7, error="out of budget")
        lines = emit_report([row], "report", None).splitlines()
        assert lines[0] == "run n=3"
        assert lines[2:] == [f"  {key}: nan" for key in CSV_HEADER[2:]] + [
            "  error: out of budget"]

    def test_read_rejects_a_wrong_header(self):
        with pytest.raises(ValueError, match="unexpected header"):
            read_sweep_csv("n,epsilon\n2,0.5\n")

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
        (["verify"], '{"rows": "1", "cols": 1, "entries": [[2, 0]]}',
         "JSON integers"),
        # the tolerance lies in (0, 1), else the contraction 0.5 passes
        (["verify", "--tol-verify", "inf"], HALF, "--tol-verify"),
        (["verify", "--tol-verify", "1.5"], HALF, "--tol-verify"),
        (["verify", "--tol-verify", "nan"], HALF, "--tol-verify"),
        (["verify", "--config", "PATH"], '{"tol_verify": Infinity}',
         "--tol-verify"),
        # malformed sweep lists and family specs, an unreadable config
        (["sweep", "--n", "2,x"], None, "--n: invalid literal"),
        (["sweep", "--n", "0"], None, "--n: entries must be positive"),
        (["sweep", "--n", "2", "--family", "diag:"], None, "needs entries"),
        (["sweep", "--n", "2", "--family", "nope"], None, "unknown spec"),
        (["theorem1", "--dim-f", "2", "--config", "/nonexistent/cfg.json"],
         None, "--config: "),
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
            "zero-shape", "string-rows", "tol-verify-inf", "tol-verify-1.5",
            "tol-verify-nan", "config-tol-verify-inf", "n-not-integer",
            "n-zero", "diag-no-entries", "unknown-family",
            "unreadable-config"])
    def test_bad_input_exit_two(self, tmp_path, capsys, argv, content, reason):
        path = tmp_path / "op.json"
        if content is not None:
            path.write_text(content)
        argv = [str(path) if a == "PATH" else a for a in argv]
        if argv[0] == "verify":
            argv = argv + ["--input", str(path)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
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
