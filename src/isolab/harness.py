"""Command-line driver: construction runs, convergence sweeps, and
verification of stored operators, with deterministic machine-readable
reports."""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .constructions import (CONSTRUCTION_NORM_LIMIT, certificate_evaluate,
                            prepare_space, standard_f_basis,
                            theorem1_construct, theorem2_construct,
                            Certificate)
from .errors import InvalidFamilyParameter, IsolabError, UsageError
from .generators import expansive_generator
from .operators import DenseOperator, ScalarOperator, defect_form, read_operator

CSV_HEADER = ("n", "epsilon", "norm_T", "bound_theoretical", "bound_measured",
              "defect_max", "expansivity_min", "orthogonality_max", "wall_ms")
#: report lines that are not CSV columns, each after the column it pairs with
_REPORT_AFTER = {"bound_measured": "bound_exact", "defect_max": "defect3_max",
                 "orthogonality_max": "orthogonality_rel"}

#: largest sigma_max verify accepts: the order-3 defect operator and its
#: scale take sigma_max^6, kept below 1e306
VERIFY_NORM_LIMIT = 1e51


@dataclass
class RunConfig:
    command: str
    dim_h: int | None = None
    dim_f: int | None = None
    n_list: list = field(default_factory=list)
    family: str = "scalar:2"
    seed: int = 0
    capacity: int | None = None
    tol_verify: float = 1e-9
    samples: int = 100
    out: str | None = None
    format: str = "csv"
    input_path: str | None = None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


#: argparse types of the flags each subcommand takes; theorem1 builds no T
#: and ignores --seed, which it accepts like the other construction commands,
#: and verify, which computes its defects exactly, ignores --samples and --seed
_RUN_FLAGS = {"--dim-h": int, "--seed": int, "--capacity": int, "--out": str,
              "--format": str}
_COMMAND_FLAGS = {
    "theorem1": {"--dim-f": int, **_RUN_FLAGS},
    "theorem2": {"--dim-f": int, "--family": str, **_RUN_FLAGS},
    "sweep": {"--n": str, "--family": str, **_RUN_FLAGS},
    "verify": {"--input": str, "--seed": int, "--samples": int,
               "--tol-verify": float},
}
_CHOICES = {"--format": ("csv", "report")}
_HELP = {"--n": "comma-separated sweep list, e.g. 2,4,8",
         "--family": "scalar:<t> | diag:<d1,d2,...> | svd-random | id-plus-psd"}


@functools.cache
def _build_parser() -> _Parser:
    """The CLI parser, built once per process; parsing leaves it as it is."""
    parser = _Parser(prog="isolab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _COMMAND_FLAGS.items():
        p = sub.add_parser(name)
        for flag, kind in flags.items():
            p.add_argument(flag, type=kind, choices=_CHOICES.get(flag),
                           help=_HELP.get(flag))
        p.add_argument("--config", type=str)
    return parser


@contextlib.contextmanager
def _input(what: str):
    """A failed read of outside input is UsageError('what: Type: message')."""
    try:
        yield
    except (OSError, ValueError, TypeError, KeyError, OverflowError,
            RecursionError, InvalidFamilyParameter) as exc:
        raise UsageError(f"{what}: {type(exc).__name__}: {exc}") from exc


def _read_config(path: str, command: str) -> dict:
    """Values of a JSON config file: its keys are `command`'s flags with `_`
    for `-`, each value of its flag's type (an integer stands for a float)."""
    with _input("--config"), open(path, encoding="utf-8") as fh:
        filecfg = json.load(fh)
    if not isinstance(filecfg, dict):
        raise UsageError("--config: the file must hold one JSON object")
    specs = {flag[2:].replace("-", "_"): (kind, _CHOICES.get(flag))
             for flag, kind in _COMMAND_FLAGS[command].items()}
    unknown = set(filecfg) - set(specs)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, value in filecfg.items():
        kind, choices = specs[key]
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise UsageError(f"config key {key!r}: expected {kind.__name__}, "
                             f"got {value!r}")
        if choices and value not in choices:
            raise UsageError(f"config key {key!r}: {value!r} is not one of "
                             f"{list(choices)}")
    return filecfg


def parse_config(argv) -> RunConfig:
    """Parse CLI flags plus an optional JSON config file.

    Flags given on the command line override file values; config keys are
    the subcommand's flags, and unknown or mistyped ones are rejected.
    Raises UsageError on any bad input.
    """
    ns = vars(_build_parser().parse_args(argv))
    command, config = ns.pop("command"), ns.pop("config")
    merged = _read_config(config, command) if config else {}
    merged.update({k: v for k, v in ns.items() if v is not None})
    n_spec = merged.pop("n", None)
    if "input" in merged:
        merged["input_path"] = merged.pop("input")
    cfg = RunConfig(command=command, **merged)

    if n_spec is not None:
        with _input("--n"):
            cfg.n_list = [int(v) for v in n_spec.split(",")]
        if any(v < 1 for v in cfg.n_list):
            raise UsageError("--n: entries must be positive")
    if cfg.command in ("theorem1", "theorem2"):
        if cfg.dim_f is None or cfg.dim_f < 1:
            raise UsageError("--dim-f is required and must be positive")
        cfg.n_list = [cfg.dim_f]
    if cfg.command == "sweep" and not cfg.n_list:
        raise UsageError("--n is required for sweep")
    if cfg.samples < 1:
        raise UsageError("--samples must be at least 1")
    if cfg.seed < 0:
        raise UsageError("--seed must be nonnegative")
    if not 0 < cfg.tol_verify < 1:
        raise UsageError("--tol-verify must lie in (0, 1)")
    if cfg.command == "verify":
        if cfg.input_path is None:
            raise UsageError("--input is required for verify")
        return cfg

    flag = "--n" if cfg.command == "sweep" else "--dim-f"
    if cfg.dim_h is None:
        cfg.dim_h = max(cfg.n_list)
    if max(cfg.n_list) > cfg.dim_h:
        raise UsageError(f"{flag}: dim(F)={max(cfg.n_list)} exceeds "
                         f"--dim-h={cfg.dim_h}")
    if cfg.dim_h > np.iinfo(np.intp).max // 16:  # longest complex ndarray
        flag = "--dim-h" if "dim_h" in merged else flag
        raise UsageError(f"{flag}: dim(H)={cfg.dim_h} is too large for numpy")
    if cfg.capacity is not None and cfg.capacity < 1:
        raise UsageError("--capacity must be positive")
    return cfg


def _family_operator(cfg: RunConfig) -> DenseOperator:
    spec = cfg.family
    with _input(f"--family {spec}"):
        if spec.startswith("scalar:"):
            T = expansive_generator(cfg.dim_h, "scalar", scale=float(spec[7:]))
        elif spec.startswith("diag:"):
            entries = [float(v) for v in spec[5:].split(",")]
            # tile prescribed entries cyclically to fill dim(H)
            T = expansive_generator(cfg.dim_h, "diagonal",
                                    diag=np.resize(entries, cfg.dim_h))
        elif spec in ("svd-random", "id-plus-psd"):
            T = expansive_generator(cfg.dim_h, spec.replace("-", "_"),
                                    seed=cfg.seed)
        else:
            raise UsageError(f"--family: unknown spec {spec!r}")
    scale = max(cfg.n_list) * T.operator_norm
    if not scale <= CONSTRUCTION_NORM_LIMIT:
        raise UsageError(f"--family {spec}: dim(F) ||T|| = "
                         f"{scale!r} exceeds {CONSTRUCTION_NORM_LIMIT:g}")
    return T


def run_construction(cfg: RunConfig, n: int,
                     T: DenseOperator | None) -> Certificate:
    """Construct and certify one row: theorem1 approximates 2*id within
    1/n, every other command T^(4) within (||T||+1)/n."""
    start = time.perf_counter()
    space = prepare_space(cfg.dim_h, cfg.capacity)
    f_basis = standard_f_basis(space, n)
    if cfg.command == "theorem1":
        block, trace = theorem1_construct(f_basis, space)
        target, norm_T, bound = ScalarOperator(2.0), 2.0, 1.0 / n
    else:
        block, target, trace = theorem2_construct(T, f_basis, space)
        norm_T = T.operator_norm
        bound = (norm_T + 1.0) / n
    cert = certificate_evaluate(target, block, trace, f_basis,
                                operator_norm_T=norm_T,
                                bound_theoretical=bound)
    cert.wall_ms = 1e3 * (time.perf_counter() - start)
    return cert


def run_sweep(cfg: RunConfig):
    """One Certificate per n, increasing; failed rows carry an error marker.

    `_family_operator` builds and checks T once, before any row, so a bad
    --family ends the run instead of failing every row."""
    T = None if cfg.command == "theorem1" else _family_operator(cfg)
    rows = []
    for n in sorted(cfg.n_list):
        try:
            rows.append(run_construction(cfg, n, T))
        except IsolabError as exc:
            # every value from norm_T on is NaN
            rows.append(Certificate(n, 1.0 / n, *[np.nan] * 7, error=str(exc)))
    return rows


def _fmt(value) -> str:
    return f"{value:.17g}"


def emit_report(rows, fmt: str, path: str | None) -> str:
    """Serialize sweep rows as CSV or a field-per-line text report.

    Returns the serialized text; writes it to `path` when given.
    """
    buf = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([row.n] + [_fmt(getattr(row, k))
                                       for k in CSV_HEADER[1:]])
    else:
        for row in rows:
            buf.write(f"run n={row.n}\n")
            for key in CSV_HEADER[1:]:
                buf.write(f"  {key}: {_fmt(getattr(row, key))}\n")
                if extra := _REPORT_AFTER.get(key):
                    buf.write(f"  {extra}: {_fmt(getattr(row, extra))}\n")
            if row.error is not None:
                buf.write(f"  error: {row.error}\n")
    text = buf.getvalue()
    if path:
        _write_out(path, text, "w")
    return text


def _write_out(path: str, text: str, mode: str) -> None:
    """Write `text` to the --out file `path`, UsageError if that fails."""
    with _input(f"--out {path}"), open(path, mode, encoding="utf-8") as fh:
        fh.write(text)


def read_sweep_csv(text: str):
    """Parse a CSV report back into Certificates (round-trip fidelity)."""
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader, ()))
    if header != CSV_HEADER:
        raise ValueError(f"unexpected header {header}")
    rows = []
    for record in reader:
        if len(record) != len(CSV_HEADER):
            raise ValueError(f"line {reader.line_num}: malformed record")
        values = [int(record[0])] + [float(v) for v in record[1:]]
        rows.append(Certificate(*values))
    return rows


def run_verify(cfg: RunConfig, stream=None) -> int:
    """Defect (orders 1-3) and expansivity suites on a stored operator.

    Reports max |d_m| = ||beta_m||_2, beta_0 = I, beta_m = B* beta_{m-1} B -
    beta_{m-1}, as d_m at the eigenvector attaining it, on `stream` (None:
    sys.stdout as it is when called).  Exit status 0 iff the operator is
    certified expansive at tol_verify; m-isometry verdicts are informational.
    Otherwise a last line bounds the distance to every expansive operator.
    """
    with _input(f"--input {cfg.input_path}"):
        op = DenseOperator(read_operator(cfg.input_path))
    if not op.operator_norm <= VERIFY_NORM_LIMIT:
        raise UsageError(f"--input {cfg.input_path}: sigma_max = "
                         f"{op.operator_norm!r} exceeds {VERIFY_NORM_LIMIT:g}")
    scale = max(1.0, op.operator_norm ** 2)
    B, beta = op.matrix, np.eye(op.dim, dtype=np.complex128)
    for m in (1, 2, 3):
        beta = np.conj(B.T) @ beta @ B - beta
        beta = 0.5 * (beta + np.conj(beta.T))  # symmetrize roundoff
        w, vecs = np.linalg.eigh(beta)
        worst = abs(defect_form(op, vecs[:, np.abs(w).argmax()], m))
        verdict = "yes" if worst <= cfg.tol_verify * scale ** m else "no"
        print(f"defect order {m}: max |d_{m}| = {_fmt(worst)} "
              f"({m}-isometry: {verdict})", file=stream)
    smin = float(op.singular_values.min())
    expansive = smin >= 1.0 - cfg.tol_verify
    print(f"sigma_min: {_fmt(smin)} "
          f"(expansive: {'yes' if expansive else 'no'})", file=stream)
    if not expansive:  # ||Bx|| >= 1 and ||Tx|| = sigma_min at that x
        print("closure: every expansive B (so every 2-isometry) has "
              f"||(B - T)x|| >= 1 - sigma_min = {_fmt(1.0 - smin)} "
              "at the unit right singular vector x of sigma_min", file=stream)
    return 0 if expansive else 1


def main(argv=None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
        if cfg.command == "verify":
            return run_verify(cfg)
        if cfg.out:  # an unwritable --out fails before any row is built
            _write_out(cfg.out, "", "a")
        rows = run_sweep(cfg)
        text = emit_report(rows, cfg.format, cfg.out)
        if cfg.format == "csv":  # the report format carries errors inline
            for row in rows:
                if row.error is not None:
                    print(f"error: n={row.n}: {row.error}", file=sys.stderr)
        if not cfg.out:
            sys.stdout.write(text)
        return 0 if all(row.ok for row in rows) else 1
    except (IsolabError, MemoryError) as exc:  # e.g. a huge --dim-h
        message = "".join(c if c.isprintable() else repr(c)[1:-1]
                          for c in str(exc) or type(exc).__name__)
        print("error:", message, file=sys.stderr)  # escaped: one line
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
