"""Which package functions the traced run wraps, and the per-layer metrics
derived from their spans.

A layer is a module of the package.  Span names are ``module.attribute``;
metric names follow the same scheme (``operators.LazyIsometry.apply.ms``).
Times are inclusive of child spans unless the name says ``self_ms``.
"""

from __future__ import annotations

import numpy as np


def _lazy_apply_probe(tracer, args):
    """Count extensions (rise in defined_count) and bytes computed: U read
    twice (two projection passes) plus W once, from array shapes at call
    time."""
    iso = args[0]
    try:
        before = iso.defined_count
        tracer.add("operators.LazyIsometry.apply.bytes_computed",
                   2 * iso.defined_inputs.nbytes + iso.defined_outputs.nbytes)
    except AttributeError:
        tracer.absent.add("operators.LazyIsometry.defined_count")
        return None
    return lambda: tracer.add("operators.LazyIsometry.apply.extensions",
                              iso.defined_count - before)


def _vector_probe(tracer, args):
    vec = args[0]

    def after():
        coords = getattr(vec, "coords", None)
        if coords is not None:
            tracer.add("spaces.Vector.bytes", coords.nbytes)
    return after


def _space_probe(tracer, args):
    return lambda: tracer.records.append(args[0])


#: (module, attribute path, probe) of every wrapped function or method
TARGETS = (
    ("operators", "LazyIsometry.apply", _lazy_apply_probe),
    ("operators", "LazyIsometry.__init__", None),
    ("operators", "BrownianBlock.apply", None),
    ("operators", "BrownianBlock.__init__", None),
    ("operators", "DenseOperator.apply", None),
    ("operators", "defect_form", None),
    ("operators", "defect_report", None),
    ("operators", "compressed_gram", None),
    ("spaces", "Vector.__init__", _vector_probe),
    ("spaces", "AmbientSpace.__init__", _space_probe),
    ("constructions", "theorem1_construct", None),
    ("constructions", "theorem2_construct", None),
    ("constructions", "diagonalizing_basis", None),
    ("constructions", "split_pair", None),
    ("constructions", "certificate_evaluate", None),
    ("constructions", "random_orthonormal_system", None),
    ("linalg", "gram_schmidt", None),
    ("linalg", "hermitian_eig", None),
    ("generators", "expansive_generator", None),
    ("harness", "main", None),
    ("harness", "run_verify", None),
    ("harness", "read_operator", None),
    ("harness", "emit_report", None),
)

#: inclusive milliseconds reported as ``<span>.ms``
MS_SPANS = (
    "operators.LazyIsometry.apply", "operators.DenseOperator.apply",
    "operators.defect_form", "operators.compressed_gram",
    "constructions.theorem2_construct", "constructions.theorem1_construct",
    "constructions.diagonalizing_basis", "constructions.split_pair",
    "constructions.certificate_evaluate", "linalg.gram_schmidt",
    "linalg.hermitian_eig", "generators.expansive_generator", "harness.main",
    "harness.run_verify", "harness.read_operator", "harness.emit_report",
)
CALL_SPANS = (
    "operators.LazyIsometry.apply", "operators.BrownianBlock.apply",
    "operators.DenseOperator.apply", "operators.defect_form",
    "constructions.certificate_evaluate",
)
#: metrics that describe a state rather than accumulate work
GAUGES = ("spaces.capacity", "spaces.allocated_max", "spaces.headroom_frac",
          "spaces.vector_bytes")
ASSEMBLE_SPANS = ("operators.LazyIsometry.__init__", "operators.BrownianBlock.__init__")
EXPANSIVITY_SPANS = ("constructions.random_orthonormal_system",
                     "operators.compressed_gram", "linalg.hermitian_eig")


def layer_metrics(names, spans: dict, lo: int, hi: int,
                  counters: dict, spaces) -> dict:
    """Per-layer metrics of the spans with index in [lo, hi).

    `spans` is ``Tracer.arrays()``; `counters` are the counter increments
    over the same interval; `spaces` the ambient spaces created in it.
    """
    name_id = spans["name_id"][lo:hi]
    dur = 1e3 * (spans["end"][lo:hi] - spans["start"][lo:hi])
    self_ms = 1e3 * spans["self"][lo:hi]
    parent = spans["parent"][lo:hi]
    ids = {name: i for i, name in enumerate(names)}

    def mask(name):
        return name_id == ids.get(name, -1)

    out = {}
    for name in CALL_SPANS:
        out[f"{name}.calls"] = int(mask(name).sum())
    for name in MS_SPANS:
        out[f"{name}.ms"] = float(dur[mask(name)].sum())
    out["operators.LazyIsometry.apply.extensions"] = counters.get(
        "operators.LazyIsometry.apply.extensions", 0.0)
    out["operators.LazyIsometry.apply.bytes_computed"] = counters.get(
        "operators.LazyIsometry.apply.bytes_computed", 0.0)
    out["operators.BrownianBlock.apply.self_ms"] = float(
        self_ms[mask("operators.BrownianBlock.apply")].sum())

    vectors = mask("spaces.Vector.__init__")
    created = int(vectors.sum())
    out["spaces.Vector.created"] = created
    out["spaces.Vector.ms"] = float(dur[vectors].sum())
    out["spaces.vector_bytes"] = (counters.get("spaces.Vector.bytes", 0.0) / created
                                  if created else 0.0)
    capacity = [getattr(s, "capacity", 0) for s in spaces]
    allocated = [getattr(s, "allocated", 0) for s in spaces]
    out["spaces.capacity"] = max(capacity, default=0)
    out["spaces.allocated_max"] = max(allocated, default=0)
    out["spaces.headroom_frac"] = min(((c - a) / c for c, a in zip(capacity, allocated)
                                       if c), default=0.0)

    assemble = np.zeros(len(name_id), dtype=bool)
    for name in ASSEMBLE_SPANS:
        assemble |= mask(name)
    out["constructions.assemble.ms"] = float(dur[assemble].sum())

    # certificate parts: direct children of a certificate_evaluate span
    cert = mask("constructions.certificate_evaluate")
    in_cert = np.isin(parent, np.nonzero(cert)[0] + lo)
    defect = float(dur[in_cert & mask("operators.defect_report")].sum())
    expans = np.zeros(len(name_id), dtype=bool)
    for name in EXPANSIVITY_SPANS:
        expans |= mask(name)
    expansivity = float(dur[in_cert & expans].sum())
    out["constructions.certificate.defect.ms"] = defect
    out["constructions.certificate.expansivity.ms"] = expansivity
    out["constructions.certificate.bound.self_ms"] = (
        out["constructions.certificate_evaluate.ms"] - defect - expansivity)
    return out


def combine(setup: dict, one_pass: dict) -> dict:
    """Per-layer cost of set-up plus one pass; gauges are the pass's own."""
    return {k: v if k in GAUGES else setup[k] + v for k, v in one_pass.items()}
