"""In-process span tracer that wraps a package's functions from outside.

``Tracer.install`` replaces module and class attributes with wrappers, so the
package under test is not edited.  Every call of a wrapped function records
one span: name, start, end, parent span and case id.  Spans are kept in
compact arrays in memory and can be written out at exit with ``dump``.  A
target that does not exist in the package is recorded as absent instead of
failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np


class Tracer:
    """Span store plus named counters; single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.case = array("i")
        self.case_id = -1
        self.counters: dict[str, float] = {}
        self.absent: set[str] = set()
        #: objects probes keep for inspection after the run
        self.records: list = []
        self._stack: list[int] = []
        self._patches: list = []

    def name_index(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.case.append(self.case_id)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def wrap(self, name: str, fn, probe=None):
        """Wrapper recording a span per call.

        ``probe(tracer, args)`` runs before the call and may return a
        callable that runs after it (used for counters read off the
        arguments, such as a lazy isometry's defined count).
        """
        nid = self.name_index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = probe(self, args) if probe is not None else None
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                if after is not None:
                    after()
        return traced

    def install(self, package: str, targets) -> None:
        """Wrap each ``(module, attribute path, probe)`` target of `package`.

        A function is replaced in every loaded module of the package that
        binds it, so ``from .x import f`` copies are traced too.  A method is
        replaced on its class.  Targets that cannot be resolved are added to
        ``absent``.
        """
        for module, path, probe in targets:
            name = f"{module}.{path}"
            try:
                owner = importlib.import_module(f"{package}.{module}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = (owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr))
            except (ImportError, AttributeError, KeyError):
                self.absent.add(name)
                continue
            wrapper = self.wrap(name, original, probe)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != package and not mod_name.startswith(package + "."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        """Spans as numpy arrays (times in seconds), plus self times."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "start": start, "end": end, "parent": parent,
                "case": np.frombuffer(self.case, dtype=np.int32),
                "self": self_times(start, end, parent)}

    def dump(self, path: str) -> None:
        """Write every span (and the name table) to a compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once (union of intervals).
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent)
    covered = np.zeros(len(start))
    kids = np.nonzero(parent >= 0)[0]
    order = kids[np.lexsort((start[kids], parent[kids]))]
    current, lo, hi = -1, 0.0, 0.0
    for i in order.tolist():
        p = int(parent[i])
        s, e = max(start[i], start[p]), min(end[i], end[p])
        if e <= s:
            continue
        if p != current:
            if current >= 0:
                covered[current] += hi - lo
            current, lo, hi = p, s, e
        elif s > hi:
            covered[current] += hi - lo
            lo, hi = s, e
        else:
            hi = max(hi, e)
    if current >= 0:
        covered[current] += hi - lo
    return (end - start) - covered
