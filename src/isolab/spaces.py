"""Growing coordinate model of (a truncation of) an infinite-dimensional Hilbert space.

An :class:`AmbientSpace` hands out coordinates from a fixed budget through a
monotone cursor, so "fresh" directions are always orthogonal to everything
instantiated so far and runs are reproducible.  The capacity is a budget,
not a storage size: a Vector stores the leading prefix that holds its
support.  Systems of vectors can also be held as the rows of one array over
the leading coordinates that carry them (`as_rows`, `row_vectors`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, sqrt

import numpy as np

from .errors import CapacityExceeded, DomainMismatch


@dataclass(eq=False)
class AmbientSpace:
    """Coordinate allocator with named subspace labels.

    Allocation only moves ``allocated`` forward; a coordinate, once handed
    out, is never reused.  Single writer: concurrent construction runs must
    each own their space.  A space equals only itself and hashes by
    identity, as vectors compare spaces with ``is``.
    """

    capacity: int
    allocated: int = field(default=0, init=False)
    labels: dict = field(default_factory=dict, init=False)

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be positive")

    def allocate(self, count: int, label: str | None = None) -> np.ndarray:
        """Reserve `count` fresh coordinates, optionally under a label."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        if self.allocated + count > self.capacity:
            raise CapacityExceeded(
                f"need {count} coordinates, {self.capacity - self.allocated} left "
                f"of {self.capacity}")
        indices = np.arange(self.allocated, self.allocated + count)
        self.allocated += count
        if label is not None:
            self.labels[label] = indices
        return indices

    def basis_vector(self, index: int) -> "Vector":
        if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
            raise ValueError(f"coordinate {index!r} is not an integer")
        if not 0 <= index < self.allocated:
            raise ValueError(f"coordinate {index} not allocated")
        coords = np.zeros(index + 1, dtype=np.complex128)
        coords[index] = 1.0
        return Vector(coords, self)

    def vector(self, values, indices=None) -> "Vector":
        """Build a vector from `values` at distinct `indices` (default: 0..len)."""
        values = np.array(values, dtype=np.complex128)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a nonempty 1-d list")
        if indices is None:
            if len(values) > self.allocated:
                raise ValueError("values placed on unallocated coordinates")
            return Vector(values, self)
        indices = np.asarray(indices)
        if indices.dtype.kind not in "iu":
            raise ValueError(f"indices {indices.tolist()} are not integers")
        if (indices.shape != values.shape
                or np.any(np.diff(np.sort(indices)) == 0)):
            raise ValueError("need one distinct index per value")
        if np.min(indices) < 0 or np.max(indices) >= self.allocated:
            raise ValueError("values placed on unallocated coordinates")
        coords = np.zeros(int(np.max(indices)) + 1, dtype=np.complex128)
        coords[indices] = values
        return Vector(coords, self)


class Vector:
    """Immutable-by-convention coordinate vector tied to one AmbientSpace,
    stored as `prefix`, its coordinates up to the last nonzero one (`coords`
    pads a copy to the capacity).  The constructor computes the squared norm
    once and `norm()` returns its cached root, so nothing may write into
    `prefix`.  The inner product is conjugate-linear in the *first*
    argument: ``v.inner(w) == sum(conj(v_k) w_k)``.
    """

    __slots__ = ("prefix", "space", "_sq")

    def __init__(self, coords: np.ndarray, space: AmbientSpace):
        coords = np.asarray(coords, dtype=np.complex128)
        if coords.ndim != 1 or len(coords) > space.capacity:
            raise ValueError("coords must be 1-d and at most the capacity long")
        if len(coords) and coords[-1] != 0:  # no trailing zeros to cut
            self.prefix = coords
        else:
            nonzero = coords.nonzero()[0]
            self.prefix = coords[:nonzero[-1] + 1 if nonzero.size else 0]
        # a finite sum of squares proves every entry finite; an overflowing
        # one (huge but finite entries) needs the entrywise check
        self._sq = float(np.vdot(self.prefix, self.prefix).real)
        if not isfinite(self._sq) and not np.isfinite(self.prefix).all():
            raise ValueError("non-finite entries in vector")
        self.space = space

    @property
    def coords(self) -> np.ndarray:
        return padded(self.prefix, self.space.capacity)

    def same_space(self, other: "Vector"):
        if other.space is not self.space:
            raise DomainMismatch("vectors belong to different ambient spaces")

    def inner(self, other: "Vector") -> complex:
        self.same_space(other)
        k = min(len(self.prefix), len(other.prefix))
        return complex(np.vdot(self.prefix[:k], other.prefix[:k]))

    def norm(self) -> float:
        return sqrt(self._sq)

    def __add__(self, other: "Vector") -> "Vector":
        self.same_space(other)
        out = padded(self.prefix, len(other.prefix))
        out[:len(other.prefix)] += other.prefix
        return Vector(out, self.space)

    def __sub__(self, other: "Vector") -> "Vector":
        return self + -other

    def __mul__(self, scalar) -> "Vector":
        return Vector(self.prefix * scalar, self.space)

    __rmul__ = __mul__

    def __neg__(self) -> "Vector":
        return Vector(-self.prefix, self.space)

    def __repr__(self):
        support = np.nonzero(self.prefix)[0].tolist()
        more = "..." if len(support) > 8 else ""
        return f"Vector(support={support[:8]}{more}, norm={self.norm():.6g})"


def as_rows(items, space: AmbientSpace) -> np.ndarray:
    """`items` as rows over leading coordinates of `space`: a 2-d array as
    it is, Vectors (all in `space`) over the leading coordinates that hold
    every nonzero entry."""
    if not isinstance(items, np.ndarray):
        vectors = list(items)
        rows = np.zeros((len(vectors), max((len(v.prefix) for v in vectors),
                                           default=0)), dtype=np.complex128)
        for i, v in enumerate(vectors):
            if v.space is not space:
                raise DomainMismatch("vector lives in a different space")
            rows[i, :len(v.prefix)] = v.prefix
        return rows
    rows = np.asarray(items, dtype=np.complex128)
    if rows.ndim != 2 or rows.shape[1] > space.capacity:
        raise ValueError("rows must be 2-d and at most the capacity wide")
    if not np.all(np.isfinite(rows)):
        raise ValueError("non-finite entries in rows")
    return rows


def padded(a: np.ndarray, width: int) -> np.ndarray:
    """Copy of `a` (one vector or rows) with zero columns appended up to
    `width`; no column is cut."""
    out = np.zeros(a.shape[:-1] + (max(width, a.shape[-1]),),
                   dtype=np.complex128)
    out[..., :a.shape[-1]] = a
    return out


def columns(indices: np.ndarray):
    """A selector of the columns `indices`: a slice when they are one
    ascending run (views, no gather), else the index array."""
    lo = int(indices[0]) if len(indices) else 0
    run = np.array_equal(indices, np.arange(lo, lo + len(indices)))
    return slice(lo, lo + len(indices)) if run else indices


def row_vectors(rows: np.ndarray, space: AmbientSpace) -> list:
    """The rows of `rows`, coordinates over a leading prefix, as Vectors."""
    return [Vector(coords, space) for coords in rows]
