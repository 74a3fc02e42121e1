"""Growing coordinate model of (a truncation of) an infinite-dimensional Hilbert space.

An :class:`AmbientSpace` hands out coordinates from a fixed budget through a
monotone cursor, so "fresh" directions are always orthogonal to everything
instantiated so far and runs are reproducible.  The capacity is a budget,
not a storage size: a Vector stores the leading prefix that holds its
support.  Systems of vectors can also be held as the rows of one array over
the leading coordinates that carry them (`leading_rows`, `as_rows`,
`row_vectors`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .errors import CapacityExceeded, DomainMismatch


@dataclass
class AmbientSpace:
    """Coordinate allocator with named subspace labels.

    Allocation only moves ``next_free`` forward; a coordinate, once handed
    out, is never reused.  Single writer: concurrent construction runs must
    each own their space.
    """

    capacity: int
    next_free: int = 0
    labels: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be positive")

    @property
    def allocated(self) -> int:
        return self.next_free

    def allocate(self, count: int, label: str | None = None) -> np.ndarray:
        """Reserve `count` fresh coordinates, optionally under a label."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        if self.next_free + count > self.capacity:
            raise CapacityExceeded(
                f"need {count} coordinates, {self.capacity - self.next_free} left "
                f"of {self.capacity}")
        indices = np.arange(self.next_free, self.next_free + count)
        self.next_free += count
        if label is not None:
            self.labels[label] = indices
        return indices

    def basis_vector(self, index: int) -> "Vector":
        if not 0 <= index < self.next_free:
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
            if len(values) > self.next_free:
                raise ValueError("values placed on unallocated coordinates")
            return Vector(values, self)
        indices = np.asarray(indices)
        if indices.shape != values.shape or len(np.unique(indices)) != len(indices):
            raise ValueError("need one distinct index per value")
        if np.min(indices) < 0 or np.max(indices) >= self.next_free:
            raise ValueError("values placed on unallocated coordinates")
        coords = np.zeros(int(np.max(indices)) + 1, dtype=np.complex128)
        coords[indices] = values
        return Vector(coords, self)

    def zero(self) -> "Vector":
        return Vector(np.zeros(0, dtype=np.complex128), self)


class Vector:
    """Immutable-by-convention coordinate vector tied to one AmbientSpace,
    stored as `prefix`, its coordinates up to the last nonzero one (`coords`
    pads a copy to the capacity).  The inner product is conjugate-linear in
    the *first* argument: ``v.inner(w) == sum(conj(v_k) w_k)``.
    """

    __slots__ = ("prefix", "space")

    def __init__(self, coords: np.ndarray, space: AmbientSpace):
        coords = np.asarray(coords, dtype=np.complex128)
        if coords.ndim != 1 or len(coords) > space.capacity:
            raise ValueError("coords must be 1-d and at most the capacity long")
        if not np.isfinite(coords).all():
            raise ValueError("non-finite entries in vector")
        nonzero = coords.nonzero()[0]
        self.prefix = coords[:nonzero[-1] + 1 if nonzero.size else 0]
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
        return sqrt(np.vdot(self.prefix, self.prefix).real)

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
        support = np.nonzero(np.abs(self.prefix) > 0)[0]
        return f"Vector(support={support.tolist()[:8]}..., norm={self.norm():.6g})"


def leading_rows(vectors, space: AmbientSpace) -> np.ndarray:
    """Coordinates of `vectors`, all in `space`, as the rows of one array
    over the leading coordinates that hold every nonzero entry."""
    cols = max((len(v.prefix) for v in vectors), default=0)
    rows = np.zeros((len(vectors), cols), dtype=np.complex128)
    for i, v in enumerate(vectors):
        if v.space is not space:
            raise DomainMismatch("vector lives in a different space")
        rows[i, :len(v.prefix)] = v.prefix
    return rows


def as_rows(items, space: AmbientSpace) -> np.ndarray:
    """`items` as rows over leading coordinates of `space`: a 2-d array as
    it is, a list of Vectors through `leading_rows`."""
    if not isinstance(items, np.ndarray):
        return leading_rows(list(items), space)
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


def row_vectors(rows: np.ndarray, space: AmbientSpace) -> list:
    """The rows of `rows`, coordinates over a leading prefix, as Vectors."""
    return [Vector(coords, space) for coords in rows]
