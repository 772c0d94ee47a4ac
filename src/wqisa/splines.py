"""Tensor-product B-spline core: knot vectors, basis evaluation, surfaces.

Conventions used throughout:

* Knot vectors are open ("(p+1)-regular"): boundary knots repeat exactly
  ``degree + 1`` times, interior knots at most ``degree + 1`` times.
* Basis functions are right-continuous; the support of basis ``i`` is the
  half-open window ``[knots[i], knots[i + p + 1])``.  The right end of the
  domain is folded into the last nonempty span so that evaluation is total
  on the closed domain rectangle.
* Knot values are compared exactly.  Knot vectors are constructed, not
  measured, so no tolerance is appropriate.
* A surface value sums ``c * bx[a] * by[b]`` from 0.0 over the slots in
  ``(a, b)`` order, then takes ``np.maximum`` with the slots' least
  coefficient and ``np.minimum`` with their greatest (``np.clip`` may give
  a zero the other sign).  ``tensor_rows`` gives points' rows (first
  coefficient, basis values), which ``TensorRows.values`` sums for any grid:
  ``pipeline.tune_parameters`` builds its validation rows once per mesh, and
  ``evaluate_many`` works in ``_BLOCK_POINTS`` slices.  ``evaluate_lattice``
  shares ``c * bx[a]`` along x rows in tiles of at most that many points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .clouds import check_integer

# points per evaluation block: a block's rows take 56 bytes a point at
# degrees (2, 2)
_BLOCK_POINTS = 1 << 14
# the narrowest knot span allowed, the smallest normal float (about 2.2e-308):
# its reciprocal is finite, and the basis recurrence divides by span widths
_NARROWEST_SPAN = float(np.finfo(float).tiny)


class OutOfDomainError(ValueError):
    """Raised when an evaluation point lies outside the spline domain."""


def _frozen_copy(values) -> np.ndarray:
    """Private read-only float64 copy, so callers cannot mutate us later."""
    array = np.array(values, dtype=float, order="C")
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class KnotVector:
    """An open knot vector: a degree plus a nondecreasing knot sequence.

    For ``len(knots) == n + degree + 1`` the vector spans ``n`` basis
    functions over the domain ``[knots[degree], knots[n]]``.
    """

    degree: int
    knots: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree", check_integer("degree", self.degree, 0))
        knots = _frozen_copy(self.knots)
        object.__setattr__(self, "knots", knots)
        p = self.degree
        if knots.ndim != 1:
            raise ValueError("knots must be a one-dimensional sequence")
        if not np.isfinite(knots).all():
            raise ValueError("knots must be finite")
        if np.any(np.diff(knots) < 0):
            raise ValueError("knots must be nondecreasing")
        n = knots.size - p - 1
        if n < p + 1:
            raise ValueError(
                f"need at least {2 * p + 2} knots for degree {p}, got {knots.size}"
            )
        a, b = knots[p], knots[n]
        if a == b:
            raise ValueError("domain is empty: boundary knots coincide")
        # a subnormal span would overflow the recurrence and make NaN values
        gaps = np.diff(knots)
        narrowest = float(gaps[gaps > 0].min())
        if narrowest < _NARROWEST_SPAN:
            raise ValueError(f"knot span of width {narrowest!r} is too narrow to evaluate")
        if np.count_nonzero(knots == a) != p + 1 or knots[0] != a:
            raise ValueError(f"left boundary knot must occur exactly {p + 1} times")
        if np.count_nonzero(knots == b) != p + 1 or knots[-1] != b:
            raise ValueError(f"right boundary knot must occur exactly {p + 1} times")
        interior = knots[(knots > a) & (knots < b)]
        if interior.size:
            _, counts = np.unique(interior, return_counts=True)
            if counts.max() > p + 1:
                raise ValueError(f"interior knot multiplicity exceeds {p + 1}")

    @property
    def num_basis(self) -> int:
        return self.knots.size - self.degree - 1

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[self.degree]), float(self.knots[self.num_basis])

    @property
    def breakpoints(self) -> np.ndarray:
        """Distinct knot values, i.e. the element edges of the mesh."""
        return np.unique(self.knots)

    @property
    def num_elements(self) -> int:
        return self.breakpoints.size - 1

    @classmethod
    def uniform_open(
        cls, degree: int, num_elements: int, lo: float = 0.0, hi: float = 1.0
    ) -> "KnotVector":
        """Open knot vector with *num_elements* equal spans on ``[lo, hi]``."""
        if num_elements < 1:
            raise ValueError("num_elements must be >= 1")
        if not lo < hi:
            raise ValueError("lo must be < hi")
        interior = np.linspace(lo, hi, num_elements + 1)[1:-1]
        knots = np.concatenate([np.full(degree + 1, lo), interior, np.full(degree + 1, hi)])
        return cls(degree, knots)

    @classmethod
    def piecewise_bezier(cls, degree: int, breakpoints) -> "KnotVector":
        """Knot vector with every knot at maximum multiplicity ``degree + 1``."""
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2 or np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing with >= 2 values")
        return cls(degree, np.repeat(bp, degree + 1))

    def __repr__(self) -> str:
        a, b = self.domain
        return (
            f"KnotVector(degree={self.degree}, n={self.num_basis}, "
            f"domain=[{a:g}, {b:g}], elements={self.num_elements})"
        )


def locate_spans(knots: np.ndarray, last: int, ts: np.ndarray) -> np.ndarray:
    """Index ``mu`` with ``knots[mu] <= t < knots[mu + 1]`` for each *t*.

    *knots* is nondecreasing and spans the domain ``[knots[0], knots[-1]]``;
    the right end is folded into span *last*, the last nonempty one, so the
    result is defined on the closed domain.
    """
    lo, hi = knots[0], knots[-1]
    bad = ~((ts >= lo) & (ts <= hi))
    if bad.any():
        raise OutOfDomainError(f"point {float(ts[bad][0])!r} outside the domain [{lo}, {hi}]")
    return np.minimum(np.searchsorted(knots, ts, side="right") - 1, last)


def basis_rows(kv: KnotVector, ts) -> tuple[np.ndarray, np.ndarray]:
    """All nonzero basis values at each point of *ts*.

    Returns ``(spans, values)`` where ``values[m, r]`` is the value of basis
    ``spans[m] - degree + r`` at ``ts[m]``.  Uses the standard triangular
    recurrence, so each row is nonnegative and sums to one up to rounding.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    p = kv.degree
    spans = locate_spans(kv.knots, kv.num_basis - 1, ts)
    m = ts.shape[0]
    values = np.ones((m, 1))
    if p == 0:
        return spans, values
    left = np.empty((m, p + 1))
    right = np.empty((m, p + 1))
    for j in range(1, p + 1):
        left[:, j] = ts - kv.knots[spans + 1 - j]
        right[:, j] = kv.knots[spans + j] - ts
        nxt = np.empty((m, j + 1))
        saved = np.zeros(m)
        for r in range(j):
            temp = values[:, r] / (right[:, r + 1] + left[:, j - r])
            nxt[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        nxt[:, j] = saved
        values = nxt
    return spans, values


def knot_averages(kv: KnotVector) -> np.ndarray:
    """Greville abscissae: the mean of ``degree`` consecutive interior knots.

    For degree zero (no interior knots to average) the midpoints of the
    spans are returned instead.  The result is nondecreasing and spans the
    closed domain.
    """
    p = kv.degree
    knots = kv.knots
    if p == 0:
        return (knots[:-1] + knots[1:]) / 2.0
    n = kv.num_basis
    windows = np.lib.stride_tricks.sliding_window_view(knots, p)
    return windows[1 : n + 1].mean(axis=1)


def knot_average_grid(space: TensorSplineSpace) -> np.ndarray:
    """``(n_x * n_y, 2)`` knot-average pairs ``(u_i, v_j)``, one per
    coefficient, row-major in ``(i, j)``."""
    us = knot_averages(space.knots_x)
    vs = knot_averages(space.knots_y)
    return np.column_stack((np.repeat(us, vs.size), np.tile(vs, us.size)))


def insert_knot(kv: KnotVector, t: float) -> KnotVector:
    """New knot vector with *t* inserted, preserving order and regularity."""
    a, b = kv.domain
    if not (a < t < b):
        raise ValueError(f"insertion point {t!r} outside the open domain ({a}, {b})")
    if np.count_nonzero(kv.knots == t) >= kv.degree + 1:
        raise ValueError(f"inserting {t!r} would exceed multiplicity {kv.degree + 1}")
    pos = int(np.searchsorted(kv.knots, t, side="right"))
    return KnotVector(kv.degree, np.insert(kv.knots, pos, t))


@dataclass(frozen=True, eq=False)
class TensorSplineSpace:
    """Tensor product of two knot vectors; dimension ``n_x * n_y``."""

    knots_x: KnotVector
    knots_y: KnotVector

    @property
    def shape(self) -> tuple[int, int]:
        return self.knots_x.num_basis, self.knots_y.num_basis

    @property
    def degrees(self) -> tuple[int, int]:
        return self.knots_x.degree, self.knots_y.degree

    @property
    def domain(self) -> tuple[float, float, float, float]:
        (a1, b1), (a2, b2) = self.knots_x.domain, self.knots_y.domain
        return a1, b1, a2, b2

    @property
    def element_counts(self) -> tuple[int, int]:
        return self.knots_x.num_elements, self.knots_y.num_elements

    @classmethod
    def uniform(
        cls, degrees: tuple[int, int], bbox: tuple[float, float, float, float], elements: int
    ) -> "TensorSplineSpace":
        """Open mesh over *bbox* with *elements* equal spans per direction."""
        xmin, xmax, ymin, ymax = bbox
        return cls(
            KnotVector.uniform_open(degrees[0], elements, xmin, xmax),
            KnotVector.uniform_open(degrees[1], elements, ymin, ymax),
        )

    def __repr__(self) -> str:
        ex, ey = self.element_counts
        return (
            f"TensorSplineSpace(degrees={self.degrees}, shape={self.shape}, "
            f"elements={ex}x{ey})"
        )


class TensorRows(NamedTuple):
    """The nonzero tensor basis values of a space at a set of points, which
    serve every coefficient grid on that space.  Slot ``(a, b)`` of point
    ``m`` weighs the coefficient at ``base[m] + offsets[a, b]`` of the
    raveled grid of shape ``shape`` with ``bx[a, m] * by[b, m]``."""

    base: np.ndarray
    shape: tuple[int, int]
    bx: np.ndarray
    by: np.ndarray

    @property
    def offsets(self) -> np.ndarray:
        return np.arange(len(self.bx))[:, None] * self.shape[1] + np.arange(len(self.by))

    def values(self, coefficients: np.ndarray) -> np.ndarray:
        """Values of the surface with *coefficients* at the rows' points: each
        a sum from 0.0 of ``c * bx[a] * by[b]`` over the slots in ``(a, b)``
        order, whatever the number of points, clamped onto the slots' range."""
        shape = np.shape(coefficients)
        if shape != self.shape:
            raise ValueError(f"coefficient grid {shape} does not match space {self.shape}")
        flat = np.ravel(coefficients)
        total = np.zeros(self.base.shape)
        lo, hi = np.full(self.base.shape, np.inf), np.full(self.base.shape, -np.inf)
        for (a, b), offset in np.ndenumerate(self.offsets):
            slot = flat[self.base + offset]
            np.minimum(lo, slot, out=lo)
            np.maximum(hi, slot, out=hi)
            slot *= self.bx[a]
            slot *= self.by[b]
            total += slot
        return np.minimum(np.maximum(total, lo), hi)


def tensor_rows(space: TensorSplineSpace, xs, ys) -> TensorRows:
    """Rows of *space* at the paired coordinates ``xs``, ``ys``; raises
    ``OutOfDomainError`` for a point outside the domain."""
    spans_x, bx = basis_rows(space.knots_x, xs)
    spans_y, by = basis_rows(space.knots_y, ys)
    if spans_x.shape != spans_y.shape:
        raise ValueError(f"got {spans_x.size} x values but {spans_y.size} y values")
    (px, py), ny = space.degrees, space.shape[1]
    return TensorRows((spans_x - px) * ny + (spans_y - py), space.shape, bx.T.copy(), by.T.copy())


@dataclass(frozen=True, eq=False)
class WqisaSurface:
    """A tensor-product spline surface in B-form.

    ``coefficients[i, j]`` multiplies the basis product ``B_i(x) * B_j(y)``.
    Evaluation is clamped onto the closed range of the active coefficients:
    the value is a convex combination of them, so the clamp only strips
    floating-point spill and makes the convex-hull bound hold exactly.
    """

    space: TensorSplineSpace
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeffs = _frozen_copy(self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if coeffs.shape != self.space.shape:
            raise ValueError(
                f"coefficient grid {coeffs.shape} does not match space {self.space.shape}"
            )
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite")

    def evaluate(self, x: float, y: float) -> float:
        """Surface value at a single point; raises ``OutOfDomainError`` outside."""
        return float(self.evaluate_many([x], [y])[0])

    def evaluate_many(self, xs, ys) -> np.ndarray:
        """Evaluate at paired coordinate arrays ``xs``, ``ys``, in slices of
        at most ``_BLOCK_POINTS`` points; the slices bound the memory of the
        rows and change no value."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        if xs.shape != ys.shape:
            raise ValueError(f"got {xs.size} x values but {ys.size} y values")
        values = np.empty(xs.shape[0])
        for start in range(0, xs.shape[0], _BLOCK_POINTS):
            block = slice(start, start + _BLOCK_POINTS)
            values[block] = tensor_rows(self.space, xs[block], ys[block]).values(self.coefficients)
        return values

    def evaluate_lattice(self, xs, ys) -> np.ndarray:
        """Values at every ``(x, y)`` of the lattice *xs* by *ys*, x varying
        slowest: the bits ``evaluate_many`` gives those points; each axis is
        checked, even beside an empty one.  A tile is whole x rows, or part
        of a row past ``_BLOCK_POINTS`` y values; its slots' ``c * bx[a]``
        and clamp bounds are tables over its rows and the y spans it meets."""
        xs, ys = (np.atleast_1d(np.asarray(t, dtype=float)) for t in (xs, ys))
        values = np.empty((xs.size, ys.size))
        (px, py), width = self.space.degrees, min(ys.size, _BLOCK_POINTS) or 1
        height = _BLOCK_POINTS // width
        for j in range(0, max(ys.size, 1), width):
            cols = slice(j, j + width)
            spans_y, by = basis_rows(self.space.knots_y, ys[cols])
            met = np.zeros(self.space.shape[1], dtype=bool)
            met[spans_y] = True
            column = np.cumsum(met)[spans_y] - 1  # each y's span, numbered among those met
            first_y = np.flatnonzero(met) - py + np.arange(py + 1)[:, None]
            by_rows = np.repeat(by.T[:, None, :], min(height, xs.size), axis=1)
            for i in range(0, xs.size, height):
                rows = slice(i, i + height)
                spans_x, bx = basis_rows(self.space.knots_x, xs[rows])
                first_x = spans_x - px + np.arange(px + 1)[:, None]
                # tables[a, b, e, r]: slot (a, b)'s coefficient at met span e, row r
                tables = self.coefficients[first_x[:, None, None, :], first_y[:, :, None]]
                lo, hi = np.full(tables.shape[2:], np.inf), np.full(tables.shape[2:], -np.inf)
                for a, b in np.ndindex(px + 1, py + 1):
                    np.minimum(lo, tables[a, b], out=lo)
                    np.maximum(hi, tables[a, b], out=hi)
                tables *= bx.T[:, None, None, :]
                # point (r, m) reads entry (column[m], r) of a table
                index = column * spans_x.size + np.arange(spans_x.size)[:, None]
                total, term = np.zeros((2, *index.shape))
                for a, b in np.ndindex(px + 1, py + 1):
                    np.take(tables[a, b], index, out=term, mode="clip")
                    term *= by_rows[b, : spans_x.size]
                    total += term
                np.maximum(total, np.take(lo, index, out=term, mode="clip"), out=total)
                np.minimum(total, np.take(hi, index, out=term, mode="clip"), out=values[rows, cols])
        return values.ravel()

    def __repr__(self) -> str:
        return f"WqisaSurface(space={self.space!r})"

