"""Exact planar k-d tree for nearest-neighbor and radius queries.

An implicit bucketed tree (Friedman, Bentley & Finkel, ACM TOMS 1977): a
permutation of the point ids plus one split value per internal node.  Node
``(s, e)`` covers positions ``s:e``; above ``LEAF_SIZE`` points it splits at
``m = (s + e) // 2``, on x at even depth and y at odd, with ``s:m`` at or below
the split value and ``m:e`` at or above it.  Both queries gather candidates
through one walk, which keeps the leaf runs whose cells lie within a squared
distance bound and scans them by numpy.

Built once, then immutable, so an index can be shared across threads.
Squared distances are computed as a full scan computes them and only cells
strictly beyond the search bound are skipped, so results equal a full scan's;
ties at the k-th distance keep the lower point id.  ``query_point`` rejects a
query whose squared distance to the far corner of the points' bounding box
overflows, since a distance that overflows would rank as a tie.
"""

from __future__ import annotations

from math import isfinite

import numpy as np

# most points per leaf: a leaf costs one numpy pass, not a Python step per point
LEAF_SIZE = 64


class PlanarIndex:
    """Balanced bucketed 2-d tree over planar points, alternating axes."""

    __slots__ = ("points", "_order", "_x", "_y", "_split", "_box")

    def __init__(self, points: np.ndarray):
        raw = np.asarray(points, dtype=float)
        if raw.ndim != 2 or raw.shape[1] < 2:
            raise ValueError(f"points must have shape (N, 2), got {np.shape(points)}")
        if raw.shape[0] == 0:
            raise ValueError("cannot index an empty point set")
        # private copy: the index must not alias caller-mutable memory
        pts = np.array(raw[:, :2], dtype=float, order="C")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        pts.flags.writeable = False
        self.points = pts
        (xmin, ymin), (xmax, ymax) = pts.min(axis=0), pts.max(axis=0)
        self._box = (float(xmin), float(xmax), float(ymin), float(ymax))
        n = pts.shape[0]
        order = np.arange(n)
        # split[m] belongs to the one internal node that splits at m
        split = [0.0] * n
        stack = [(0, n, 0)]
        while stack:
            s, e, axis = stack.pop()
            if e - s <= LEAF_SIZE:
                continue
            m = (s + e) // 2
            ids = order[s:e]
            keys = pts[ids, axis]
            part = np.argpartition(keys, m - s)
            order[s:e] = ids[part]
            split[m] = float(keys[part[m - s]])
            stack.append((s, m, 1 - axis))
            stack.append((m, e, 1 - axis))
        self._order = order
        # coordinates in tree order, so a leaf run is a contiguous slice
        self._x = pts[order, 0]
        self._y = pts[order, 1]
        self._split = split

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def knn(self, query, k: int, with_count: bool = False):
        """Ids of the *k* nearest points, ascending (distance, id).

        With ``with_count=True`` also returns the number of tree nodes
        visited, which instruments the sublinear-growth contract.
        """
        n = self.size
        if not 1 <= k <= n:
            raise ValueError(f"k must be in [1, {n}], got {k}")
        u, v = query_point(query, self._box)
        # the k-th distance within the smallest subtree on the query's side
        # that holds 2k points bounds the true k-th distance from above; a
        # subtree of only k points would give its farthest point as the bound
        s, e, axis = 0, n, 0
        while e - s > LEAF_SIZE:
            m = (s + e) // 2
            child = (s, m) if (v if axis else u) < self._split[m] else (m, e)
            if child[1] - child[0] < 2 * k:
                break
            (s, e), axis = child, 1 - axis
        ids = self._order[s:e]
        d2 = (self._x[s:e] - u) ** 2 + (self._y[s:e] - v) ** 2
        visited = 1
        if e - s < n:  # points outside the subtree may still beat the bound
            ids, d2, visited = self._ball(u, v, float(np.partition(d2, k - 1)[k - 1]))
        ids = _nearest(ids, d2, k)
        if with_count:
            return ids, visited
        return ids

    def within_radius(self, query, r: float) -> np.ndarray:
        """Ids of all points with distance <= *r* (closed ball), ascending id."""
        if not r >= 0:
            raise ValueError(f"radius must be nonnegative, got {r}")
        u, v = query_point(query, self._box)
        r2 = r * r
        ids, d2, _ = self._ball(u, v, r2)
        return np.sort(ids[d2 <= r2])

    def _ball(self, u: float, v: float, bound: float) -> tuple[np.ndarray, np.ndarray, int]:
        """Ids and squared distances of the points in every leaf cell within
        squared distance *bound* of ``(u, v)``, and the number of nodes visited."""
        split = self._split
        runs: list[tuple[int, int]] = []  # ascending leaf runs, adjacent ones merged
        visited = 0
        # (s, e, axis, own, other): gaps from the query to the node's cell along
        # its split axis and the other axis.  The near child inherits them; the
        # far child widens the gap to the split line.  Left children pop first.
        stack = [(0, self.size, 0, 0.0, 0.0)]
        while stack:
            s, e, axis, own, other = stack.pop()
            visited += 1
            if e - s <= LEAF_SIZE:
                if runs and runs[-1][1] == s:
                    runs[-1] = (runs[-1][0], e)
                else:
                    runs.append((s, e))
                continue
            m = (s + e) // 2
            gap = (v if axis else u) - split[m]
            far = gap * gap + other * other <= bound
            if gap < 0:
                if far:
                    stack.append((m, e, 1 - axis, other, -gap))
                stack.append((s, m, 1 - axis, other, own))
            else:
                stack.append((m, e, 1 - axis, other, own))
                if far:
                    stack.append((s, m, 1 - axis, other, gap))
        if len(runs) == 1:
            s, e = runs[0]
            ids, x, y = self._order[s:e], self._x[s:e], self._y[s:e]
        else:
            ids = np.concatenate([self._order[s:e] for s, e in runs])
            x = np.concatenate([self._x[s:e] for s, e in runs])
            y = np.concatenate([self._y[s:e] for s, e in runs])
        return ids, (x - u) ** 2 + (y - v) ** 2, visited


def query_point(query, box: tuple[float, float, float, float]) -> tuple[float, float]:
    """The coordinates of *query*, checked so that every squared distance from
    it to a point in *box*, ``(xmin, xmax, ymin, ymax)``, is finite: none
    exceeds the squared offset to the box's farthest corner."""
    u, v = float(query[0]), float(query[1])
    if not (isfinite(u) and isfinite(v)):
        raise ValueError(f"query point must be finite, got ({u}, {v})")
    xmin, xmax, ymin, ymax = box
    du, dv = max(u - xmin, xmax - u), max(v - ymin, ymax - v)
    if not isfinite(du * du + dv * dv):
        raise ValueError(
            f"query point ({u}, {v}) is too far from the points: "
            "its squared distance to the far corner of their bounding box is not finite"
        )
    return u, v


def _nearest(ids: np.ndarray, d2: np.ndarray, k: int) -> np.ndarray:
    """The *k* candidates first in (distance, id) order, in that order.

    A partition finds the k-th distance; only candidates at or below it,
    ties included, are sorted.
    """
    if k < d2.size:
        head = d2 <= np.partition(d2, k - 1)[k - 1]
        ids, d2 = ids[head], d2[head]
    return ids[np.lexsort((ids, d2))[:k]]
