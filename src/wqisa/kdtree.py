"""Exact planar k-d tree for nearest-neighbor and radius queries.

Built once, then immutable; queries allocate only local state, so an index
can be shared across threads.  Distances are compared on squared norms
internally.  Ties at the k-th distance keep the lower point id so that
results are reproducible regardless of build order.
"""

from __future__ import annotations

import heapq

import numpy as np


class PlanarIndex:
    """Balanced 2-d tree over planar points, median split, alternating axes."""

    __slots__ = ("points", "_node_point", "_node_axis", "_node_left", "_node_right", "_root")

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
        node_point: list[int] = []
        node_axis: list[int] = []
        node_left: list[int] = []
        node_right: list[int] = []

        def add_node(ids: np.ndarray, depth: int) -> int:
            if ids.size == 0:
                return -1
            axis = depth % 2
            # sort on (coordinate, id) so equal coordinates split deterministically
            order = ids[np.lexsort((ids, pts[ids, axis]))]
            mid = order.size // 2
            node = len(node_point)
            node_point.append(int(order[mid]))
            node_axis.append(axis)
            node_left.append(-2)
            node_right.append(-2)
            node_left[node] = add_node(order[:mid], depth + 1)
            node_right[node] = add_node(order[mid + 1 :], depth + 1)
            return node

        self._root = add_node(np.arange(pts.shape[0]), 0)
        self._node_point = np.asarray(node_point, dtype=np.intp)
        self._node_axis = np.asarray(node_axis, dtype=np.intp)
        self._node_left = np.asarray(node_left, dtype=np.intp)
        self._node_right = np.asarray(node_right, dtype=np.intp)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def knn(self, query, k: int, with_count: bool = False):
        """Ids of the *k* nearest points, ascending distance.

        With ``with_count=True`` also returns the number of tree nodes
        visited, which instruments the sublinear-growth contract.
        """
        if not 1 <= k <= self.size:
            raise ValueError(f"k must be in [1, {self.size}], got {k}")
        u, v = float(query[0]), float(query[1])
        pts = self.points
        node_point = self._node_point
        node_axis = self._node_axis
        node_left = self._node_left
        node_right = self._node_right
        # max-heap on (d2, id): heap root is the current worst candidate
        heap: list[tuple[float, int]] = []
        visited = 0

        def visit(node: int) -> None:
            nonlocal visited
            if node < 0:
                return
            visited += 1
            pid = node_point[node]
            px, py = pts[pid, 0], pts[pid, 1]
            dx = px - u
            dy = py - v
            d2 = dx * dx + dy * dy
            if len(heap) < k:
                heapq.heappush(heap, (-d2, -pid))
            else:
                worst_d2, worst_id = -heap[0][0], -heap[0][1]
                if (d2, pid) < (worst_d2, worst_id):
                    heapq.heapreplace(heap, (-d2, -pid))
            axis = node_axis[node]
            diff = (u - px) if axis == 0 else (v - py)
            near, far = (node_left[node], node_right[node]) if diff < 0 else (
                node_right[node],
                node_left[node],
            )
            visit(near)
            if len(heap) < k or diff * diff <= -heap[0][0]:
                visit(far)

        visit(self._root)
        ordered = sorted((-d2, -pid) for d2, pid in heap)
        ids = np.asarray([pid for _, pid in ordered], dtype=np.intp)
        if with_count:
            return ids, visited
        return ids

    def within_radius(self, query, r: float) -> np.ndarray:
        """Ids of all points with distance <= *r* (closed ball), ascending id."""
        if r < 0:
            raise ValueError(f"radius must be nonnegative, got {r}")
        u, v = float(query[0]), float(query[1])
        r2 = r * r
        pts = self.points
        hits: list[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node < 0:
                continue
            pid = self._node_point[node]
            px, py = pts[pid, 0], pts[pid, 1]
            dx = px - u
            dy = py - v
            if dx * dx + dy * dy <= r2:
                hits.append(int(pid))
            diff = (u - px) if self._node_axis[node] == 0 else (v - py)
            near, far = (
                (self._node_left[node], self._node_right[node])
                if diff < 0
                else (self._node_right[node], self._node_left[node])
            )
            stack.append(near)
            if diff * diff <= r2:
                stack.append(far)
        hits.sort()
        return np.asarray(hits, dtype=np.intp)
