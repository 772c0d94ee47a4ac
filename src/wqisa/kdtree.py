"""Exact planar k-d tree for nearest-neighbor and radius queries.

An implicit bucketed tree (Friedman, Bentley & Finkel, ACM TOMS 1977): a
permutation of the point ids, with nodes numbered as a heap.  Node 1 covers
every position; node ``i`` over ``s:e`` splits at ``m = (s + e) // 2``, on x
at even depth and y at odd, into node ``2i`` over ``s:m`` (at or below the
split value) and ``2i + 1`` over ``m:e`` (at or above it).  Every node above
the least depth at which none holds more than ``LEAF_SIZE`` points splits, so
all leaves lie at that depth.  Each node keeps its start, size and split
value, and the bounding box of its points.

Both queries take one point ``(2,)`` or a block ``(m, 2)``, and one vectorised
walk answers every query of a block.  A k-nearest query first descends, a
level at a time, to each query's bound subtree: the smallest subtree on its
side that holds 2k points.  Its k-th squared distance bounds the true one from
above.  A radius query's bound is ``r**2``.  The walk then goes down a level
at a time over (query, node) pairs and keeps a pair while the node's box lies
within its query's bound.  The kept leaves' points are scanned in
``budget_runs``, as tables cut rows.

Built once, then immutable, so an index can be shared across threads.
``clouds.squared_distance`` is the tree's squared distance, and a box's
squared gap is taken the same way from its nearest sides.  Subtraction and
squaring are monotone in floating point, so a point in a box beyond the bound
can neither reach nor tie it, and results equal a full scan's.  Ties at the
k-th distance keep the lower point id.  ``query_point`` rejects a query whose
squared distance to the far corner of the points' bounding box overflows,
since a distance that overflows would rank as a tie.
"""

from __future__ import annotations

from math import isfinite

import numpy as np

from .clouds import check_integer, squared_distance

# most points per leaf: a leaf costs one numpy pass, not a Python step per point
LEAF_SIZE = 64
# most entries in one candidate array: a run of budget_runs, here a slice of
# a tree walk, in weights.NeighbourTable a batch or a stack of windows; only
# one row may make a larger one
TABLE_BUDGET = 1 << 15
_CHILDREN = np.arange(2)


class PlanarIndex:
    """Balanced bucketed 2-d tree over planar points, alternating axes."""

    __slots__ = ("points", "_order", "_depth", "_x", "_y", "_start", "_size", "_split", "box", "_bounds")

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
        self.box = (float(xmin), float(xmax), float(ymin), float(ymax))
        n = pts.shape[0]
        # every node above the least depth at which none holds more than
        # LEAF_SIZE points splits, so all leaves lie at that depth
        depth = 0
        while -(-n >> depth) > LEAF_SIZE:  # ceil(n / 2**depth)
            depth += 1
        heap = 2 << depth  # nodes 1 .. 2**(depth + 1) - 1; 0 is unused
        order = np.arange(n)
        start, end, split = [0] * heap, [0] * heap, [0.0] * heap
        end[1] = n
        for i in range(1, heap // 2):
            s, e, axis = start[i], end[i], (i.bit_length() - 1) % 2
            m = (s + e) // 2
            ids = order[s:e]
            keys = pts[ids, axis]
            part = np.argpartition(keys, m - s)
            order[s:e] = ids[part]
            split[i] = float(keys[part[m - s]])
            start[2 * i], end[2 * i], start[2 * i + 1], end[2 * i + 1] = s, m, m, e
        self._order = order
        self._depth = depth
        # coordinates in tree order, so a leaf run is a contiguous slice
        self._x = pts[order, 0]
        self._y = pts[order, 1]
        self._start = np.array(start, dtype=np.intp)
        self._size = np.array(end, dtype=np.intp) - self._start
        self._split = np.array(split)
        # each node's box as (xmin, ymin, -xmax, -ymax); the box of two
        # children is their elementwise minimum
        bounds = np.full((heap, 4), np.inf)
        heads = self._start[heap // 2 :]
        bounds[heap // 2 :] = np.column_stack([
            np.minimum.reduceat(self._x, heads), np.minimum.reduceat(self._y, heads),
            -np.maximum.reduceat(self._x, heads), -np.maximum.reduceat(self._y, heads),
        ])
        for d in reversed(range(depth)):
            children = bounds[2 << d : 4 << d]
            bounds[1 << d : 2 << d] = np.minimum(children[0::2], children[1::2])
        self._bounds = bounds

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def knn(self, query, k: int, with_count: bool = False):
        """Ids of the *k* nearest points, ascending (distance, id): ``(k,)``
        for one point, ``(m, k)`` for a block of *m*.

        With ``with_count=True`` also returns the number of (query, node)
        pairs visited, which instruments the sublinear-growth contract.
        """
        k = check_integer("k", k, 1)
        if k > self.size:
            raise ValueError(f"k must be in [1, {self.size}], got {k}")
        queries = query_point(query, self.box)
        block = queries.reshape(-1, 2)
        bound, visited = self._bound(block, k)
        leaf_q, leaf, more = self._walk(block, bound)
        ids = np.empty((len(block), k), dtype=np.intp)
        for rows, cq, pos, d2 in self._scan(block, leaf_q, leaf):
            near = d2 <= bound[cq]
            cq, pid, d2 = cq[near], self._order[pos[near]], d2[near]
            # every query keeps at least the k points of its bound subtree;
            # sorted by (query, distance, id), its k lead its run of cq
            heads = np.searchsorted(cq, np.arange(rows.start, rows.stop))
            ids[rows] = pid[np.lexsort((pid, d2, cq))[heads[:, None] + np.arange(k)]]
        ids = ids.reshape(*queries.shape[:-1], k)
        if with_count:
            return ids, visited + more
        return ids

    def within_radius(self, query, r: float):
        """Ids of all points with distance <= *r* (closed ball), ascending id:
        an array for one point, a list of *m* arrays for a block of *m*."""
        if not r >= 0:
            raise ValueError(f"radius must be nonnegative, got {r}")
        queries = query_point(query, self.box)
        block = queries.reshape(-1, 2)
        r2 = r * r
        leaf_q, leaf, _ = self._walk(block, np.full(len(block), r2))
        found = []
        for rows, cq, pos, d2 in self._scan(block, leaf_q, leaf):
            inside = d2 <= r2
            cq, pid = cq[inside] - rows.start, self._order[pos[inside]]
            # sorted by (query, id) through one integer key per candidate
            keys = np.sort(cq * self.size + pid)
            ends = np.cumsum(np.bincount(cq, minlength=rows.stop - rows.start))
            found += np.split(keys % self.size, ends[:-1])
        return found[0] if queries.ndim == 1 else found

    def _bound(self, block: np.ndarray, k: int) -> tuple[np.ndarray, int]:
        """Each query's k-th squared distance within the smallest subtree on
        its side that holds 2k points, which bounds its true k-th distance
        from above (a subtree of only k points would give its farthest point
        as the bound), and the number of nodes passed on the way down."""
        levels = 0  # the deepest level where some node holds 2k points
        while levels < self._depth and -(-self.size >> (levels + 1)) >= 2 * k:
            levels += 1
        node = np.ones(len(block), dtype=np.intp)
        for d in range(levels):
            node = 2 * node + (block[:, d % 2] >= self._split[node])
        # a node of that level may hold fewer; its parent holds 2k then
        small = self._size[node] < 2 * k if levels else np.zeros(len(block), dtype=bool)
        node[small] >>= 1
        visited = len(block) * (levels + 1) - int(np.count_nonzero(small))
        bound = np.empty(len(block))
        width = int(self._size[node].max(initial=1))
        cols = np.arange(width)
        for rows in budget_runs(np.full(len(block), width)):
            inside = cols < self._size[node[rows], None]
            pos = np.where(inside, self._start[node[rows], None] + cols, 0)
            d2 = squared_distance((self._x, self._y), pos, (block[rows, 0, None], block[rows, 1, None]))
            d2[~inside] = np.inf
            bound[rows] = np.partition(d2, k - 1, axis=1)[:, k - 1]
        return bound, visited

    def _walk(self, block: np.ndarray, bound: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """The (query, leaf) pairs of *block* whose leaf box lies within the
        query's squared distance *bound*, in query order, and the number of
        pairs visited on the way down."""
        offsets = np.concatenate((block, -block), axis=1)  # (u, v, -u, -v)
        # the walk starts from every node two levels down: testing those four
        # costs fewer pairs than reaching them from the root
        top = min(self._depth, 2)
        cq = np.arange(len(block)).repeat(1 << top)
        node = np.tile(np.arange(1 << top, 2 << top), len(block))
        visited = 0
        for d in range(top, self._depth + 1):
            if d > top:
                cq, node = cq.repeat(2), (2 * node[:, None] + _CHILDREN).ravel()
            visited += cq.size
            # (xmin - u, ymin - v, u - xmax, v - ymax) as a full scan subtracts;
            # of each axis's pair at most one is positive, so the sum of the
            # clipped squares is the box's squared gap
            gap = self._bounds[node] - offsets[cq]
            np.maximum(gap, 0.0, out=gap)
            gap *= gap
            near = np.add.reduce(gap, axis=1) <= bound[cq]
            cq, node = cq[near], node[near]
        return cq, node, visited

    def _scan(self, block: np.ndarray, cq: np.ndarray, node: np.ndarray):
        """``(rows, cq, positions, d2)`` for the ``budget_runs`` of *block*:
        each candidate's query, tree position and squared distance, in query
        order, from the (query, leaf) pairs *cq*, *node*."""
        sizes = self._size[node]
        for rows in budget_runs(np.bincount(cq, weights=sizes, minlength=len(block))):
            pairs = slice(*np.searchsorted(cq, (rows.start, rows.stop)))
            size = sizes[pairs]
            owner = np.repeat(cq[pairs], size)
            pos = np.arange(owner.size) + np.repeat(self._start[node[pairs]] - np.cumsum(size) + size, size)
            centres = (block[owner, 0], block[owner, 1])  # contiguous, not strided columns
            yield rows, owner, pos, squared_distance((self._x, self._y), pos, centres)


def budget_runs(sizes: np.ndarray):
    """Slices that cut rows of *sizes* entries, in order, into runs of at most
    ``TABLE_BUDGET`` entries (read at each call) or of a single larger row."""
    ends = np.cumsum(sizes)
    first = 0
    while first < len(ends):
        taken = ends[first - 1] if first else 0
        last = max(first + 1, int(np.searchsorted(ends, taken + TABLE_BUDGET, side="right")))
        yield slice(first, last)
        first = last


def query_point(query, box: tuple[float, float, float, float]) -> np.ndarray:
    """*query*, one point ``(2,)`` or a block ``(m, 2)``, as floats, checked
    row by row so that every squared distance from it to a point in *box*,
    ``(xmin, xmax, ymin, ymax)``, is finite: none exceeds the squared offset
    to the box's farthest corner.  The first row that fails is named."""
    queries = np.asarray(query, dtype=float)
    if queries.ndim not in (1, 2) or queries.shape[-1] != 2:
        raise ValueError(f"a query is one point (2,) or a block (m, 2), got shape {queries.shape}")
    xmin, xmax, ymin, ymax = box
    u, v = queries[..., 0], queries[..., 1]
    with np.errstate(over="ignore", invalid="ignore"):
        du, dv = np.maximum(u - xmin, xmax - u), np.maximum(v - ymin, ymax - v)
        bad = ~np.isfinite(du * du + dv * dv)
    if bad.any():
        u, v = map(float, queries.reshape(-1, 2)[np.argmax(bad.ravel())])
        if not (isfinite(u) and isfinite(v)):
            raise ValueError(f"query point must be finite, got ({u}, {v})")
        raise ValueError(
            f"query point ({u}, {v}) is too far from the points: "
            "its squared distance to the far corner of their bounding box is not finite"
        )
    return queries
