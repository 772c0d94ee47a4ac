"""Evaluation measures: punctual error statistics, LMSE maps, exact pruned Hausdorff."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import isfinite, sqrt

import numpy as np

from .clouds import as_cloud
from .splines import TensorSplineSpace, locate_spans

# point pairs per distance block: bounds peak memory in either argument
# order, and a 256 KB block of squared distances stays in cache
_BLOCK_PAIRS = 1 << 15
# points of either set that one step of the cell sweep takes at once
_BLOCK_ROWS = 1 << 12


@dataclass(frozen=True)
class ErrorStats:
    """Statistics of absolute punctual errors plus the signed-residual MSE."""

    mean: float
    std: float
    mse: float
    max_abs: float
    count: int

    @classmethod
    def from_residuals(cls, residuals) -> "ErrorStats":
        res = np.asarray(residuals, dtype=float)
        if res.ndim != 1 or res.size == 0:
            raise ValueError("residuals must be a nonempty 1-d array")
        abs_res = np.abs(res)
        return cls(
            mean=float(abs_res.mean()),
            std=float(abs_res.std()),  # population convention, like the MSE
            mse=float(np.mean(res**2)),
            max_abs=float(abs_res.max()),
            count=int(res.size),
        )

    def to_dict(self) -> dict:
        return asdict(self)


def residuals(surface, cloud) -> np.ndarray:
    """Signed residuals ``z - f(x, y)`` over the cloud."""
    cloud = as_cloud(cloud)
    return cloud[:, 2] - surface.evaluate_many(cloud[:, 0], cloud[:, 1])


def punctual_errors(surface, cloud) -> ErrorStats:
    """Statistics of ``|z - f(x, y)|`` over the cloud (any evaluable surface)."""
    return ErrorStats.from_residuals(residuals(surface, cloud))


def gmse(surface, cloud) -> float:
    """Mean squared signed residual over the cloud."""
    return float(np.mean(residuals(surface, cloud) ** 2))


@dataclass(frozen=True, eq=False)
class ElementErrorMap:
    """Per-element mean squared validation error on a tensor mesh.

    ``values[e, f]`` is the LMSE of element ``(e, f)``; elements containing
    no validation projection carry exactly 0.
    """

    values: np.ndarray
    counts: np.ndarray


def lmse(surface, validation, space: TensorSplineSpace) -> ElementErrorMap:
    """Mean squared residual of *validation* restricted to each mesh element."""
    validation = as_cloud(validation)
    return _error_map(validation, residuals(surface, validation), space)


def _error_map(points: np.ndarray, res: np.ndarray, space: TensorSplineSpace) -> ElementErrorMap:
    """The LMSE map of *res*, the signed residuals at *points*, on *space*'s mesh."""
    x_edges = space.knots_x.breakpoints
    y_edges = space.knots_y.breakpoints
    ex = locate_spans(x_edges, x_edges.size - 2, points[:, 0])
    ey = locate_spans(y_edges, y_edges.size - 2, points[:, 1])
    shape = (x_edges.size - 1, y_edges.size - 1)
    # each element's sum runs over its points in input order
    cell, size = np.ravel_multi_index((ex, ey), shape), shape[0] * shape[1]
    counts = np.bincount(cell, minlength=size).reshape(shape)
    sums = np.bincount(cell, res**2, minlength=size).reshape(shape)
    values = np.divide(sums, counts, out=np.zeros(shape), where=counts > 0)
    return ElementErrorMap(values=values, counts=counts)


def hausdorff(a, b) -> float:
    """Two-sided Hausdorff distance between nonempty, finite 3-d point sets.

    Exact, with the early break of Taha & Hanbury (IEEE TPAMI 2015): each
    direction bounds each point's squared distance by the points a coarse xy
    grid keeps around it, visits points in descending bound, and scans the
    other set while a bound exceeds the running maximum, which b -> a takes
    over from a -> b.  A bound is one of the point's own distances, so a
    pruned point cannot raise the maximum, and every distance is the
    all-pairs ``dx**2 + dy**2 + dz**2``: the result has all-pairs bits.  A
    cloud against its surface samples scans a few dozen points; sets apart
    in xy, or all at one distance, scan all pairs in each direction.  Raises
    ``ValueError`` if the joint bounding box's squared diagonal is not finite.
    """
    a = as_cloud(a)
    b = as_cloud(b)
    lo = np.minimum(a.min(axis=0), b.min(axis=0)).tolist()
    hi = np.maximum(a.max(axis=0), b.max(axis=0)).tolist()
    sides = [h - l for h, l in zip(hi, lo)]  # python floats: an overflow is inf
    if not isfinite(sum(side * side for side in sides)):
        raise ValueError("the joint bounding box of the two sets has a non-finite squared diagonal")
    box = (*lo[:2], *sides[:2])
    return float(np.sqrt(_directed(b, a, box, _directed(a, b, box, 0.0))))


def _directed(a: np.ndarray, b: np.ndarray, box: tuple, best: float) -> float:
    """The larger of *best* and the squared directed distance a -> b in *box*."""
    m, n = a.shape[0], b.shape[0]
    x0, y0, width, height = box
    # about n square cells and a border ring; scaled, so a tiny box cannot underflow
    scale = max(width, height) or 1.0
    side = scale * max(sqrt(width / scale * (height / scale) / n), 1.0 / n) or 1.0
    nx, ny = int(width / side) + 1, int(height / side) + 1

    def cells(points: np.ndarray) -> np.ndarray:
        ix = np.minimum((points[:, 0] - x0) / side, nx - 1).astype(np.intp)
        iy = np.minimum((points[:, 1] - y0) / side, ny - 1).astype(np.intp)
        return (ix + 1) * (ny + 2) + iy + 1

    def bounds(block: np.ndarray) -> np.ndarray:
        """Each point's least squared distance to a kept point of the 3x3 cells about it."""
        cell, out = cells(block), np.full(block.shape[0], np.inf)
        for step in (-ny - 3, -ny - 2, -ny - 1, -1, 0, 1, ny + 1, ny + 2, ny + 3):
            r = keep[cell + step]
            np.minimum(out, (block[:, 0] - bx[r]) ** 2 + (block[:, 1] - by[r]) ** 2
                       + (block[:, 2] - bz[r]) ** 2, out=out)
        return out

    # each cell keeps its lowest-id point of b, an empty one a sentinel at
    # infinity; both sets go a block at a time, so no temporary grows with them
    bx, by, bz = np.hstack([b.T, np.full((3, 1), np.inf)])  # contiguous rows
    keep = np.full((nx + 2) * (ny + 2), n)
    for start in range(0, n, _BLOCK_ROWS):
        block = b[start : start + _BLOCK_ROWS]
        np.minimum.at(keep, cells(block), np.arange(start, start + block.shape[0]))
    bound = np.concatenate([bounds(a[start : start + _BLOCK_ROWS]) for start in range(0, m, _BLOCK_ROWS)])
    order = np.argsort(-bound, kind="stable")  # descending bound, then index
    rows = max(1, _BLOCK_PAIRS // n)
    start = 0
    while start < m and bound[order[start]] > best:
        batch = order[start : start + rows]
        batch = batch[bound[batch] > best]  # a prefix: the bounds descend
        # no name holds the block, so it is freed before the next is made
        best = max(best, float(_pair_squared(a[batch], bx[:n], by[:n], bz[:n]).min(axis=1).max()))
        start += rows
    return best


def _pair_squared(rows: np.ndarray, bx, by, bz) -> np.ndarray:
    """Squared distances from each of *rows* (axis 0) to each point ``(bx, by, bz)``."""
    d2 = np.square(rows[:, 0:1] - bx)
    term = np.empty_like(d2)  # the other terms are made in place: two blocks live at a time
    for axis, other in ((1, by), (2, bz)):
        d2 += np.square(np.subtract(rows[:, axis : axis + 1], other, out=term), out=term)
    return d2


def surface_sample_points(surface, density: int = 4) -> np.ndarray:
    """Sample the surface on a uniform grid, ``density`` points per element edge.

    The sampled set stands in for the surface image when computing the
    Hausdorff distance; the density is explicit so results are reproducible.
    """
    if density < 1:
        raise ValueError("density must be >= 1")
    xmin, xmax, ymin, ymax = surface.space.domain
    ex, ey = surface.space.element_counts
    xs = np.linspace(xmin, xmax, density * ex + 1)
    ys = np.linspace(ymin, ymax, density * ey + 1)
    z = surface.evaluate_lattice(xs, ys)  # x varies slowest
    return np.column_stack([np.repeat(xs, ys.size), np.tile(ys, xs.size), z])
