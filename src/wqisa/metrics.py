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
    x_edges = space.knots_x.breakpoints
    y_edges = space.knots_y.breakpoints
    ex = locate_spans(x_edges, x_edges.size - 2, validation[:, 0])
    ey = locate_spans(y_edges, y_edges.size - 2, validation[:, 1])
    res = residuals(surface, validation)
    shape = (x_edges.size - 1, y_edges.size - 1)
    sums = np.zeros(shape)
    counts = np.zeros(shape, dtype=np.intp)
    np.add.at(sums, (ex, ey), res**2)
    np.add.at(counts, (ex, ey), 1)
    values = np.zeros(shape)
    hit = counts > 0
    values[hit] = sums[hit] / counts[hit]
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
    ij = np.minimum((np.vstack([a[:, :2], b[:, :2]]) - (x0, y0)) / side, (nx - 1, ny - 1))
    cell = (ij[:, 0].astype(np.intp) + 1) * (ny + 2) + ij[:, 1].astype(np.intp) + 1
    # each cell keeps its lowest-id point of b, an empty one a sentinel at infinity
    bx, by, bz = np.vstack([b, np.full(3, np.inf)]).T.copy()  # contiguous rows
    keep = np.full((nx + 2) * (ny + 2), n)
    occupied, first = np.unique(cell[m:], return_index=True)
    keep[occupied] = first
    bound = np.full(m, np.inf)
    for step in (-ny - 3, -ny - 2, -ny - 1, -1, 0, 1, ny + 1, ny + 2, ny + 3):
        r = keep[cell[:m] + step]
        np.minimum(bound, (a[:, 0] - bx[r]) ** 2 + (a[:, 1] - by[r]) ** 2 + (a[:, 2] - bz[r]) ** 2,
                   out=bound)
    order = np.lexsort((np.arange(m), -bound))  # descending bound, then index
    rows = max(1, _BLOCK_PAIRS // n)
    start = 0
    while start < m and bound[order[start]] > best:
        batch = order[start : start + rows]
        batch = batch[bound[batch] > best]  # a prefix: the bounds descend
        # d2 lives until the next batch's is made, so that its memory is reused
        d2 = _pair_squared(a[batch], bx[:n], by[:n], bz[:n])
        best = max(best, float(d2.min(axis=1).max()))
        start += rows
    return best


def _pair_squared(rows: np.ndarray, bx, by, bz) -> np.ndarray:
    """Squared distances from each of *rows* (axis 0) to each point ``(bx, by, bz)``."""
    return (rows[:, 0:1] - bx) ** 2 + (rows[:, 1:2] - by) ** 2 + (rows[:, 2:3] - bz) ** 2


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
