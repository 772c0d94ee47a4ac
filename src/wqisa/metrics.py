"""Evaluation measures: punctual error statistics, LMSE maps, Hausdorff."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .clouds import as_cloud
from .splines import TensorSplineSpace, locate_spans, sample_lattice

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

    One sweep over row blocks of *a*: row minima of each block's squared
    distances give the direction a -> b, and a running column minimum gives
    b -> a.
    """
    a = as_cloud(a)
    b = as_cloud(b)
    bx, by, bz = (np.ascontiguousarray(column) for column in b.T)
    rows = max(1, _BLOCK_PAIRS // b.shape[0])
    a_to_b = 0.0
    b_to_a = np.full(b.shape[0], np.inf)
    for start in range(0, a.shape[0], rows):
        block = a[start : start + rows]
        d2 = (block[:, 0:1] - bx) ** 2 + (block[:, 1:2] - by) ** 2 + (block[:, 2:3] - bz) ** 2
        a_to_b = max(a_to_b, float(d2.min(axis=1).max()))
        np.minimum(b_to_a, d2.min(axis=0), out=b_to_a)
    return float(np.sqrt(max(a_to_b, float(b_to_a.max()))))


def surface_sample_points(surface, density: int = 4) -> np.ndarray:
    """Sample the surface on a uniform grid, ``density`` points per element edge.

    The sampled set stands in for the surface image when computing the
    Hausdorff distance; the density is explicit so results are reproducible.
    """
    if density < 1:
        raise ValueError("density must be >= 1")
    ex, ey = surface.space.element_counts
    return sample_lattice(surface, (density * ex + 1, density * ey + 1))
