"""Evaluation measures: punctual error statistics, LMSE maps, Hausdorff, L-inf."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clouds import as_cloud
from .splines import TensorSplineSpace, locate_spans, sample_lattice

# rows per block when forming pairwise distances, bounds peak memory
_CHUNK = 256


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
        return {
            "mean": self.mean,
            "std": self.std,
            "mse": self.mse,
            "max_abs": self.max_abs,
            "count": self.count,
        }


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
    no validation projection carry exactly 0.  ``x_edges``/``y_edges`` are
    the distinct knot values bounding the elements.
    """

    values: np.ndarray
    counts: np.ndarray
    x_edges: np.ndarray
    y_edges: np.ndarray


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
    return ElementErrorMap(values=values, counts=counts, x_edges=x_edges, y_edges=y_edges)


def _directed_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    worst = 0.0
    for start in range(0, a.shape[0], _CHUNK):
        block = a[start : start + _CHUNK]
        d2 = ((block[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
        worst = max(worst, float(np.sqrt(d2.min(axis=1)).max()))
    return worst


def hausdorff(a, b) -> float:
    """Two-sided Hausdorff distance between nonempty, finite 3-d point sets."""
    a = as_cloud(a)
    b = as_cloud(b)
    return max(_directed_hausdorff(a, b), _directed_hausdorff(b, a))


def surface_sample_points(surface, density: int = 4) -> np.ndarray:
    """Sample the surface on a uniform grid, ``density`` points per element edge.

    The sampled set stands in for the surface image when computing the
    Hausdorff distance; the density is explicit so results are reproducible.
    """
    if density < 1:
        raise ValueError("density must be >= 1")
    ex, ey = surface.space.element_counts
    return sample_lattice(surface, (density * ex + 1, density * ey + 1))


def linf_gridded(values_a, values_b) -> float:
    """Maximum absolute entrywise difference of two aligned scalar grids."""
    a = np.asarray(values_a, dtype=float)
    b = np.asarray(values_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"grid shapes differ: {a.shape} vs {b.shape}")
    return float(np.abs(a - b).max())
