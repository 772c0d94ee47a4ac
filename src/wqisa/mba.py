"""Multilevel B-spline approximation baseline.

Level 0 fits the cloud on a one-element mesh; every further level halves the
elements in both directions and fits the residuals left by the accumulated
surface.  Level coefficients come from the explicit local least-squares
formula: for each data point the minimum-norm coefficients reproducing it
are computed, then blended per basis function with its squared basis values
as blending weights.  No linear system is solved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clouds import as_cloud, check_planar_extent, joint_bounding_box
from .splines import KnotVector, TensorSplineSpace, WqisaSurface, tensor_rows


@dataclass(frozen=True, eq=False)
class MbaSurface:
    """A stack of per-level surfaces over a common domain; evaluation sums them."""

    levels: tuple[WqisaSurface, ...]

    def __post_init__(self) -> None:
        if len(self.levels) < 1:
            raise ValueError("an MBA surface needs at least one level")

    @property
    def space(self) -> TensorSplineSpace:
        """The finest level's space; every level covers the same domain."""
        return self.levels[-1].space

    def evaluate_many(self, xs, ys) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        total = np.zeros(xs.shape[0])
        for level in self.levels:
            total += level.evaluate_many(xs, ys)
        return total


def dyadic_space(
    degrees: tuple[int, int],
    bbox: tuple[float, float, float, float],
    level: int,
) -> TensorSplineSpace:
    """Uniform tensor mesh with ``2**level`` elements per direction."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    xmin, xmax, ymin, ymax = bbox
    elems = 2**level
    return TensorSplineSpace(
        KnotVector.uniform_open(degrees[0], elems, xmin, xmax),
        KnotVector.uniform_open(degrees[1], elems, ymin, ymax),
    )


def mba_level_coefficients(cloud, space: TensorSplineSpace) -> np.ndarray:
    """Explicit per-level coefficients for the residual cloud on *space*.

    A basis function with no data point in its support gets coefficient 0,
    which keeps the operation total.
    """
    cloud = as_cloud(cloud)
    rows = tensor_rows(space, cloud[:, 0], cloud[:, 1])
    bx, by = rows.bx.T.copy(), rows.by.T.copy()  # one contiguous row per slot
    # sum of squared active basis values factorizes over the tensor product
    ssq = (bx**2).sum(axis=0) * (by**2).sum(axis=0)
    # slot-major (a, b, point) order: each coefficient adds its terms slot
    # by slot, and within a slot point by point
    w = bx[:, None, :] * by[None, :, :]
    flat = rows.flat.transpose(1, 2, 0).ravel()
    nx, ny = space.shape
    numerator = np.bincount(flat, (w**3 * cloud[:, 2] / ssq).ravel(), minlength=nx * ny)
    denominator = np.bincount(flat, (w**2).ravel(), minlength=nx * ny)
    grid = np.zeros(nx * ny)
    touched = denominator > 0.0
    grid[touched] = numerator[touched] / denominator[touched]
    return grid.reshape(nx, ny)


def fit_mba(
    cloud,
    max_levels: int,
    validation,
    degrees: tuple[int, int] = (2, 2),
    domain: tuple[float, float, float, float] | None = None,
) -> tuple[MbaSurface, list[float]]:
    """Fit levels until validation GMSE rises or *max_levels* is reached.

    A coefficient budget also stops the fit before any level after the
    first that would have more basis functions than *cloud* has points:
    such a level cannot be determined by the data, and each level holds
    four times the coefficients of the one before.

    Returns the surface truncated at the best level together with the full
    per-level GMSE history (including the increase that stopped the fit,
    when one occurred).  The default domain is the joint bounding box of
    the training and validation clouds so both stay evaluable.
    """
    if max_levels < 1:
        raise ValueError("max_levels must be >= 1")
    cloud = as_cloud(cloud)
    validation = as_cloud(validation)
    if domain is None:
        domain = joint_bounding_box(cloud, validation)
    check_planar_extent(domain)
    residual = cloud[:, 2].copy()
    val_pred = np.zeros(validation.shape[0])
    levels: list[WqisaSurface] = []
    gmse_history: list[float] = []
    for level in range(max_levels):
        space = dyadic_space(degrees, domain, level)
        if level > 0 and space.shape[0] * space.shape[1] > cloud.shape[0]:
            break
        grid = mba_level_coefficients(
            np.column_stack([cloud[:, 0], cloud[:, 1], residual]), space
        )
        surface = WqisaSurface(space, grid)
        candidate_val = val_pred + surface.evaluate_many(validation[:, 0], validation[:, 1])
        gmse = float(np.mean((validation[:, 2] - candidate_val) ** 2))
        gmse_history.append(gmse)
        if level > 0 and gmse > gmse_history[level - 1]:
            break
        levels.append(surface)
        val_pred = candidate_val
        residual = residual - surface.evaluate_many(cloud[:, 0], cloud[:, 1])
    return MbaSurface(tuple(levels)), gmse_history
