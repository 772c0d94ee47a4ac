"""Multilevel B-spline approximation baseline.

Level 0 fits the cloud on a one-element mesh; every further level halves the
elements in both directions and fits the residuals left by the accumulated
surface.  Level coefficients come from the explicit local least-squares
formula: for each data point the minimum-norm coefficients reproducing it
are computed, then blended per basis function with its squared basis values
as blending weights.  No linear system is solved.  A level's one set of
training ``tensor_rows`` gives its coefficients and the next residual.  The
level sums walk the slots in ``(a, b)`` order: per slot ``w = bx[a] * by[b]``,
and ``np.add.at`` adds the points' terms, in point order, into one numerator
and one denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clouds import as_cloud, check_integer, check_planar_extent, joint_bounding_box
from .metrics import mean_square
from .pipeline import STAGNATION_TOL, FitConfig
from .splines import TensorRows, TensorSplineSpace, WqisaSurface, tensor_rows


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

    def evaluate_lattice(self, xs, ys) -> np.ndarray:
        """Values on the lattice *xs* by *ys*, summed as ``evaluate_many`` sums them."""
        total = np.zeros(np.size(xs) * np.size(ys))
        for level in self.levels:
            total += level.evaluate_lattice(xs, ys)
        return total


def mba_level_coefficients(rows: TensorRows, z) -> np.ndarray:
    """Explicit per-level coefficients for the heights *z* at the points of *rows*.

    A basis function with no data point in its support gets coefficient 0,
    which keeps the operation total.  *z* must be one finite height a point.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != rows.base.shape:
        raise ValueError(f"z must hold one height per point, shape {rows.base.shape}, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("z must be finite")
    # sum of squared active basis values factorizes over the tensor product
    ssq = (rows.bx**2).sum(axis=0) * (rows.by**2).sum(axis=0)
    nx, ny = rows.shape
    numerator, denominator = np.zeros((2, nx * ny))
    # each coefficient adds its terms slot by slot, then point by point
    for (a, b), offset in np.ndenumerate(rows.offsets):
        w, flat = rows.bx[a] * rows.by[b], rows.base + offset
        # w * w * w, not w**3: numpy's power rounds by the SIMD variant it dispatches
        np.add.at(numerator, flat, w * w * w * z / ssq)
        np.add.at(denominator, flat, w * w)
    return np.divide(numerator, denominator, out=np.zeros(nx * ny), where=denominator > 0.0).reshape(nx, ny)


def fit_mba(
    cloud,
    max_levels: int,
    validation,
    degrees: tuple[int, int] = FitConfig.degrees,
    domain: tuple[float, float, float, float] | None = None,
) -> tuple[MbaSurface, list[float]]:
    """Fit levels until validation GMSE rises or stagnates, or *max_levels*
    is reached.

    A level that lowers the GMSE by at most ``STAGNATION_TOL`` of the
    previous level's, as the WQISA loop measures stagnation, is kept and
    ends the fit.

    A coefficient budget also stops the fit before any level after the
    first that would have more basis functions than *cloud* has points:
    such a level cannot be determined by the data, and each level holds
    four times the coefficients of the one before.

    Returns the surface truncated at the best level together with the full
    per-level GMSE history (including the increase that stopped the fit,
    when one occurred).  The default domain is the joint bounding box of
    the training and validation clouds so both stay evaluable.
    """
    max_levels = check_integer("max_levels", max_levels, 1)
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
        space = TensorSplineSpace.uniform(degrees, domain, 2**level)
        if level > 0 and space.shape[0] * space.shape[1] > cloud.shape[0]:
            break
        rows = tensor_rows(space, cloud[:, 0], cloud[:, 1])
        grid = mba_level_coefficients(rows, residual)
        surface = WqisaSurface(space, grid)
        candidate_val = val_pred + surface.evaluate_many(validation[:, 0], validation[:, 1])
        gmse = mean_square(validation[:, 2] - candidate_val)
        gmse_history.append(gmse)
        previous = gmse_history[level - 1] if level > 0 else None
        if previous is not None and gmse > previous:
            break
        levels.append(surface)
        if previous is not None and previous - gmse <= STAGNATION_TOL * previous:
            break
        val_pred = candidate_val
        residual = residual - rows.values(grid)
    return MbaSurface(tuple(levels)), gmse_history
