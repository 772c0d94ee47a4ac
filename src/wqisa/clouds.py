"""Point cloud helpers shared across the package.

A point cloud is a plain ``(N, 3)`` float64 array of ``(x, y, z)`` samples.
Row order is meaningful: nearest-neighbor ties are broken by input order,
so functions here must never silently reorder rows.
"""

from __future__ import annotations

import numpy as np


def as_cloud(points) -> np.ndarray:
    """Validate and return *points* as an ``(N, 3)`` float64 array.

    Raises ``ValueError`` for empty input, wrong shape, or non-finite values.
    """
    cloud = np.ascontiguousarray(points, dtype=float)
    if cloud.ndim != 2 or cloud.shape[1] != 3:
        raise ValueError(f"point cloud must have shape (N, 3), got {cloud.shape}")
    if cloud.shape[0] == 0:
        raise ValueError("point cloud is empty")
    if not np.isfinite(cloud).all():
        raise ValueError("point cloud contains non-finite values")
    return cloud


def check_integer(name: str, value, minimum: int) -> int:
    """*value* as an ``int``; ``ValueError`` naming *name* unless it is an
    integer >= *minimum*.  The one check of every count, seed and degree the
    library takes; a bool is an int subclass, but never a count here."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def bounding_box(cloud: np.ndarray) -> tuple[float, float, float, float]:
    """Return ``(xmin, xmax, ymin, ymax)`` of the cloud's planar projection."""
    cloud = as_cloud(cloud)
    return (
        float(cloud[:, 0].min()),
        float(cloud[:, 0].max()),
        float(cloud[:, 1].min()),
        float(cloud[:, 1].max()),
    )


def joint_bounding_box(*clouds: np.ndarray) -> tuple[float, float, float, float]:
    """Smallest ``(xmin, xmax, ymin, ymax)`` holding every cloud's projection."""
    return bounding_box(np.concatenate(clouds))


def check_planar_extent(domain: tuple[float, float, float, float], flat_ok: bool = False) -> None:
    """Raise ``ValueError`` naming each axis along which *domain*, an
    ``(xmin, xmax, ymin, ymax)`` box, has no width, or a width below 2**-511,
    whose square is below the smallest normal float: squared planar distances
    across it go subnormal and would tie points that are not tied.  With
    *flat_ok*, as for a neighbour table, a side of no width passes."""
    xmin, xmax, ymin, ymax = domain
    axes = (("x", xmin, xmax), ("y", ymin, ymax))
    flat = [axis for axis, lo, hi in axes if not lo < hi]
    if flat and not flat_ok:
        raise ValueError(
            f"the planar bounding box (xmin, xmax, ymin, ymax) = {tuple(domain)} has zero "
            f"width in {' and '.join(flat)}; a surface needs points spread along both x and y"
        )
    narrow = [axis for axis, lo, hi in axes if 0 < float(hi) - float(lo) < np.sqrt(np.finfo(float).tiny)]
    if narrow:
        raise ValueError(
            f"the planar bounding box (xmin, xmax, ymin, ymax) = {tuple(domain)} is too narrow in "
            f"{' and '.join(narrow)}: the square of its width is below the smallest normal float"
        )


def diagonal_is_finite(*boxes: tuple[float, float, float, float]) -> bool:
    """Whether the box joining *boxes*, each ``(xmin, xmax, ymin, ymax)``,
    has a finite squared diagonal in Python floats (an overflow is ``inf``,
    not a warning)."""
    xmins, xmaxs, ymins, ymaxs = zip(*boxes)
    width, height = float(max(xmaxs)) - float(min(xmins)), float(max(ymaxs)) - float(min(ymins))
    return bool(np.isfinite(width * width + height * height))


def check_planar_diagonal(domain: tuple[float, float, float, float]) -> None:
    """Raise ``ValueError`` naming *domain*, an ``(xmin, xmax, ymin, ymax)`` box,
    unless ``diagonal_is_finite(domain)``: squared distances across it would tie."""
    if not diagonal_is_finite(domain):
        raise ValueError(
            f"the planar bounding box (xmin, xmax, ymin, ymax) = {tuple(domain)} is too wide: "
            "the square of its diagonal is not finite"
        )


def squared_distance(columns, at, point) -> np.ndarray:
    """``sum((column[at] - coordinate)**2)`` over paired *columns* and *point*
    coordinates, broadcast, in column order: the one squared distance of the
    k-d tree, the neighbour tables and Hausdorff, so a pair has the same bits
    on every path.  One reused ``term`` buffer takes each further column."""
    (first, *rest), (lead, *others) = columns, point
    d2 = first[at] - lead
    d2 *= d2
    term = np.empty_like(d2)
    for column, coordinate in zip(rest, others):
        np.subtract(column[at], coordinate, out=term)
        term *= term
        d2 += term
    return d2
