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
    integer >= *minimum*.  A bool is an int subclass, but never a count here."""
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


def check_planar_extent(domain: tuple[float, float, float, float]) -> None:
    """Raise ``ValueError`` naming each axis along which *domain*, an
    ``(xmin, xmax, ymin, ymax)`` box, has no width."""
    xmin, xmax, ymin, ymax = domain
    flat = [axis for axis, lo, hi in (("x", xmin, xmax), ("y", ymin, ymax)) if not lo < hi]
    if flat:
        raise ValueError(
            f"the planar bounding box (xmin, xmax, ymin, ymax) = {tuple(domain)} has zero "
            f"width in {' and '.join(flat)}; a surface needs points spread along both x and y"
        )


def bbox_diagonal(cloud: np.ndarray) -> float:
    """Diagonal length of the planar bounding box (0 for a single point)."""
    xmin, xmax, ymin, ymax = bounding_box(cloud)
    return float(np.hypot(xmax - xmin, ymax - ymin))
