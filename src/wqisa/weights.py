"""Window kernels and the weighted control-point estimator.

Every coefficient of a fitted surface is the weighted mean of cloud heights,
with weights centered at a parametric location ``(u, v)``:

    estimate = sum(z * w(x, y, u, v)) / sum(w(x, y, u, v))

The window kinds are listed in ``KERNELS``: indicator (closed ball of radius
``r``), Gaussian (``exp(-d / (2 sigma^2))``, with a squared-distance variant
behind a switch), k-nearest-neighbor (uniform ``1/k`` on the k closest planar
projections), inverse-distance, and inverse-distance truncated to the K
closest points.  ``_positive_weights`` is the one definition of each kernel.
The kinds that ``KERNELS`` marks ``indexed`` find their neighbors through a
``PlanarIndex`` at every cloud size; the others weigh the whole cloud.

The estimate is a convex combination of the contributing heights, so it is
clamped onto their closed range; the clamp only removes floating-point spill.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .clouds import as_cloud, bbox_diagonal
from .kdtree import PlanarIndex
from .splines import TensorSplineSpace, WqisaSurface, knot_averages

# default coincidence tolerance: this fraction of the bounding-box diagonal
COINCIDENCE_SCALE = 1e-12


class Kernel(NamedTuple):
    """What a window kind needs from a :class:`WeightSpec`."""

    parameter: str | None  # the tunable field, None when the kind has none
    optional: tuple[str, ...]  # further fields the kind accepts
    indexed: bool  # a PlanarIndex can serve the kind's neighbor queries


KERNELS = {
    "indicator": Kernel("radius", (), True),
    "gaussian": Kernel("sigma", ("gaussian_squared",), False),
    "knn": Kernel("k", (), True),
    "idw": Kernel(None, ("coincidence_tol",), False),
    "idw_truncated": Kernel("truncation", ("coincidence_tol",), True),
}

WEIGHT_KINDS = tuple(KERNELS)


class ZeroWeightError(ValueError):
    """Total weight vanished; the window is too narrow for the data."""


@dataclass(frozen=True)
class WeightSpec:
    """A weight-function choice plus exactly the parameters it needs.

    ``outlier_filter`` drops contributing points whose height falls outside
    the Tukey fences ``[Q1 - fence*IQR, Q3 + fence*IQR]`` of the positively
    weighted subset before the quotient is formed.
    """

    kind: str
    radius: float | None = None
    sigma: float | None = None
    k: int | None = None
    truncation: int | None = None
    coincidence_tol: float | None = None
    gaussian_squared: bool = False
    outlier_filter: bool = False
    fence: float = 1.5

    def __post_init__(self) -> None:
        kernel = KERNELS.get(self.kind)
        if kernel is None:
            raise ValueError(f"unknown weight kind {self.kind!r}; expected one of {WEIGHT_KINDS}")
        for name in ("radius", "sigma", "k", "truncation", "coincidence_tol"):
            value = getattr(self, name)
            if name == kernel.parameter and value is None:
                raise ValueError(f"weight kind {self.kind!r} requires parameter {name!r}")
            if value is not None and name != kernel.parameter and name not in kernel.optional:
                raise ValueError(f"parameter {name!r} does not apply to kind {self.kind!r}")
        if self.radius is not None and not self.radius > 0:
            raise ValueError("radius must be positive")
        if self.sigma is not None and not self.sigma > 0:
            raise ValueError("sigma must be positive")
        for name in ("k", "truncation"):
            value = getattr(self, name)
            # bool is an int subclass, but True is no window size
            integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            if value is not None and not (integral and value >= 1):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.coincidence_tol is not None and not self.coincidence_tol >= 0:
            raise ValueError("coincidence tolerance must be nonnegative")
        if not self.fence >= 0:
            raise ValueError("fence multiplier must be nonnegative")

    @property
    def parameter(self) -> float | int | None:
        """The kind's tunable scalar, used for reports and grid labels."""
        name = KERNELS[self.kind].parameter
        return None if name is None else getattr(self, name)

    @classmethod
    def indicator(cls, radius: float, **common) -> "WeightSpec":
        return cls(kind="indicator", radius=radius, **common)

    @classmethod
    def gaussian(cls, sigma: float, squared: bool = False, **common) -> "WeightSpec":
        return cls(kind="gaussian", sigma=sigma, gaussian_squared=squared, **common)

    @classmethod
    def knn(cls, k: int, **common) -> "WeightSpec":
        return cls(kind="knn", k=k, **common)

    @classmethod
    def idw(cls, coincidence_tol: float | None = None, **common) -> "WeightSpec":
        return cls(kind="idw", coincidence_tol=coincidence_tol, **common)

    @classmethod
    def truncated_idw(
        cls, truncation: int, coincidence_tol: float | None = None, **common
    ) -> "WeightSpec":
        return cls(kind="idw_truncated", truncation=truncation, coincidence_tol=coincidence_tol, **common)


def _coincidence_tol(spec: WeightSpec, cloud: np.ndarray) -> float:
    if spec.coincidence_tol is not None:
        return spec.coincidence_tol
    return COINCIDENCE_SCALE * bbox_diagonal(cloud)


def _positive_weights(
    cloud: np.ndarray,
    u: float,
    v: float,
    spec: WeightSpec,
    index: PlanarIndex | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending ids (a reproducible summation order) with positive weight, and those weights."""
    x = cloud[:, 0]
    y = cloud[:, 1]
    if spec.kind == "indicator":
        ids = index.within_radius((u, v), spec.radius)
        return ids, np.ones(ids.size)
    if spec.kind == "gaussian":
        d2 = (x - u) ** 2 + (y - v) ** 2
        exponent = d2 if spec.gaussian_squared else np.sqrt(d2)
        w = np.exp(-exponent / (2.0 * spec.sigma * spec.sigma))
        ids = np.flatnonzero(w > 0.0)
        return ids, w[ids]
    if spec.kind == "knn":
        k = spec.k
        if k > cloud.shape[0]:
            raise ZeroWeightError(f"k={k} exceeds cloud size {cloud.shape[0]}")
        ids = np.sort(index.knn((u, v), k))
        return ids, np.full(ids.size, 1.0 / k)
    # the two inverse-distance kinds share the coincidence case split
    tol = _coincidence_tol(spec, cloud)
    if spec.kind == "idw_truncated":
        ids = np.sort(index.knn((u, v), min(spec.truncation, cloud.shape[0])))
    else:
        ids = np.arange(cloud.shape[0])
    d2 = (x[ids] - u) ** 2 + (y[ids] - v) ** 2
    coincident = d2 <= tol * tol
    if coincident.any():
        ids = ids[coincident]
        return ids, np.full(ids.size, 1.0 / ids.size)
    return ids, 1.0 / np.sqrt(d2)


def estimate_control_point(
    cloud,
    u: float,
    v: float,
    spec: WeightSpec,
    index: PlanarIndex | None = None,
) -> float:
    """Weighted mean of cloud heights with the window centered at ``(u, v)``.

    *index* must be a ``PlanarIndex`` over the cloud's planar projection;
    an indexed kind builds one when it is omitted.

    With ``spec.outlier_filter`` the positively weighted points are first
    screened through Tukey fences on their heights (quartiles by linear
    interpolation of order statistics); if the fences reject everything the
    unfiltered quotient is used and a ``RuntimeWarning`` flags the event.

    Raises ``ZeroWeightError`` when no point receives positive weight, so
    the caller can widen the window instead of silently producing zeros.
    """
    cloud = as_cloud(cloud)
    if index is None and KERNELS[spec.kind].indexed:
        index = PlanarIndex(cloud[:, :2])
    ids, w = _positive_weights(cloud, float(u), float(v), spec, index)
    if ids.size == 0:
        raise ZeroWeightError(f"no point has positive weight at (u, v)=({u}, {v})")
    z = cloud[ids, 2]
    if spec.outlier_filter and z.size > 1:
        q1, q3 = np.percentile(z, (25.0, 75.0))
        iqr = q3 - q1
        keep = (z >= q1 - spec.fence * iqr) & (z <= q3 + spec.fence * iqr)
        if not keep.any():
            warnings.warn(
                "outlier filter rejected every contributing point; "
                "falling back to the unfiltered estimate",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            z = z[keep]
            w = w[keep]
    total = float(np.sum(w))
    if not total > 0.0:
        raise ZeroWeightError(f"total weight underflowed to zero at (u, v)=({u}, {v})")
    estimate = float(np.dot(z, w)) / total
    return float(min(max(estimate, z.min()), z.max()))


def fit_surface(cloud, space: TensorSplineSpace, spec: WeightSpec) -> WqisaSurface:
    """Surface on *space* with a coefficient estimated at every pair of knot averages.

    Entries are independent; when the window kind queries neighborhoods, a
    k-d tree over the cloud is built once and serves every entry.
    Zero-weight failures are re-raised with the offending grid entry.
    """
    cloud = as_cloud(cloud)
    index = PlanarIndex(cloud[:, :2]) if KERNELS[spec.kind].indexed else None
    us = knot_averages(space.knots_x)
    vs = knot_averages(space.knots_y)
    grid = np.empty((us.size, vs.size))
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            try:
                grid[i, j] = estimate_control_point(cloud, u, v, spec, index)
            except ZeroWeightError as exc:
                raise ZeroWeightError(f"coefficient (i={i}, j={j}): {exc}") from None
    return WqisaSurface(space, grid)
