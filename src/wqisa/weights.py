"""Window kernels and the weighted control-point estimator.

Every coefficient of a fitted surface is the weighted mean of cloud heights,
with weights centered at a parametric location ``(u, v)``:

    estimate = sum(z * w(x, y, u, v)) / sum(w(x, y, u, v))

The window kinds are listed in ``KERNELS``: indicator (closed ball of radius
``r``), Gaussian (``exp(-d / (2 sigma^2))``, with a squared-distance variant
behind a switch), k-nearest-neighbor (uniform weight on the k closest planar
projections), inverse-distance, and inverse-distance truncated to the K
closest points.  ``_window`` is the one definition of each kernel.  The
kinds that ``KERNELS`` marks ``indexed`` find their neighbors through a
``PlanarIndex`` at every cloud size; the others weigh the whole cloud.

Coefficients are estimated in batches.  A ``NeighbourTable`` runs one
neighbor query per knot average, and that query serves every entry of a
weight grid of one kind.  The table makes its rows once, a batch of at most
``TABLE_BUDGET`` candidates at a time, and estimates each of its specs on a
batch before it makes the next.  The kernels, the Tukey fences (quartiles
from one sort of the rows of each length), the sums and the clamp act on
all rows of a batch at once.  Each quotient's numerator ``z * w`` and
denominator ``w`` are summed by ``np.add.reduceat`` over one row in
ascending id order, so a coefficient depends neither on its batch nor on
the machine's BLAS.  ``pipeline.tune_parameters`` builds one table per mesh
and reads every entry of its grid with ``NeighbourTable.coefficients``;
``fit_surface`` is a table of one spec read the same way, and
``estimate_control_point`` a table of one centre.  An empty window is a
``ZeroWeightError`` naming its centre; ``coefficients`` adds its (i, j).

The estimate is a convex combination of the contributing heights, so it is
clamped onto their closed range; the clamp only removes floating-point spill.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .clouds import as_cloud, bbox_diagonal, bounding_box, check_integer
from .kdtree import PlanarIndex, query_point
from .splines import TensorSplineSpace, WqisaSurface, knot_average_grid

# default coincidence tolerance: this fraction of the bounding-box diagonal
COINCIDENCE_SCALE = 1e-12
# most candidates in one batch of NeighbourTable rows (an id and a squared
# distance, 16 bytes each), unless a single row holds more; a table makes
# each batch once and estimates every spec of its grid on it
TABLE_BUDGET = 1 << 20


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
    """Total weight vanished; the window is too narrow for the data.  *row*
    is the window centre, in a table's centre order, where it vanished."""

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


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
        if self.sigma is not None and not (self.sigma > 0 and 2.0 * self.sigma * self.sigma > 0):
            raise ValueError(f"sigma must be positive, with 2 * sigma**2 > 0; got {self.sigma!r}")
        for name in ("k", "truncation"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check_integer(name, getattr(self, name), 1))
        if self.coincidence_tol is not None and not self.coincidence_tol >= 0:
            raise ValueError(f"coincidence_tol must be nonnegative, got {self.coincidence_tol!r}")
        if not 0 <= self.fence < np.inf:
            raise ValueError(f"fence multiplier must be finite and nonnegative, got {self.fence!r}")

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


class Neighbours(NamedTuple):
    """Candidate points of consecutive window centres, one row per centre.

    Row ``r`` is ``ids[starts[r]:starts[r + 1]]``; ``d2`` holds each
    candidate's squared planar distance from the row's centre.
    """

    ids: np.ndarray
    d2: np.ndarray
    starts: np.ndarray


def _neighbours(cloud: np.ndarray, centres: np.ndarray, rows: list[np.ndarray]) -> Neighbours:
    sizes = [row.size for row in rows]
    starts = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum(sizes, out=starts[1:])
    ids = np.concatenate(rows)
    # the arithmetic of a full scan, so distances tie exactly as they do there
    du = cloud[ids, 0] - np.repeat(centres[:, 0], sizes)
    dv = cloud[ids, 1] - np.repeat(centres[:, 1], sizes)
    return Neighbours(ids, du**2 + dv**2, starts)


class NeighbourTable:
    """Every spec of a weight grid estimated at many window centres.

    One query per centre serves every spec of the grid's kind.  Under the
    (distance, id) order the k nearest points are a prefix of the K nearest,
    so knn and idw_truncated rows hold the ``K = min(largest size, n)``
    nearest; a closed ball holds every smaller ball about its centre, so
    indicator rows hold the ball of the largest radius; Gaussian and plain
    IDW rows hold every point.  ``_rows`` makes the rows once, in batches of
    at most ``TABLE_BUDGET`` candidates, and every spec still going is
    estimated on a batch before the next.  ``estimates`` maps each spec to
    its coefficients in centre order or to the ``ZeroWeightError`` of its
    first empty window; filter fallbacks warn while the table is built.
    An *index* over the cloud's planar points serves an indexed kind.
    """

    def __init__(self, cloud, centres, grid, index: PlanarIndex | None = None):
        self.cloud = as_cloud(cloud)
        self.centres = np.array(centres, dtype=float).reshape(-1, 2)
        if self.centres.size == 0:
            raise ValueError("a neighbour table needs at least one window centre, got none")
        if not np.isfinite(self.centres).all():
            raise ValueError("window centres must be finite")
        kinds = {spec.kind for spec in grid}
        if len(kinds) != 1:
            raise ValueError(f"a neighbour table serves one weight kind, got {sorted(kinds)}")
        self.kind = kinds.pop()
        self.reach = self._reach_for(grid)
        if KERNELS[self.kind].indexed:
            if index is None:
                index = PlanarIndex(self.cloud[:, :2])
            elif not np.array_equal(index.points, self.cloud[:, :2]):
                raise ValueError("the planar index was built over other points than the cloud's")
            self._index = index
        else:
            self._box = bounding_box(self.cloud)
        self.estimates: dict[WeightSpec, np.ndarray | ZeroWeightError] = {}
        going = {spec: np.empty(len(self.centres)) for spec in grid}
        for first, rows in self._rows():
            for spec, out in list(going.items()):
                try:
                    out[first : first + rows.starts.size - 1] = _estimates(self, first, rows, spec)
                except ZeroWeightError as exc:
                    self.estimates[spec] = exc.with_traceback(None)
                    del going[spec]
            if not going:
                break
        self.estimates.update(going)

    def coefficients(self, spec: WeightSpec, shape: tuple[int, int]) -> np.ndarray:
        """*spec*'s coefficients in a row-major grid of *shape*, or its ``ZeroWeightError``."""
        estimate = self.estimates.get(spec)
        if estimate is None:
            raise ValueError(f"the neighbour table was not built for {spec}")
        if isinstance(estimate, ZeroWeightError):
            i, j = divmod(estimate.row, shape[1])
            raise ZeroWeightError(f"coefficient (i={i}, j={j}): {estimate}")
        return estimate.reshape(shape)

    def _reach_for(self, grid) -> float | int | None:
        """How far one query must reach to serve every spec of *grid*."""
        if self.kind == "indicator":
            return max(spec.radius for spec in grid)
        if KERNELS[self.kind].indexed:
            return min(max(spec.parameter for spec in grid), self.cloud.shape[0])
        return None

    def _query(self, centre) -> np.ndarray:
        """The ids of one row: every point the grid can weigh about *centre*."""
        if self.kind == "indicator":
            return self._index.within_radius(centre, self.reach)
        if self.reach is not None:
            return self._index.knn(centre, self.reach)
        query_point(centre, self._box)  # as PlanarIndex checks its queries
        return np.arange(self.cloud.shape[0])

    def _rows(self) -> Iterator[tuple[int, Neighbours]]:
        """``(first row, rows)`` pairs that cover every centre in order; a
        batch closes before it would pass ``TABLE_BUDGET`` candidates, so
        only a single larger row makes a larger batch."""
        first, rows, total = 0, [], 0
        for r in range(len(self.centres)):
            row = self._query(self.centres[r])
            if rows and total + row.size > TABLE_BUDGET:
                yield first, _neighbours(self.cloud, self.centres[first:r], rows)
                first, rows, total = r, [], 0
            rows.append(row)
            total += row.size
        yield first, _neighbours(self.cloud, self.centres[first:], rows)


def _subset(keep: np.ndarray, starts: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The kept entries of each array, then the row starts that delimit them."""
    if keep.all():
        return (*arrays, starts)
    kept = np.flatnonzero(keep)
    return (*(a[kept] for a in arrays), np.searchsorted(kept, starts))


def _window(rows: Neighbours, spec: WeightSpec, cloud: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each row's points with positive weight, ascending id (a reproducible
    summation order), their weights, and the row starts: the one definition
    of every kernel."""
    ids, d2, starts = rows
    if spec.kind == "indicator":
        return _subset(d2 <= spec.radius * spec.radius, starts, ids, np.ones(ids.size))
    if spec.kind == "gaussian":
        exponent = d2 if spec.gaussian_squared else np.sqrt(d2)
        # a tiny sigma's quotient overflows to inf, and exp(-inf) is the 0 above ~745
        with np.errstate(over="ignore"):
            w = np.exp(-exponent / (2.0 * spec.sigma * spec.sigma))
        return _subset(w > 0.0, starts, ids, w)
    if spec.kind in ("knn", "idw_truncated"):
        # each row's first `size` in (distance, id) order, re-sorted by id
        count = starts.size - 1
        size = min(spec.parameter, cloud.shape[0])
        nearest = ids.reshape(count, -1)[:, :size]
        order = np.argsort(nearest, axis=1)
        ids = np.take_along_axis(nearest, order, axis=1).ravel()
        starts = np.arange(count + 1) * size
        if spec.kind == "knn":
            return ids, np.ones(ids.size), starts
        d2 = np.take_along_axis(d2.reshape(count, -1)[:, :size], order, axis=1).ravel()
    # the two inverse-distance kinds share the coincidence case split: a row
    # with coincident points gives them equal weight and the others none
    tol = _coincidence_tol(spec, cloud)
    coincident = d2 <= tol * tol
    if not coincident.any():
        return ids, 1.0 / np.sqrt(d2), starts
    row = np.repeat(np.arange(starts.size - 1), np.diff(starts))
    shared = np.bincount(row[coincident], minlength=starts.size - 1)[row]
    split = shared > 0
    w = np.empty(ids.size)
    w[split] = 1.0 / shared[split]
    w[~split] = 1.0 / np.sqrt(d2[~split])
    return _subset(coincident | ~split, starts, ids, w)


def _quantile(ordered: np.ndarray, q: float) -> np.ndarray:
    """The *q* quantile of each ascending row of finite range, as
    ``np.percentile`` interpolates it (type 7)."""
    index = (ordered.shape[1] - 1) * q
    a, b, t = ordered[:, int(index)], ordered[:, int(index) + 1], index - int(index)
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _tukey_fences(z: np.ndarray, starts: np.ndarray, fence: float) -> tuple[np.ndarray, np.ndarray]:
    """Which heights lie inside their row's Tukey fences (quartiles by linear
    interpolation of order statistics), and which rows' fences reject every
    height; those rows keep all of theirs."""
    sizes = np.diff(starts)
    keep = np.ones(z.size, dtype=bool)
    rejected = np.zeros(sizes.size, dtype=bool)
    # the rows of one length form a matrix whose quartiles come from one sort
    for size in np.unique(sizes[sizes > 1]):
        rows = np.flatnonzero(sizes == size)
        cols = starts[rows][:, None] + np.arange(size)
        heights = z[cols]
        ordered = np.sort(heights, axis=1)
        # a row whose range overflows straddles zero: its fences come from its
        # halved heights, doubled, so fence 0 still keeps [q1, q3]; a fence
        # that overflows lies beyond every height
        with np.errstate(over="ignore"):
            scale = np.where(np.isinf(ordered[:, -1] - ordered[:, 0]), 2.0, 1.0)
            q1, q3 = (_quantile(ordered / scale[:, None], q) for q in (0.25, 0.75))
            reach = fence * (q3 - q1)
            lo, hi = (q1 - reach) * scale, (q3 + reach) * scale
        inside = (heights >= lo[:, None]) & (heights <= hi[:, None])
        none = ~inside.any(axis=1)
        inside[none] = True
        rejected[rows[none]] = True
        keep[cols] = inside
    return keep, rejected


def _estimates(table: NeighbourTable, first: int, rows: Neighbours, spec: WeightSpec) -> np.ndarray:
    """Clamped weighted mean at each centre of *rows*, the batch of *table*
    that starts at centre *first*.

    Each quotient is ``add.reduceat(z * w) / add.reduceat(w)`` over one
    row in ascending id order, so it does not depend on how many rows share
    a batch.  The first row without positive weight raises, after the
    fallback warnings of the filter's rejected rows before it.
    """
    cloud = table.cloud
    if spec.kind == "knn" and spec.k > cloud.shape[0]:
        raise ZeroWeightError(f"k={spec.k} exceeds cloud size {cloud.shape[0]}")
    ids, w, starts = _window(rows, spec, cloud)
    z = cloud[ids, 2]
    rejected = np.zeros(starts.size - 1, dtype=bool)
    if spec.outlier_filter:
        keep, rejected = _tukey_fences(z, starts, spec.fence)
        z, w, starts = _subset(keep, starts, z, w)
    heads, full = starts[:-1], starts[:-1] < starts[1:]
    # an empty row has no sum; the full rows' heads delimit exactly them
    total = np.zeros(heads.size)
    total[full] = np.add.reduceat(w, heads[full])
    bad = np.flatnonzero(~(total > 0.0))
    stop = bad[0] if bad.size else heads.size
    for _ in range(np.count_nonzero(rejected[: stop + 1])):
        warnings.warn(
            "outlier filter rejected every contributing point; "
            "falling back to the unfiltered estimate",
            RuntimeWarning,
            stacklevel=3,
        )
    if bad.size:
        row = first + stop
        why = "total weight underflowed to zero" if full[stop] else "no point has positive weight"
        raise ZeroWeightError("{} at (u, v)=({}, {})".format(why, *table.centres[row]), row)
    lo, hi = np.minimum.reduceat(z, heads), np.maximum.reduceat(z, heads)
    quotient = np.add.reduceat(z * w, heads) / total
    return np.minimum(np.maximum(quotient, lo), hi)


def estimate_control_point(cloud, u: float, v: float, spec: WeightSpec) -> float:
    """Weighted mean of cloud heights with the window centered at ``(u, v)``.

    With ``spec.outlier_filter`` the positively weighted points are first
    screened through Tukey fences on their heights (quartiles by linear
    interpolation of order statistics); if the fences reject everything the
    unfiltered quotient is used and a ``RuntimeWarning`` flags the event.

    Raises ``ZeroWeightError`` when no point receives positive weight, so
    the caller can widen the window instead of silently producing zeros.
    """
    estimate = NeighbourTable(cloud, ((float(u), float(v)),), (spec,)).estimates[spec]
    if isinstance(estimate, ZeroWeightError):
        raise estimate
    return float(estimate[0])


def fit_surface(cloud, space: TensorSplineSpace, spec: WeightSpec) -> WqisaSurface:
    """Surface on *space* with a coefficient at every pair of knot averages: a
    table of one spec.  Zero-weight failures name the offending grid entry."""
    table = NeighbourTable(cloud, knot_average_grid(space), (spec,))
    return WqisaSurface(space, table.coefficients(spec, space.shape))
