"""Window kernels and the weighted control-point estimator.

Every coefficient of a fitted surface is the weighted mean of cloud heights,
with weights centered at a parametric location ``(u, v)``:

    estimate = sum(z * w(x, y, u, v)) / sum(w(x, y, u, v))

The window kinds are listed in ``KERNELS``: indicator (closed ball of radius
``r``), Gaussian (``exp(-d / (2 sigma^2))``, with a squared-distance variant
behind a switch), k-nearest-neighbor (uniform weight on the k closest planar
projections), inverse-distance, and inverse-distance truncated to the K
closest points.  ``_window`` is the one definition of each kernel.
``KERNELS`` also names the rows a kind's table holds about each centre: a
ball or the nearest points, found through a ``PlanarIndex`` at every cloud
size, or all of the cloud.

Coefficients are estimated in batches.  A ``NeighbourTable`` queries its knot
averages a block at a time, through one ``PlanarIndex`` call per block for
ball and nearest rows, and each centre's row serves every entry of a weight
grid of one kind.  The table takes the cloud's box once (its index's, or one
``bounding_box`` for all rows), checks it with ``check_planar_extent`` and
``check_planar_diagonal`` and each centre with ``query_point``, makes its
rows once with ``clouds.squared_distance``, and estimates each batch's specs
still going in passes, both in ``budget_runs``: a pass stacks the specs
whose windows fit ``TABLE_BUDGET`` together, so once a batch's rows are that
wide each spec gets its own pass, and the kernels, the Tukey fences
(quartiles from one sort of the rows of each length, a fence per row), the
sums and the clamp act on a pass's windows at once.  Each
quotient's numerator ``z * w`` and denominator ``w`` are summed by
``np.add.reduceat`` over one row in ascending id order, so a coefficient
depends neither on its batch, nor on the other specs, nor on the machine's
BLAS.  ``pipeline.tune_parameters`` builds one ``mesh_table`` per mesh, which
refuses a mesh too far from its cloud, and reads every entry of its grid
with ``NeighbourTable.coefficients``; ``fit_surface`` is a mesh table of one
spec read the same way, and ``estimate_control_point`` a table of one
centre.  An empty window is a ``ZeroWeightError`` naming its centre;
``coefficients`` adds its (i, j).

The estimate is a convex combination of the contributing heights, so it is
clamped onto their closed range; the clamp only removes floating-point spill.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .clouds import as_cloud, bounding_box, check_integer, check_planar_diagonal, check_planar_extent
from .clouds import diagonal_is_finite, squared_distance
from . import kdtree
from .kdtree import PlanarIndex, budget_runs, query_point
from .splines import TensorSplineSpace, WqisaSurface, knot_average_grid

# default coincidence tolerance: this fraction of the bounding-box diagonal
COINCIDENCE_SCALE = 1e-12


class Kernel(NamedTuple):
    """What a window kind needs from a :class:`WeightSpec`."""

    parameter: str | None  # the tunable field, None when the kind has none
    optional: tuple[str, ...]  # further fields the kind accepts
    rows: str  # "ball", "nearest" or "all": what a NeighbourTable row holds


KERNELS = {
    "indicator": Kernel("radius", (), "ball"),
    "gaussian": Kernel("sigma", ("gaussian_squared",), "all"),
    "knn": Kernel("k", (), "nearest"),
    "idw": Kernel(None, ("coincidence_tol",), "all"),
    "idw_truncated": Kernel("truncation", ("coincidence_tol",), "nearest"),
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


def _coincidence_tol(spec: WeightSpec, box: tuple[float, float, float, float]) -> float:
    if spec.coincidence_tol is not None:
        return spec.coincidence_tol
    xmin, xmax, ymin, ymax = box
    return COINCIDENCE_SCALE * float(np.hypot(xmax - xmin, ymax - ymin))


class Neighbours(NamedTuple):
    """Candidate points of consecutive window centres, one row per centre.

    Row ``r`` is ``ids[starts[r]:starts[r + 1]]``; ``d2`` holds each
    candidate's squared planar distance from the row's centre.
    """

    ids: np.ndarray
    d2: np.ndarray
    starts: np.ndarray


class NeighbourTable:
    """Every spec of a weight grid estimated at many window centres.

    One row per centre serves every spec of the grid's kind, and ``kernel``,
    the kind's ``KERNELS`` entry, names its ``rows``.  Under the (distance,
    id) order the k nearest points are a prefix of the K nearest, so a
    ``"nearest"`` row holds the ``K = min(largest size, n)`` nearest; a
    closed ball holds every smaller ball about its centre, so a ``"ball"``
    row holds the ball of the largest radius; an ``"all"`` row holds every
    point.  ``reach`` is that radius or count, n for ``"all"``.  ``_rows``
    makes the rows once, and each batch's specs still going are estimated
    in passes whose stacked windows fit ``TABLE_BUDGET``, both in
    ``budget_runs``.  ``estimates`` maps each spec to its coefficients in
    centre order or to the ``ZeroWeightError`` of its first empty window;
    filter fallbacks warn while the table is built, spec by spec in grid
    order.  An *index* over the cloud's planar points serves the ball and
    nearest rows.
    """

    def __init__(self, cloud, centres, grid, index: PlanarIndex | None = None):
        self.cloud = as_cloud(cloud)
        centres = np.array(centres, dtype=float)  # a private copy
        if centres.size == 0:
            raise ValueError("a neighbour table needs at least one window centre, got none")
        kinds = {spec.kind for spec in grid}
        if len(kinds) != 1:
            raise ValueError(f"a neighbour table serves one weight kind, got {sorted(kinds)}")
        self.kernel = KERNELS[kinds.pop()]
        n = self.cloud.shape[0]
        largest = n if self.kernel.rows == "all" else max(spec.parameter for spec in grid)
        self.reach = largest if self.kernel.rows == "ball" else min(largest, n)
        if self.kernel.rows != "all":
            if index is None:
                index = PlanarIndex(self.cloud[:, :2])
            elif not np.array_equal(index.points, self.cloud[:, :2]):
                raise ValueError("the planar index was built over other points than the cloud's")
            self._index = index
            self._box = index.box
        else:
            self._box = bounding_box(self.cloud)
        check_planar_extent(self._box, flat_ok=True)
        check_planar_diagonal(self._box)
        self.centres = query_point(centres, self._box).reshape(-1, 2)
        self.estimates: dict[WeightSpec, np.ndarray | ZeroWeightError] = {}
        going: dict[WeightSpec, np.ndarray] = {}
        for spec in grid:
            if spec.kind == "knn" and spec.k > n:
                self.estimates[spec] = ZeroWeightError(f"k={spec.k} exceeds cloud size {n}")
            else:
                going[spec] = np.empty(len(self.centres))
        for first, rows in self._rows() if going else ():
            # a spec's window holds at most the batch's candidates, so a
            # stack of windows keeps to the budget as a run of specs that size
            specs = tuple(going)
            for run in budget_runs(np.full(len(specs), rows.ids.size)):
                stack = specs[run]
                for spec, estimate in zip(stack, _estimates(self, first, rows, stack)):
                    if isinstance(estimate, ZeroWeightError):
                        self.estimates[spec] = estimate
                        del going[spec]
                    else:
                        going[spec][first : first + estimate.size] = estimate
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

    def _query(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ids of the rows about a *block* of centres, concatenated, and
        each row's size: every point the grid can weigh about its centre."""
        if self.kernel.rows == "ball":
            return self._index._radius_rows(block, self.reach)
        sizes = np.full(len(block), self.reach)
        if self.kernel.rows == "nearest":
            return self._index.knn(block, self.reach).ravel(), sizes
        return np.tile(np.arange(self.reach), len(block)), sizes

    def _rows(self) -> Iterator[tuple[int, Neighbours]]:
        """``(first row, rows)`` batches that cover every centre in order.

        The centres are queried in blocks of ``TABLE_BUDGET`` over the
        widest row: the reach of nearest or all rows, and for a ball the
        widest seen so far (every point before the first).  A ball's width
        is known only once it is queried, so a block at most doubles the one
        before it: a run of narrow balls cannot open a block of the whole
        mesh.
        """
        count = len(self.centres)
        widest = self.cloud.shape[0] if self.kernel.rows == "ball" else self.reach
        first, size, seen = 0, count, 1
        while first < count:
            size = min(2 * size, max(1, kdtree.TABLE_BUDGET // widest))
            block = self.centres[first : first + size]
            ids, sizes = self._query(block)
            seen = widest = max(seen, int(sizes.max()))
            starts = np.concatenate(([0], np.cumsum(sizes)))
            for run in budget_runs(sizes):
                lo, hi = starts[run.start], starts[run.stop]
                # the centres repeated per candidate live only through the call
                centres = (np.repeat(block[run, axis], sizes[run]) for axis in (0, 1))
                d2 = squared_distance((self.cloud[:, 0], self.cloud[:, 1]), ids[lo:hi], centres)
                yield first + run.start, Neighbours(ids[lo:hi], d2, starts[run.start : run.stop + 1] - lo)
            first += len(block)


def _subset(keep: np.ndarray, starts: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The kept entries of each array, then the row starts that delimit them."""
    if keep.all():
        return (*arrays, starts)
    kept = np.flatnonzero(keep)
    return (*(a[kept] for a in arrays), np.searchsorted(kept, starts))


def _window(rows: Neighbours, spec: WeightSpec, table: NeighbourTable) -> tuple[np.ndarray, ...]:
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
    if table.kernel.rows == "nearest":
        # each row's first `size` in (distance, id) order, re-sorted by id
        count = starts.size - 1
        size = min(spec.parameter, table.cloud.shape[0])
        nearest = ids.reshape(count, -1)[:, :size]
        order = np.argsort(nearest, axis=1)
        ids = np.take_along_axis(nearest, order, axis=1).ravel()
        starts = np.arange(count + 1) * size
        if spec.kind == "knn":
            return ids, np.ones(ids.size), starts
        d2 = np.take_along_axis(d2.reshape(count, -1)[:, :size], order, axis=1).ravel()
    # the two inverse-distance kinds share the coincidence case split: a row
    # with coincident points gives them equal weight and the others none
    tol = _coincidence_tol(spec, table._box)
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


def _tukey_fences(z: np.ndarray, starts: np.ndarray, fence) -> tuple[np.ndarray, np.ndarray]:
    """Which heights lie inside their row's Tukey fences (quartiles by linear
    interpolation of order statistics), and which rows' fences reject every
    height; those rows keep all of theirs.  *fence* is the multiplier of
    every row or one per row, NaN for a row that is not filtered."""
    sizes = np.diff(starts)
    fence = np.broadcast_to(np.asarray(fence, dtype=float), sizes.shape)
    filtered = ~np.isnan(fence)
    keep = np.ones(z.size, dtype=bool)
    rejected = np.zeros(sizes.size, dtype=bool)
    # the rows of one length form a matrix whose quartiles come from one sort
    for size in np.unique(sizes[filtered & (sizes > 1)]):
        rows = np.flatnonzero(filtered & (sizes == size))
        cols = starts[rows][:, None] + np.arange(size)
        heights = z[cols]
        ordered = np.sort(heights, axis=1)
        # a row whose range overflows straddles zero: its fences come from its
        # halved heights, doubled, so fence 0 still keeps [q1, q3]; a fence
        # that overflows lies beyond every height
        with np.errstate(over="ignore"):
            scale = np.where(np.isinf(ordered[:, -1] - ordered[:, 0]), 2.0, 1.0)
            q1, q3 = (_quantile(ordered / scale[:, None], q) for q in (0.25, 0.75))
            reach = fence[rows] * (q3 - q1)
            lo, hi = (q1 - reach) * scale, (q3 + reach) * scale
        inside = (heights >= lo[:, None]) & (heights <= hi[:, None])
        none = ~inside.any(axis=1)
        inside[none] = True
        rejected[rows[none]] = True
        keep[cols] = inside
    return keep, rejected


def _estimates(
    table: NeighbourTable, first: int, rows: Neighbours, specs: tuple[WeightSpec, ...]
) -> list[np.ndarray | ZeroWeightError]:
    """Each spec's clamped weighted mean at every centre of *rows*, the batch
    of *table* that starts at centre *first*, or the ``ZeroWeightError`` of
    its first row without positive weight.

    The specs' windows are stacked and pass through one gather of heights,
    one Tukey filter and one set of sums.  Each quotient is
    ``add.reduceat(z * w) / add.reduceat(w)`` over one row in ascending id
    order, so it depends neither on the batch nor on the other specs.  In
    spec order, each spec then warns for its filter's rejected rows up to
    its first bad row.
    """
    cloud, count = table.cloud, rows.starts.size - 1
    windows = [_window(rows, spec, table) for spec in specs]
    ids, w = (np.concatenate([window[part] for window in windows]) for part in (0, 1))
    offsets = np.cumsum([0] + [window[0].size for window in windows])
    starts = np.concatenate([window[2][:-1] + at for window, at in zip(windows, offsets)] + [[ids.size]])
    z = cloud[ids, 2]
    rejected = np.zeros(starts.size - 1, dtype=bool)
    fences = np.repeat([spec.fence if spec.outlier_filter else np.nan for spec in specs], count)
    if not np.isnan(fences).all():
        keep, rejected = _tukey_fences(z, starts, fences)
        z, w, starts = _subset(keep, starts, z, w)
    heads, full = starts[:-1], starts[:-1] < starts[1:]
    # an empty row has no sum; the full rows' heads delimit exactly them
    total, numerator, lo, hi = np.zeros((4, heads.size))
    if full.any():
        total[full] = np.add.reduceat(w, heads[full])
        numerator[full] = np.add.reduceat(z * w, heads[full])
        lo[full], hi[full] = np.minimum.reduceat(z, heads[full]), np.maximum.reduceat(z, heads[full])
    out: list[np.ndarray | ZeroWeightError] = []
    for at in range(0, len(specs) * count, count):
        mine = slice(at, at + count)
        bad = np.flatnonzero(~(total[mine] > 0.0))
        stop = bad[0] if bad.size else count
        for _ in range(np.count_nonzero(rejected[mine][: stop + 1])):
            warnings.warn(
                "outlier filter rejected every contributing point; "
                "falling back to the unfiltered estimate",
                RuntimeWarning,
                stacklevel=3,
            )
        if bad.size:
            row = first + stop
            why = "total weight underflowed to zero" if full[mine][stop] else "no point has positive weight"
            out.append(ZeroWeightError("{} at (u, v)=({}, {})".format(why, *table.centres[row]), row))
        else:
            out.append(np.minimum(np.maximum(numerator[mine] / total[mine], lo[mine]), hi[mine]))
    return out


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


def mesh_table(cloud, space: TensorSplineSpace, grid, index: PlanarIndex | None = None) -> NeighbourTable:
    """The ``NeighbourTable`` of *grid* centred at every pair of *space*'s knot
    averages.  Before any centre is queried, a mesh far wider than the cloud
    is refused, naming both boxes: the box joining the mesh's domain and the
    cloud's planar box (its *index*'s, if given) has a squared diagonal that
    is not finite.  A cloud whose own box fails is left to the table."""
    box = bounding_box(cloud) if index is None else index.box
    if diagonal_is_finite(box) and not diagonal_is_finite(space.domain, box):
        raise ValueError(
            f"the mesh domain (xmin, xmax, ymin, ymax) = {space.domain} is too far from the cloud's "
            f"planar bounding box {box}: the square of the diagonal of the box joining them is not finite"
        )
    return NeighbourTable(cloud, knot_average_grid(space), grid, index)


def fit_surface(cloud, space: TensorSplineSpace, spec: WeightSpec) -> WqisaSurface:
    """Surface on *space* with a coefficient at every pair of knot averages: a
    ``mesh_table`` of one spec.  Zero-weight failures name the offending grid entry."""
    table = mesh_table(cloud, space, (spec,))
    return WqisaSurface(space, table.coefficients(spec, space.shape))
