"""Data-driven fitting: splitting, tuning, refinement loop, assessment.

The fit starts from a one-element mesh over the data bounding box, then
alternates two moves until validation error stops improving: pick the weight
parameter minimizing the global mean squared error (GMSE) on the validation
set, and split every mesh element whose local error exceeds a threshold by
inserting its midpoints into both knot vectors.  The surface returned is the
iterate fitted just before the error rose.  Everything is deterministic
given the seed.

On each mesh the grid entries share the work that does not depend on the
weight parameter: one neighbour query per knot average, in one planar index
that serves every mesh of the fit, and the validation points' basis rows,
against which each entry's coefficients, read from the mesh's table, are scored.
Only the winner becomes a surface, and its scored residuals map the LMSE.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import reduce
from math import inf
from numbers import Real
from typing import NamedTuple, Sequence

import numpy as np

from .clouds import as_cloud, bounding_box, check_integer, check_planar_diagonal, check_planar_extent
from .clouds import joint_bounding_box
from .metrics import mean_square, residuals
# the fit calls neither `lmse` nor `fit_surface`; perfbench's tracer wraps both at these names
from .metrics import ElementErrorMap, ErrorStats, _error_map, gmse as surface_gmse, lmse  # noqa: F401
from .splines import TensorSplineSpace, WqisaSurface, insert_knot, tensor_rows
from . import weights
from .weights import KERNELS, WeightSpec, ZeroWeightError, fit_surface  # noqa: F401

DEFAULT_FRACTIONS = (0.5, 0.25, 0.25)

# relative GMSE improvement below which the loop is considered stalled
STAGNATION_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DataSplit:
    """Disjoint training / validation / test subsets of one cloud."""

    training: np.ndarray
    validation: np.ndarray
    test: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        for name in ("training", "validation", "test"):
            object.__setattr__(self, name, as_cloud(getattr(self, name)))


def split(cloud, fractions: tuple[float, float, float] = DEFAULT_FRACTIONS, seed: int = 0) -> DataSplit:
    """Random disjoint split by uniform down-sampling at the given fractions.

    The training rows are drawn first; the complement is divided between
    validation and test in proportion to their fractions.  Deterministic
    for a fixed seed.
    """
    cloud = as_cloud(cloud)
    seed = check_integer("seed", seed, 0)
    n = cloud.shape[0]
    if n < 4:
        raise ValueError(f"need at least 4 points to split, got {n}")
    ft, fv, fu = _check_fractions(fractions)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = int(round(n * ft))
    n_val = int(round(n * fv))
    n_test = int(round(n * fu))
    n_train = max(1, min(n_train, n - 2))
    if n_train + n_val + n_test > n:
        n_val = (n - n_train) // 2
        n_test = n - n_train - n_val
    if n_val < 1 or n_test < 1:
        raise ValueError(f"fractions {fractions} leave an empty subset for {n} points")
    train_ids = np.sort(perm[:n_train])
    val_ids = np.sort(perm[n_train : n_train + n_val])
    test_ids = np.sort(perm[n_train + n_val : n_train + n_val + n_test])
    return DataSplit(
        training=cloud[train_ids],
        validation=cloud[val_ids],
        test=cloud[test_ids],
        seed=seed,
    )


def kfold_splits(cloud, k: int, seed: int = 0) -> list[DataSplit]:
    """K rotating (train, holdout) splits; the holdout doubles as test set.

    ``k == len(cloud)`` is leave-one-out.
    """
    cloud = as_cloud(cloud)
    k, seed = check_integer("k", k, 2), check_integer("seed", seed, 0)
    n = cloud.shape[0]
    if k > n:
        raise ValueError(f"k must be in [2, {n}], got {k}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    folds = np.array_split(perm, k)
    out = []
    for i, holdout in enumerate(folds):
        train_ids = np.sort(np.concatenate([f for j, f in enumerate(folds) if j != i]))
        holdout_ids = np.sort(holdout)
        out.append(
            DataSplit(
                training=cloud[train_ids],
                validation=cloud[holdout_ids],
                test=cloud[holdout_ids],
                seed=seed,
            )
        )
    return out


def knn_parameter_grid(max_k: int = 10, **common) -> tuple[WeightSpec, ...]:
    """k-nearest-neighbor specs for ``k = 1..max_k`` (ascending)."""
    max_k = check_integer("max_k", max_k, 1)
    return tuple(WeightSpec.knn(k, **common) for k in range(1, max_k + 1))


@dataclass(frozen=True)
class FitConfig:
    """Everything a fit needs besides the cloud itself, checked once, here.

    ``epsilon=None`` resolves to ``0.01 * var(training z)`` at fit time, a
    scale-aware refinement threshold.  Construction refuses, with a
    ``ValueError`` whose message begins with the field's name:

    - a ``weight_grid`` that is not a nonempty tuple (or list) of
      ``WeightSpec`` entries of one kind;
    - ``degrees`` other than two integers >= 0;
    - an ``epsilon`` that is neither ``None`` nor finite and >= 0;
    - a ``max_iterations`` that is not an integer >= 1;
    - ``fractions`` other than three finite positive values that sum to at
      most 1;
    - a ``seed`` that is not an integer >= 0.

    A bool is no integer here, and no real value either.
    """

    weight_grid: tuple[WeightSpec, ...] = field(default_factory=knn_parameter_grid)
    degrees: tuple[int, int] = (2, 2)
    epsilon: float | None = None
    max_iterations: int = 15
    fractions: tuple[float, float, float] = DEFAULT_FRACTIONS
    seed: int = 0

    def __post_init__(self) -> None:
        grid = self.weight_grid
        if not (isinstance(grid, (tuple, list)) and grid and all(isinstance(s, WeightSpec) for s in grid)):
            raise ValueError(f"weight_grid must be a nonempty tuple of WeightSpec entries, got {grid!r}")
        kinds = sorted({spec.kind for spec in grid})
        if len(kinds) != 1:
            raise ValueError(f"weight_grid mixes kinds: {kinds}")
        object.__setattr__(self, "weight_grid", tuple(grid))
        if not (isinstance(self.degrees, (tuple, list)) and len(self.degrees) == 2):
            raise ValueError(f"degrees must be two integers >= 0, got {self.degrees!r}")
        degrees = tuple(check_integer(f"degrees[{i}]", d, 0) for i, d in enumerate(self.degrees))
        object.__setattr__(self, "degrees", degrees)
        if not (self.epsilon is None or _real(self.epsilon) and 0 <= self.epsilon < inf):
            raise ValueError(f"epsilon must be None, or finite and >= 0, got {self.epsilon!r}")
        _check_fractions(self.fractions)
        for name, minimum in (("max_iterations", 1), ("seed", 0)):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), minimum))

    @property
    def weight_kind(self) -> str:
        return self.weight_grid[0].kind


def _real(value) -> bool:
    """Whether *value* is a real number and not a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _check_fractions(fractions) -> tuple[float, float, float]:
    """*fractions*, the shares of a split, as ``FitConfig`` and ``split`` take
    them; ``ValueError`` unless three finite positive reals sum to at most 1."""
    if not (
        isinstance(fractions, (tuple, list)) and len(fractions) == 3
        and all(_real(f) and 0 < f < inf for f in fractions) and sum(fractions) <= 1 + 1e-9
    ):
        raise ValueError(
            f"fractions must be three finite positive values that sum to at most 1, got {fractions!r}"
        )
    return tuple(fractions)


class TuneResult(NamedTuple):
    spec: WeightSpec
    gmse: float
    surface: WqisaSurface
    residuals: np.ndarray  # signed, at each validation point


def tune_parameters(
    training,
    validation,
    space: TensorSplineSpace,
    grid: Sequence[WeightSpec],
    index: weights.PlanarIndex | None = None,
) -> TuneResult:
    """Exhaustive search of *grid*: fit on training, score GMSE on validation.

    One ``weights.mesh_table``, which refuses a mesh far wider than the
    training cloud, and one set of validation basis rows serve every
    entry of the grid on this mesh, so the grid holds one weight kind, as
    ``FitConfig`` requires; *index*, a ``PlanarIndex`` over the training
    points, spares a table of ball or nearest rows its own.  Each entry is
    scored as ``fit_surface`` and ``metrics.gmse`` would score it; the
    winner comes with its validation residuals.

    Ties keep the earliest grid entry, so an ascending grid prefers the
    smallest parameter.  Grid entries that cannot be fitted (zero-weight
    windows, k beyond the training size) are skipped; if every entry fails
    the last failure is re-raised.
    """
    if len(grid) == 0:
        raise ValueError("parameter grid must be nonempty")
    validation = as_cloud(validation)
    rows = tensor_rows(space, validation[:, 0], validation[:, 1])
    table = weights.mesh_table(training, space, grid, index)
    best: tuple[float, WeightSpec, np.ndarray, np.ndarray] | None = None
    failure: ZeroWeightError | None = None
    for spec in grid:
        try:
            coefficients = table.coefficients(spec, space.shape)
        except ZeroWeightError as exc:
            failure = exc
            continue
        res = validation[:, 2] - rows.values(coefficients)
        score = mean_square(res)
        if best is None or score < best[0]:
            best = (score, spec, coefficients, res)
    if best is None:
        raise ZeroWeightError(f"every grid entry failed; last error: {failure}")
    score, spec, coefficients, res = best
    return TuneResult(spec, score, WqisaSurface(space, coefficients), res)


def refine_mesh(
    space: TensorSplineSpace, error_map: ElementErrorMap, epsilon: float
) -> TensorSplineSpace:
    """Split every element with LMSE above *epsilon* at its midpoints.

    Midpoints are inserted into both knot vectors (deduplicated); the tensor
    structure propagates each cut along the full row and column.  An
    element too narrow for a float strictly between its edges is not split
    along that axis.  Returns the input space unchanged when nothing
    exceeds the threshold or nothing flagged can be split.
    """
    x_edges = space.knots_x.breakpoints
    y_edges = space.knots_y.breakpoints
    if error_map.values.shape != (x_edges.size - 1, y_edges.size - 1):
        raise ValueError("error map is not aligned with the space")
    flagged = error_map.values > epsilon
    cuts = []
    for edges, rows in ((x_edges, flagged.any(axis=1)), (y_edges, flagged.any(axis=0))):
        mid = (edges[:-1] + edges[1:]) / 2.0
        cuts.append(mid[rows & (edges[:-1] < mid) & (mid < edges[1:])])
    new_x, new_y = cuts
    if new_x.size == 0 and new_y.size == 0:
        return space
    kx = reduce(insert_knot, new_x, space.knots_x)
    return TensorSplineSpace(kx, reduce(insert_knot, new_y, space.knots_y))


@dataclass(frozen=True)
class IterationRecord:
    mesh_elements: tuple[int, int]
    parameter: float | int | None
    gmse: float


@dataclass(frozen=True)
class FitReport:
    """Per-iteration history plus the final assessment of one fit."""

    iterations: tuple[IterationRecord, ...]
    stop_reason: str
    best_iteration: int  # 1-based index into `iterations`
    weight_kind: str
    test_mse: float
    seed: int
    wall_time_s: float

    def to_json_dict(self) -> dict:
        """JSON-ready view.  Wall time is omitted: reports with the same
        seed must be byte-identical, and timing is the one field that is
        not a function of the inputs."""
        payload = asdict(self)
        del payload["wall_time_s"]
        return payload


def fit_split(
    data: DataSplit,
    config: FitConfig,
    domain: tuple[float, float, float, float] | None = None,
) -> tuple[WqisaSurface, FitReport]:
    """Run the tuning/refinement loop on an existing split.

    The spline domain defaults to the joint bounding box of all three
    subsets so that validation and test projections stay evaluable.
    """
    started = time.perf_counter()
    if domain is None:
        domain = joint_bounding_box(data.training, data.validation, data.test)
    check_planar_extent(domain)
    check_planar_diagonal(domain)
    epsilon = config.epsilon
    if epsilon is None:
        z = data.training[:, 2]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is mean_square's refusal
            centred = z - np.mean(z)
        epsilon = 0.01 * mean_square(centred)
    space = TensorSplineSpace.uniform(config.degrees, domain, 1)
    # the training cloud never changes, so one index serves every mesh
    index = weights.PlanarIndex(data.training) if KERNELS[config.weight_kind].rows != "all" else None
    records: list[IterationRecord] = []
    best: TuneResult | None = None
    best_iteration = 0
    stop_reason = "max_iterations"
    for iteration in range(1, config.max_iterations + 1):
        try:
            tuned = tune_parameters(data.training, data.validation, space, config.weight_grid, index)
        except ZeroWeightError as exc:
            raise ZeroWeightError(f"iteration {iteration}: {exc}") from None
        records.append(
            IterationRecord(
                mesh_elements=space.element_counts,
                parameter=tuned.spec.parameter,
                gmse=tuned.gmse,
            )
        )
        if best is not None and tuned.gmse > best.gmse:
            stop_reason = "gmse_increased"
            break
        previous = best.gmse if best is not None else None
        best = tuned
        best_iteration = iteration
        if previous is not None and previous - tuned.gmse <= STAGNATION_TOL * previous:
            stop_reason = "stagnated"
            break
        if iteration == config.max_iterations:
            stop_reason = "max_iterations"
            break
        error_map = _error_map(data.validation, tuned.residuals, space)
        refined = refine_mesh(space, error_map, epsilon)
        if refined is space:
            stop_reason = "unsplittable" if (error_map.values > epsilon).any() else "threshold_met"
            break
        # MBA's budget: no mesh with more coefficients than training points
        if refined.shape[0] * refined.shape[1] > data.training.shape[0]:
            stop_reason = "budget"
            break
        space = refined
    assert best is not None
    test_mse = surface_gmse(best.surface, data.test)
    report = FitReport(
        iterations=tuple(records),
        stop_reason=stop_reason,
        best_iteration=best_iteration,
        weight_kind=config.weight_kind,
        test_mse=test_mse,
        seed=data.seed,
        wall_time_s=time.perf_counter() - started,
    )
    return best.surface, report


def fit(cloud, config: FitConfig) -> tuple[WqisaSurface, FitReport]:
    """Split the cloud per the config, then run the full fitting loop."""
    cloud = as_cloud(cloud)
    data = split(cloud, config.fractions, config.seed)
    return fit_split(data, config, domain=bounding_box(cloud))


def cross_validate(cloud, config: FitConfig, k: int) -> ErrorStats:
    """K-fold (or leave-one-out, ``k == len(cloud)``) assessment.

    One fit per fold; holdout residuals are pooled across folds and
    summarized together.
    """
    cloud = as_cloud(cloud)
    domain = bounding_box(cloud)
    folds = kfold_splits(cloud, k, config.seed)
    pooled = [residuals(fit_split(fold, config, domain=domain)[0], fold.test) for fold in folds]
    return ErrorStats.from_residuals(np.concatenate(pooled))
