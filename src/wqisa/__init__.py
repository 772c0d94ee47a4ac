"""Weighted quasi-interpolant spline approximation of noisy 2.5D point clouds.

The surface is a tensor-product B-spline whose coefficients are weighted
averages of cloud heights around each knot average; no linear system is
solved.  The package bundles the spline core, the weight functions and
estimator, an exact planar k-d tree, a multilevel B-spline baseline,
evaluation metrics, the data-driven fitting pipeline, synthetic data
generators, and file formats plus a CLI.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .clouds import as_cloud, bounding_box
from .splines import (
    KnotVector,
    OutOfDomainError,
    TensorSplineSpace,
    WqisaSurface,
    insert_knot,
    knot_average_grid,
    knot_averages,
)
from .weights import (
    NeighbourTable,
    WeightSpec,
    ZeroWeightError,
    estimate_control_point,
    fit_surface,
)
from .kdtree import PlanarIndex
from .mba import MbaSurface, fit_mba, mba_level_coefficients
from .metrics import (
    ElementErrorMap,
    ErrorStats,
    gmse,
    hausdorff,
    lmse,
    punctual_errors,
    surface_sample_points,
)
from .pipeline import (
    DataSplit,
    FitConfig,
    FitReport,
    cross_validate,
    fit,
    fit_split,
    kfold_splits,
    knn_parameter_grid,
    refine_mesh,
    split,
    tune_parameters,
)
from .synthetic import hemisphere_cloud, hemisphere_height, perturb
from .io import (
    CloudParseError,
    ConfigError,
    RunConfig,
    format_config,
    load_surface,
    parse_config,
    read_cloud,
    read_config,
    save_surface,
    write_cloud,
    write_config,
    write_surface_grid,
)

# every name imported above is public, and nothing else: one list, not two
__all__ = ["__version__"] + [
    name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _ModuleType))
]
