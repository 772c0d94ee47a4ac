"""Metamorphic tests: a fit must transform with its cloud.

Rescaling or shifting the heights, or the plane, maps one valid input onto
another whose fit is known from the first: the same refinement path, the
same tuned parameter and the same stop reason, with the test MSE scaled by
the square of the height factor.  Each relation is checked on the noisy
hemisphere with outliers, on Franke's function, on a straight step, on
Franke's function over a plane with a hole and over a plane of graded
density, and on a multi-octave terrain; on all but the hemisphere every
kind's fit must also stay inside the training heights and give the same
bytes when run again.
"""

import numpy as np
import pytest

from wqisa.metrics import surface_sample_points
from wqisa.pipeline import FitConfig, fit, knn_parameter_grid, split
from wqisa.synthetic import hemisphere_cloud, perturb
from wqisa.weights import WeightSpec, ZeroWeightError

from oracles import franke_height, graded_plane, holed_plane, noisy_cloud, octave_height, step_height

SURFACES = {
    "hemisphere": lambda: perturb(
        hemisphere_cloud(3000, seed=41), noise_std=0.05, outlier_fraction=0.02, seed=42
    ),
    "franke": lambda: noisy_cloud(franke_height, 3000, seed=41),
    "step": lambda: noisy_cloud(step_height, 3000, seed=41),
    "hole": lambda: noisy_cloud(franke_height, 3000, seed=41, plane=holed_plane),
    "graded": lambda: noisy_cloud(franke_height, 3000, seed=41, plane=graded_plane),
    "terrain": lambda: noisy_cloud(octave_height, 3000, seed=41),
}


@pytest.fixture(scope="module", params=list(SURFACES))
def cloud(request):
    return SURFACES[request.param]()


def config(kind: str, scale: float = 1.0) -> FitConfig:
    """knn and idw_truncated are free of the plane's scale; indicator radii scale with it."""
    if kind == "knn":
        grid = knn_parameter_grid(10)
    elif kind == "indicator":
        grid = tuple(WeightSpec.indicator(scale * r) for r in (0.03, 0.06, 0.12))
    else:
        grid = tuple(WeightSpec.truncated_idw(t) for t in (4, 16, 64))
    return FitConfig(weight_grid=grid, max_iterations=6, seed=43)


def path(report):
    return [(rec.mesh_elements, rec.parameter) for rec in report.iterations]


@pytest.fixture(scope="module")
def base_reports(cloud):
    return {kind: fit(cloud, config(kind))[1] for kind in ("knn", "indicator")}


@pytest.mark.parametrize("a, b", [(3.0, 7.0), (-2.5, 1.0), (1e-6, 0.0), (1e4, -3.0)])
def test_affine_heights_keep_the_path_and_scale_the_mse(cloud, base_reports, a, b):
    base = base_reports["knn"]
    _, report = fit(cloud * [1.0, 1.0, a] + [0.0, 0.0, b], config("knn"))
    assert path(report) == path(base)
    assert report.stop_reason == base.stop_reason
    assert report.test_mse == pytest.approx(a * a * base.test_mse, rel=1e-9)


@pytest.mark.parametrize("kind", ["knn", "indicator"])
@pytest.mark.parametrize("s, t", [(1e-3, 0.0), (1e3, 5.0), (0.5, 0.25)])
def test_similar_plane_keeps_the_path_and_the_mse(cloud, base_reports, kind, s, t):
    base = base_reports[kind]
    _, report = fit(cloud * [s, s, 1.0] + [t, t, 0.0], config(kind, s))
    # the grid's radii are s * r, so the tuned one must be s times the base's
    assert path(report) == [(mesh, s * r if kind == "indicator" else r) for mesh, r in path(base)]
    assert report.stop_reason == base.stop_reason
    assert report.test_mse == pytest.approx(base.test_mse, rel=1e-9)


@pytest.mark.parametrize("kind", ["knn", "indicator", "idw_truncated"])
@pytest.mark.parametrize("name", [name for name in SURFACES if name != "hemisphere"])
def test_fit_stays_inside_the_training_heights_and_repeats(name, kind):
    cloud = SURFACES[name]()
    surface, _ = fit(cloud, config(kind))
    training = split(cloud, config(kind).fractions, config(kind).seed).training
    lo, hi = training[:, 2].min(), training[:, 2].max()
    for z in (surface.coefficients, surface_sample_points(surface)[:, 2]):
        assert lo <= z.min() and z.max() <= hi
    assert fit(cloud, config(kind))[0].coefficients.tobytes() == surface.coefficients.tobytes()


def test_windows_inside_the_hole_fail_naming_the_coefficient():
    # the first mesh's middle knot average lies in the hole, which no radius
    # below the hole's own reaches across
    grid = tuple(WeightSpec.indicator(r) for r in (0.03, 0.06, 0.09))
    with pytest.raises(ZeroWeightError) as failure:
        fit(SURFACES["hole"](), FitConfig(weight_grid=grid, max_iterations=6, seed=43))
    assert str(failure.value).startswith(
        "iteration 1: every grid entry failed; last error: "
        "coefficient (i=1, j=1): no point has positive weight at (u, v)="
    )
