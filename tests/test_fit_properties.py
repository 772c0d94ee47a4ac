"""Fit-level properties on tiny, duplicate-heavy and collinear clouds.

On any such cloud a wQISA fit either returns coefficients inside the cloud's
height range, each being a weighted mean of training heights, or fails with
a ``ValueError`` (``ZeroWeightError`` is one) that carries a message; the CLI
turns the same failure into exit status 2.  No other exception and no
numeric warning may escape.  The multilevel baseline fits residuals with
minimum-norm coefficients, which can exceed the heights they reproduce, so
its level-0 grid is held to the bound that formula gives instead.
"""

import tempfile
import warnings
from contextlib import contextmanager, redirect_stderr
from io import StringIO
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wqisa.cli import cli_main
from wqisa.io import RunConfig, load_surface, write_cloud, write_config
from wqisa.mba import fit_mba
from wqisa.pipeline import FitConfig, fit
from wqisa.weights import WeightSpec

COORD = st.floats(-10.0, 10.0, allow_nan=False)
HEIGHT = st.floats(-100.0, 100.0, allow_nan=False)
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
DEGREES = st.sampled_from([(2, 2), (1, 1), (0, 1), (3, 2)])


def _sized(n, element):
    return st.lists(element, min_size=n, max_size=n)


def _collinear(rows, c, axis):
    return [((t, c, z), (c, t, z), (t, t, z))[axis] for t, z in rows]


def _narrowed(rows, scale):
    return [(x * scale, y, z) for x, y, z in rows]


def clouds():
    """Tiny clouds, clouds on a 4x4 lattice with three heights (many
    coincident points and tied distances), clouds on one line, and tiny
    clouds squeezed along x to a width near or below the smallest normal
    float."""
    tiny = st.integers(1, 6).flatmap(lambda n: _sized(n, st.tuples(COORD, COORD, HEIGHT)))
    node = st.integers(0, 3).map(float)
    lattice = st.tuples(node, node, st.sampled_from([-1.0, 0.0, 2.5]))
    dupes = st.integers(4, 60).flatmap(lambda n: _sized(n, lattice))
    on_line = st.tuples(st.integers(-5, 5) | COORD, HEIGHT)
    line = st.integers(4, 60).flatmap(lambda n: _sized(n, on_line))
    collinear = st.builds(_collinear, line, COORD, st.integers(0, 2))
    narrow = st.builds(_narrowed, tiny, st.sampled_from([1e-300, 1e-307, 1e-309]))
    return st.one_of(tiny, dupes, collinear, narrow).map(lambda rows: np.array(rows, dtype=float))


def grids():
    """A small grid of each weight kind, with the outlier filter on or off."""
    kinds = st.sampled_from(
        [
            lambda **c: [WeightSpec.knn(k, **c) for k in (1, 2, 4)],
            lambda **c: [WeightSpec.indicator(r, **c) for r in (0.5, 3.0)],
            lambda **c: [WeightSpec.gaussian(0.5, **c)],
            lambda **c: [WeightSpec.idw(**c)],
            lambda **c: [WeightSpec.truncated_idw(3, **c)],
        ]
    )
    return st.builds(lambda make, on: make(outlier_filter=on), kinds, st.booleans())


@contextmanager
def strict_numerics():
    """Numeric warnings raise; outlier-filter fallbacks are expected."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "outlier filter rejected", RuntimeWarning)
        yield


def assert_inside_heights(coefficients, cloud):
    assert np.isfinite(coefficients).all()
    assert cloud[:, 2].min() <= coefficients.min()
    assert coefficients.max() <= cloud[:, 2].max()


@PROPERTY
@given(cloud=clouds(), grid=grids(), degrees=DEGREES, seed=st.integers(0, 3))
def test_fit_stays_in_the_height_range_or_fails_clearly(cloud, grid, degrees, seed):
    config = FitConfig(weight_grid=grid, degrees=degrees, max_iterations=4, seed=seed)
    with strict_numerics():
        try:
            surface, report = fit(cloud, config)
        except ValueError as exc:
            assert str(exc)
            return
    assert_inside_heights(surface.coefficients, cloud)
    assert 1 <= report.best_iteration <= len(report.iterations) <= 4


@PROPERTY
@given(cloud=clouds(), degrees=DEGREES, levels=st.integers(1, 6))
def test_fit_mba_is_bounded_or_fails_clearly(cloud, degrees, levels):
    with strict_numerics():
        try:
            surface, history = fit_mba(cloud, levels, cloud, degrees=degrees)
        except ValueError as exc:
            assert str(exc)
            return
    assert 1 <= len(surface.levels) <= len(history) <= levels
    assert np.isfinite(history).all()
    for level in surface.levels[1:]:
        nx, ny = level.space.shape
        assert nx * ny <= cloud.shape[0]
    # a point's minimum-norm coefficients are z * w / sum(w^2), and the
    # squares of p + 1 basis values summing to 1 sum to at least 1 / (p + 1)
    (px, py), top = degrees, np.abs(cloud[:, 2]).max()
    first = surface.levels[0].coefficients
    assert np.abs(first).max() <= (px + 1) * (py + 1) * top * (1 + 1e-12)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(cloud=clouds(), kind=st.sampled_from(["knn", "indicator", "idw"]), on=st.booleans())
def test_cli_fit_writes_a_bounded_surface_or_exits_two(cloud, kind, on):
    with tempfile.TemporaryDirectory() as tmp, strict_numerics():
        tmp = Path(tmp)
        write_cloud(tmp / "cloud.xyz", cloud)
        write_config(
            RunConfig(weight=kind, k_grid=(1, 2, 4), radius_grid=(0.5, 3.0), outlier_filter=on,
                      max_iterations=4),
            tmp / "run.cfg",
        )
        stderr = StringIO()
        with redirect_stderr(stderr):
            status = cli_main(
                ["fit", "--cloud", str(tmp / "cloud.xyz"), "--config", str(tmp / "run.cfg"),
                 "--surface-out", str(tmp / "s.json"), "--report-out", str(tmp / "r.json")]
            )
        if status == 2:
            assert stderr.getvalue().startswith("error: ") and len(stderr.getvalue()) > 8
            return
        assert status == 0, stderr.getvalue()
        assert_inside_heights(load_surface(tmp / "s.json").coefficients, cloud)
