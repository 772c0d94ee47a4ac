"""Tests for splitting, tuning, refinement, and the full fitting loop."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from wqisa import kdtree, metrics, weights
from wqisa.cli import cli_main
from wqisa.clouds import bounding_box, joint_bounding_box
from wqisa.io import RunConfig, write_cloud, write_config
from wqisa.mba import fit_mba
from wqisa.metrics import ElementErrorMap, gmse, lmse, residuals
from wqisa.pipeline import (
    DataSplit,
    FitConfig,
    cross_validate,
    fit,
    fit_split,
    kfold_splits,
    knn_parameter_grid,
    refine_mesh,
    split,
    tune_parameters,
)
from wqisa.splines import TensorSplineSpace
from wqisa.synthetic import hemisphere_cloud, perturb
from wqisa.weights import WeightSpec, ZeroWeightError, fit_surface

from oracles import random_cloud


class TestSplit:
    def test_default_fractions_sizes(self):
        cloud = random_cloud(np.random.default_rng(0), 1000)
        data = split(cloud, seed=3)
        assert data.training.shape[0] == 500
        assert data.validation.shape[0] == 250
        assert data.test.shape[0] == 250

    def test_subsets_disjoint_and_within_cloud(self):
        cloud = random_cloud(np.random.default_rng(1), 101)
        data = split(cloud, seed=5)
        rows = {tuple(r) for r in cloud}
        seen: set[tuple] = set()
        for subset in (data.training, data.validation, data.test):
            for row in subset:
                key = tuple(row)
                assert key in rows
                assert key not in seen
                seen.add(key)

    def test_same_seed_same_split(self):
        cloud = random_cloud(np.random.default_rng(2), 77)
        a = split(cloud, seed=11)
        b = split(cloud, seed=11)
        np.testing.assert_array_equal(a.training, b.training)
        np.testing.assert_array_equal(a.validation, b.validation)
        np.testing.assert_array_equal(a.test, b.test)

    def test_different_seed_different_split(self):
        cloud = random_cloud(np.random.default_rng(3), 200)
        a = split(cloud, seed=1)
        b = split(cloud, seed=2)
        assert not np.array_equal(a.training, b.training)

    def test_too_small_cloud_rejected(self):
        cloud = random_cloud(np.random.default_rng(4), 3)
        with pytest.raises(ValueError):
            split(cloud)

    def test_bad_fractions_rejected(self):
        cloud = random_cloud(np.random.default_rng(5), 50)
        with pytest.raises(ValueError):
            split(cloud, fractions=(0.8, 0.3, 0.1))

    @pytest.mark.parametrize("position", range(3))
    def test_nan_fraction_rejected(self, position):
        cloud = random_cloud(np.random.default_rng(5), 50)
        fractions = [0.5, 0.25, 0.25]
        fractions[position] = float("nan")
        with pytest.raises(ValueError, match="fractions must be three finite positive values"):
            split(cloud, fractions=tuple(fractions))


class TestKfold:
    def test_loo_holdouts_are_singletons(self):
        cloud = random_cloud(np.random.default_rng(6), 9)
        folds = kfold_splits(cloud, k=9, seed=0)
        assert len(folds) == 9
        for fold in folds:
            assert fold.validation.shape[0] == 1
            assert fold.test is fold.validation or np.array_equal(fold.test, fold.validation)
            assert fold.training.shape[0] == 8

    def test_holdouts_partition_cloud(self):
        cloud = random_cloud(np.random.default_rng(7), 23)
        folds = kfold_splits(cloud, k=4, seed=1)
        counts = sum(f.validation.shape[0] for f in folds)
        assert counts == 23

    def test_k_bounds(self):
        cloud = random_cloud(np.random.default_rng(8), 5)
        for k in (1, 6):
            with pytest.raises(ValueError):
                kfold_splits(cloud, k)


class TestTuneParameters:
    def setup_method(self):
        rng = np.random.default_rng(9)
        self.training = random_cloud(rng, 80)
        self.validation = random_cloud(rng, 40)
        lo_x = min(self.training[:, 0].min(), self.validation[:, 0].min())
        hi_x = max(self.training[:, 0].max(), self.validation[:, 0].max())
        lo_y = min(self.training[:, 1].min(), self.validation[:, 1].min())
        hi_y = max(self.training[:, 1].max(), self.validation[:, 1].max())
        self.space = TensorSplineSpace.uniform((2, 2), (lo_x, hi_x, lo_y, hi_y), 1)

    def test_single_entry_grid(self):
        spec = WeightSpec.knn(3)
        result = tune_parameters(self.training, self.validation, self.space, [spec])
        assert result.spec is spec

    def test_duplicate_entries_first_wins(self):
        specs = [WeightSpec.knn(4), WeightSpec.knn(4)]
        result = tune_parameters(self.training, self.validation, self.space, specs)
        assert result.spec is specs[0]

    def test_exhaustive_argmin_matches_rerun(self):
        grid = knn_parameter_grid(10)
        result = tune_parameters(self.training, self.validation, self.space, grid)
        scores = [
            gmse(fit_surface(self.training, self.space, spec), self.validation)
            for spec in grid
        ]
        best = int(np.argmin(scores))
        assert result.spec is grid[best]
        assert result.gmse == scores[best]

    def test_all_entries_failing_raises(self):
        grid = [WeightSpec.indicator(1e-9), WeightSpec.indicator(2e-9)]
        with pytest.raises(ZeroWeightError, match="every grid entry"):
            tune_parameters(self.training, self.validation, self.space, grid)

    @pytest.mark.parametrize(
        "grid, reason",
        [
            ([WeightSpec.indicator(1e-9), WeightSpec.indicator(2e-9)], "no point has positive weight at "),
            ([WeightSpec.knn(20_000), WeightSpec.knn(10_000)], "k=10000 exceeds cloud size 80"),
        ],
    )
    def test_all_entries_failing_names_the_last_failure(self, grid, reason):
        # the message fit_surface gives the last entry, after the same prefix
        with pytest.raises(ZeroWeightError) as last:
            fit_surface(self.training, self.space, grid[-1])
        with pytest.raises(ZeroWeightError) as every:
            tune_parameters(self.training, self.validation, self.space, grid)
        assert str(every.value) == f"every grid entry failed; last error: {last.value}"
        assert str(every.value).startswith(
            f"every grid entry failed; last error: coefficient (i=0, j=0): {reason}"
        )

    def test_mixed_kind_grid_refused(self):
        # one table serves the grid, and a table serves one kind, as FitConfig requires
        grid = [WeightSpec.indicator(0.5), WeightSpec.knn(4)]
        message = r"^a neighbour table serves one weight kind, got \['indicator', 'knn'\]$"
        with pytest.raises(ValueError, match=message):
            tune_parameters(self.training, self.validation, self.space, grid)

    def test_oversized_k_skipped(self):
        grid = [WeightSpec.knn(5), WeightSpec.knn(10_000)]
        result = tune_parameters(self.training, self.validation, self.space, grid)
        assert result.spec is grid[0]

    @pytest.mark.parametrize(
        "grid",
        [
            [WeightSpec.knn(k) for k in (1, 3, 200, 6, 12)],
            [WeightSpec.truncated_idw(t, outlier_filter=True) for t in (2, 9, 500)],
            [WeightSpec.indicator(r) for r in (1e-6, 0.3, 0.6, 1.2)],
            [WeightSpec.indicator(r, outlier_filter=True) for r in (0.5, 1.2)] + [WeightSpec.indicator(0.2)],
            [WeightSpec.knn(4)],
        ],
    )
    def test_shared_neighbours_pick_what_separate_fits_pick(self, grid):
        # the grid shares one neighbour query per knot average; every entry
        # must score as it does when fitted on its own, and entries that
        # cannot be fitted (k > n, empty balls) are skipped
        from wqisa.splines import KnotVector

        space = TensorSplineSpace(
            KnotVector.piecewise_bezier(2, np.linspace(*self.space.domain[:2], 4)),
            KnotVector.piecewise_bezier(2, np.linspace(*self.space.domain[2:], 3)),
        )
        result = tune_parameters(self.training, self.validation, space, grid)
        scores = []
        for spec in grid:
            try:
                scores.append(gmse(fit_surface(self.training, space, spec), self.validation))
            except ZeroWeightError:
                scores.append(np.inf)
        best = int(np.argmin(scores))
        assert result.spec is grid[best]
        assert result.gmse == scores[best]
        np.testing.assert_array_equal(
            result.surface.coefficients, fit_surface(self.training, space, grid[best]).coefficients
        )

    def test_a_small_table_budget_changes_no_bit(self, monkeypatch):
        from wqisa.splines import KnotVector

        space = TensorSplineSpace(
            KnotVector.piecewise_bezier(2, np.linspace(*self.space.domain[:2], 5)),
            KnotVector.piecewise_bezier(2, np.linspace(*self.space.domain[2:], 4)),
        )
        grids = ([WeightSpec.indicator(r) for r in (1.0, 1.5, 3.0)], [WeightSpec.knn(k) for k in (2, 5)])
        defaults = [tune_parameters(self.training, self.validation, space, grid) for grid in grids]
        # a few rows to a batch, and one row of the widest ball
        monkeypatch.setattr(kdtree, "TABLE_BUDGET", 12)
        for grid, default in zip(grids, defaults):
            small = tune_parameters(self.training, self.validation, space, grid)
            assert small.spec is default.spec
            assert small.gmse == default.gmse
            assert small.surface.coefficients.tobytes() == default.surface.coefficients.tobytes()


def refined_space(degrees, domain) -> TensorSplineSpace:
    """A non-uniform 4 x 4 mesh over *domain*: three refinement steps that
    each split one element."""
    space = TensorSplineSpace.uniform(degrees, domain, 1)
    for flagged in ((0, 0), (1, 0), (2, 2)):
        values = np.zeros(space.element_counts)
        values[flagged] = 1.0
        space = refine_mesh(space, ElementErrorMap(values, np.ones(values.shape, int)), 0.5)
    return space


# a small grid of each kind, every entry of which can be fitted
GRIDS = {
    "knn": lambda **common: [WeightSpec.knn(k, **common) for k in (1, 4, 9)],
    "indicator": lambda **common: [WeightSpec.indicator(r, **common) for r in (0.6, 0.9, 1.5)],
    "gaussian": lambda **common: [WeightSpec.gaussian(s, **common) for s in (0.1, 0.3)],
    "idw": lambda **common: [WeightSpec.idw(**common)],
    "idw_truncated": lambda **common: [WeightSpec.truncated_idw(t, **common) for t in (2, 7)],
}


class TestScoring:
    """``tune_parameters`` scores every entry against validation basis rows
    built once per mesh; each score must equal ``metrics.gmse``."""

    @pytest.mark.parametrize("degrees", [(2, 2), (1, 3), (0, 1)])
    @pytest.mark.parametrize("outlier_filter", [False, True], ids=["plain", "filtered"])
    @pytest.mark.parametrize("kind", sorted(GRIDS))
    def test_every_score_is_the_gmse(self, kind, outlier_filter, degrees):
        cloud = random_cloud(np.random.default_rng(31), 180)
        training, validation = cloud[:120], cloud[120:]
        space = refined_space(degrees, bounding_box(cloud))
        grid = GRIDS[kind](outlier_filter=outlier_filter)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # filter fallbacks
            surfaces = [fit_surface(training, space, spec) for spec in grid]
            scores = [gmse(surface, validation) for surface in surfaces]
            for spec, score in zip(grid, scores):
                assert tune_parameters(training, validation, space, [spec]).gmse == score
            result = tune_parameters(training, validation, space, grid)
        best = int(np.argmin(scores))
        assert result.spec is grid[best]
        assert result.gmse == scores[best]
        assert result.surface.coefficients.tobytes() == surfaces[best].coefficients.tobytes()

    @pytest.mark.parametrize("degrees", [(2, 2), (0, 1)])
    @pytest.mark.parametrize("kind", sorted(GRIDS))
    def test_the_scored_residuals_map_the_lmse(self, kind, degrees):
        # fit_split maps the LMSE from the winner's scored residuals; the map
        # must be the bytes lmse gives from evaluating the surface again
        cloud = random_cloud(np.random.default_rng(32), 300)
        training, validation = cloud[:150], cloud[150:]
        space = refined_space(degrees, bounding_box(cloud))
        result = tune_parameters(training, validation, space, GRIDS[kind]())
        assert result.residuals.tobytes() == residuals(result.surface, validation).tobytes()
        handed = metrics._error_map(validation, result.residuals, space)
        evaluated = lmse(result.surface, validation, space)
        assert handed.values.tobytes() == evaluated.values.tobytes()
        assert handed.counts.tobytes() == evaluated.counts.tobytes()
        assert evaluated.counts.sum() == validation.shape[0]


class TestRefineMesh:
    def test_nothing_flagged_returns_same_space(self):
        space = TensorSplineSpace.uniform((2, 2), (0, 1, 0, 1), 1)
        surface = fit_surface(
            np.array([[0.2, 0.2, 1.0], [0.8, 0.8, 1.0]]), space, WeightSpec.knn(2)
        )
        emap = lmse(surface, np.array([[0.5, 0.5, 1.0]]), space)
        assert refine_mesh(space, emap, epsilon=1.0) is space

    def test_single_flagged_element_becomes_two_by_two(self):
        space = TensorSplineSpace.uniform((2, 2), (0, 1, 0, 1), 1)
        surface = fit_surface(
            np.array([[0.2, 0.2, 0.0], [0.8, 0.8, 0.0]]), space, WeightSpec.knn(2)
        )
        emap = lmse(surface, np.array([[0.5, 0.5, 3.0]]), space)
        refined = refine_mesh(space, emap, epsilon=1e-6)
        assert refined.element_counts == (2, 2)
        np.testing.assert_allclose(refined.knots_x.breakpoints, [0, 0.5, 1])

    def test_shared_span_midpoint_inserted_once(self):
        from wqisa.splines import KnotVector

        kv = KnotVector.uniform_open(1, 2)
        space = TensorSplineSpace(kv, kv)
        cloud = np.array([[0.1, 0.1, 0.0], [0.9, 0.9, 0.0]])
        surface = fit_surface(cloud, space, WeightSpec.knn(2))
        # two validation points in different y-elements but the same x-element
        validation = np.array([[0.2, 0.2, 5.0], [0.2, 0.8, 5.0]])
        emap = lmse(surface, validation, space)
        refined = refine_mesh(space, emap, epsilon=1e-6)
        np.testing.assert_allclose(refined.knots_x.breakpoints, [0, 0.25, 0.5, 1])
        np.testing.assert_allclose(refined.knots_y.breakpoints, [0, 0.25, 0.5, 0.75, 1])

    def test_an_axis_without_a_float_inside_is_not_split(self):
        # x spans one ulp, so its midpoint rounds onto an edge; y is cut
        space = TensorSplineSpace.uniform((2, 2), (1.0, np.nextafter(1.0, 2.0), 0.0, 1.0), 1)
        flagged = ElementErrorMap(values=np.ones((1, 1)), counts=np.ones((1, 1), dtype=np.intp))
        refined = refine_mesh(space, flagged, epsilon=0.5)
        assert refined.knots_x is space.knots_x
        assert refined.knots_y.breakpoints.tolist() == [0.0, 0.5, 1.0]
        narrow = TensorSplineSpace(space.knots_x, space.knots_x)
        assert refine_mesh(narrow, flagged, epsilon=0.5) is narrow

    def test_misaligned_map_rejected(self):
        from wqisa.metrics import ElementErrorMap

        space = TensorSplineSpace.uniform((2, 2), (0, 1, 0, 1), 1)
        bogus = ElementErrorMap(
            values=np.zeros((3, 3)),
            counts=np.zeros((3, 3), dtype=np.intp),
        )
        with pytest.raises(ValueError, match="aligned"):
            refine_mesh(space, bogus, 0.0)


class TestFit:
    def test_constant_cloud_converges_immediately(self):
        rng = np.random.default_rng(10)
        cloud = np.column_stack([rng.uniform(0, 2, size=(40, 2)), np.full(40, 6.5)])
        config = FitConfig(weight_grid=knn_parameter_grid(3), seed=1)
        surface, report = fit(cloud, config)
        assert report.iterations[0].gmse == 0.0
        assert report.best_iteration == 1
        assert report.stop_reason in ("threshold_met", "stagnated")
        assert surface.evaluate(1.0, 1.0) == 6.5

    @pytest.mark.parametrize(
        "width, spec",
        [(1e300, WeightSpec.idw()), (1e170, WeightSpec.gaussian(0.3e170))],
        ids=["idw", "gaussian"],
    )
    def test_overflowing_distances_name_the_box(self, width, spec):
        # squared distances across the cloud overflow: unchecked, idw weighs
        # the far points 0 and gaussian finds no point with positive weight
        rng = np.random.default_rng(11)
        cloud = np.column_stack([rng.uniform(0, width, 50), rng.uniform(0, 1, size=(50, 2))])
        with pytest.raises(ValueError, match=r"the planar bounding box \(.*\) is too wide"):
            fit(cloud, FitConfig(weight_grid=(spec,), max_iterations=3))

    @pytest.mark.parametrize(
        "domain",
        [(0.0, 1.7e308, 0.0, 1.0), (0.0, 1e200, 0.0, 1.0), (0.0, 1.0, -1e200, 1.0)],
        ids=["x-1.7e308", "x-1e200", "y-1e200"],
    )
    @pytest.mark.parametrize("kind", ["knn", "idw"])
    def test_a_mesh_far_wider_than_its_cloud_is_refused_naming_both_boxes(self, monkeypatch, domain, kind):
        # a knot average far from every point used to be named as a query
        # point the caller never gave; the mesh is refused before any table
        cloud = hemisphere_cloud(500, seed=1)
        validation = hemisphere_cloud(100, seed=2)
        mesh = TensorSplineSpace.uniform((2, 2), domain, 4)
        spec = WeightSpec.knn(3) if kind == "knn" else WeightSpec.idw()
        tables = []
        monkeypatch.setattr(weights, "NeighbourTable", lambda *args: tables.append(args))
        message = (rf"^the mesh domain \(xmin, xmax, ymin, ymax\) = {re.escape(str(domain))} is too far from "
                   rf"the cloud's planar bounding box {re.escape(str(bounding_box(cloud)))}: the square")
        with pytest.raises(ValueError, match=message):
            fit_surface(cloud, mesh, spec)
        with pytest.raises(ValueError, match=message):
            tune_parameters(cloud, validation, mesh, [spec])
        with pytest.raises(ValueError, match=message):
            tune_parameters(cloud, validation, mesh, [spec], kdtree.PlanarIndex(cloud[:, :2]))
        assert tables == []

    def test_a_mesh_wide_but_not_too_wide_for_its_cloud_still_fits(self):
        # the box joining (5e153, 1e154) and the unit square has a squared
        # diagonal near 1e308, which is finite
        cloud = hemisphere_cloud(500, seed=1)
        mesh = TensorSplineSpace.uniform((2, 2), (5e153, 1e154, 0.0, 1.0), 4)
        surface = fit_surface(cloud, mesh, WeightSpec.knn(3))
        assert np.isfinite(surface.coefficients).all()
        validation = hemisphere_cloud(100, seed=2) * [5e153, 1.0, 1.0] + [5e153, 0.0, 0.0]
        tuned = tune_parameters(cloud, validation, mesh, [WeightSpec.knn(3)])
        assert tuned.surface.coefficients.tobytes() == surface.coefficients.tobytes()

    def test_iteration_budget_respected(self):
        cloud = perturb(hemisphere_cloud(150, seed=2), noise_std=0.1, seed=3)
        config = FitConfig(weight_grid=knn_parameter_grid(3), max_iterations=15, seed=4)
        _, report = fit(cloud, config)
        assert 1 <= len(report.iterations) <= 15

    def test_returned_surface_is_pre_increase_iterate(self):
        cloud = perturb(hemisphere_cloud(200, seed=5), noise_std=0.05, seed=6)
        config = FitConfig(weight_grid=knn_parameter_grid(4), seed=7)
        surface, report = fit(cloud, config)
        history = [rec.gmse for rec in report.iterations]
        best = report.best_iteration - 1
        assert history[best] == min(history)
        assert history[best] <= history[-1]
        assert history[best] <= history[0]

    def test_reproducible_reports(self):
        cloud = perturb(hemisphere_cloud(120, seed=8), noise_std=0.2, seed=9)
        config = FitConfig(weight_grid=knn_parameter_grid(3), seed=10)
        surface_a, report_a = fit(cloud, config)
        surface_b, report_b = fit(cloud, config)
        assert report_a.to_json_dict() == report_b.to_json_dict()
        np.testing.assert_array_equal(surface_a.coefficients, surface_b.coefficients)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_zero_width_cloud_names_the_axis(self, axis):
        # a vertical line (x or y constant), or every point at one (x, y)
        t = np.linspace(0.0, 1.0, 30)
        cloud = np.column_stack([t, t, np.sin(t)])
        flat = {0: [0], 1: [1], 2: [0, 1]}[axis]
        cloud[:, flat] = 0.25
        names = " and ".join("xy"[a] for a in flat)
        config = FitConfig(weight_grid=knn_parameter_grid(3), seed=0)
        with pytest.raises(ValueError, match=f"zero width in {names};"):
            fit(cloud, config)
        data = split(cloud, seed=0)
        with pytest.raises(ValueError, match=f"zero width in {names};"):
            fit_split(data, config)
        # the baseline checks the same box, found or given
        for domain in (None, bounding_box(cloud)):
            with pytest.raises(ValueError, match=f"zero width in {names};"):
                fit_mba(data.training, 3, data.validation, domain=domain)

    @pytest.mark.parametrize("exponent", [510, 511, 512, 530, 560])
    def test_a_box_whose_squared_width_is_subnormal_is_refused(self, tmp_path, capsys, exponent):
        # the cloud's sides are just under 1, so 2**-511 already squares
        # below the smallest normal float; at 2**-530 the squared distances
        # used to tie and silently change the neighbours (of a fit, and of
        # a library table by up to 0.075), and at 2**-560 the stop reason
        base = perturb(hemisphere_cloud(3000, seed=1), noise_std=0.05, seed=2)
        config = FitConfig(weight_grid=knn_parameter_grid(5), max_iterations=5)
        cloud = base * [2.0**-exponent, 2.0**-exponent, 1.0]
        mesh = TensorSplineSpace.uniform((2, 2), (0.0, 2.0**-exponent, 0.0, 2.0**-exponent), 16)
        if exponent == 510:
            surface, _ = fit(cloud, config)
            assert surface.coefficients.tobytes() == fit(base, config)[0].coefficients.tobytes()
            unscaled = fit_surface(base, TensorSplineSpace.uniform((2, 2), (0.0, 1.0, 0.0, 1.0), 16),
                                   WeightSpec.knn(3))
            scaled = fit_surface(cloud, mesh, WeightSpec.knn(3))
            assert scaled.coefficients.tobytes() == unscaled.coefficients.tobytes()
            return
        with pytest.raises(ValueError, match="too narrow in x and y: the square of its width"):
            fit(cloud, config)
        # a library table checks the same box
        with pytest.raises(ValueError, match="too narrow in x and y: the square of its width"):
            fit_surface(cloud, mesh, WeightSpec.knn(3))
        with pytest.raises(ValueError, match="too narrow in x and y: the square of its width"):
            weights.estimate_control_point(cloud, *cloud[0, :2], WeightSpec.knn(3))
        data = split(cloud, seed=0)
        with pytest.raises(ValueError, match="too narrow in x and y: the square of its width"):
            fit_mba(data.training, 3, data.validation)
        write_cloud(tmp_path / "cloud.xyz", cloud)
        write_config(RunConfig(weight="knn", k_grid=(1, 2, 3, 4, 5), max_iterations=5), tmp_path / "run.cfg")
        paths = [str(tmp_path / name) for name in ("cloud.xyz", "run.cfg", "surf.json", "report.json")]
        for argv in (["fit", "--cloud", paths[0], "--config", paths[1], "--surface-out", paths[2],
                      "--report-out", paths[3]],
                     ["compare", "--cloud", paths[0], "--config", paths[1], "--out", paths[3]]):
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "too narrow in x and y" in err and err.count("\n") == 1

    @pytest.mark.parametrize("scale", [(2.0**511, 2.0**511), (2.0**512, 2.0**512), (1.7e308, 1.0)],
                             ids=["2**511", "2**512", "x-1.7e308"])
    def test_a_box_whose_squared_diagonal_overflows_is_refused(self, tmp_path, capsys, scale):
        # the cloud's sides are just under 1, so at 2**511 the squared
        # diagonal stays finite; at 2**512 a knot average the caller never
        # gave used to be named as a query point too far from the points,
        # and at x * 1.7e308 the knot averages overflowed with a warning
        base = perturb(hemisphere_cloud(3000, seed=1), noise_std=0.05, seed=2)
        config = FitConfig(weight_grid=knn_parameter_grid(5), max_iterations=5)
        cloud = base * [*scale, 1.0]
        mesh = TensorSplineSpace.uniform((2, 2), (0.0, scale[0], 0.0, scale[1]), 16)
        data = split(cloud, seed=0)
        # the baseline weighs no distances: it fits at every scale, and a
        # power-of-two scale keeps its coefficients' bits
        surface, history = fit_mba(data.training, 3, data.validation)
        assert len(history) == 3 and all(np.isfinite(history))
        if scale[1] != 1.0:
            unscaled = split(base, seed=0)
            plain, _ = fit_mba(unscaled.training, 3, unscaled.validation)
            for level, reference in zip(surface.levels, plain.levels, strict=True):
                assert level.coefficients.tobytes() == reference.coefficients.tobytes()
        if scale[0] == 2.0**511:
            assert fit(cloud, config)[0].coefficients.tobytes() == fit(base, config)[0].coefficients.tobytes()
            unscaled = fit_surface(base, TensorSplineSpace.uniform((2, 2), (0.0, 1.0, 0.0, 1.0), 16),
                                   WeightSpec.knn(3))
            scaled = fit_surface(cloud, mesh, WeightSpec.knn(3))
            assert scaled.coefficients.tobytes() == unscaled.coefficients.tobytes()
            return
        whole = re.escape(str(bounding_box(cloud)))
        split_box = re.escape(str(joint_bounding_box(data.training, data.validation, data.test)))
        for box, call in [
            (whole, lambda: fit(cloud, config)),
            (split_box, lambda: fit_split(data, config)),
            (whole, lambda: fit_surface(cloud, mesh, WeightSpec.knn(3))),
            (whole, lambda: weights.estimate_control_point(cloud, *cloud[0, :2], WeightSpec.knn(3))),
        ]:
            message = rf"^the planar bounding box \(xmin, xmax, ymin, ymax\) = {box} is too wide: the square"
            with pytest.raises(ValueError, match=message):
                call()
        write_cloud(tmp_path / "cloud.xyz", cloud)
        write_config(RunConfig(weight="knn", k_grid=(1, 2, 3, 4, 5), max_iterations=5), tmp_path / "run.cfg")
        paths = [str(tmp_path / name) for name in ("cloud.xyz", "run.cfg", "surf.json", "report.json")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status = cli_main(["fit", "--cloud", paths[0], "--config", paths[1], "--surface-out", paths[2],
                               "--report-out", paths[3]])
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("error: the planar bounding box ") and "is too wide" in err and err.count("\n") == 1

    def test_zero_weight_failure_names_iteration(self):
        cloud = random_cloud(np.random.default_rng(11), 60)
        config = FitConfig(weight_grid=(WeightSpec.indicator(1e-12),), seed=0)
        with pytest.raises(ZeroWeightError, match="iteration 1"):
            fit(cloud, config)

    def test_single_iteration_budget(self):
        cloud = perturb(hemisphere_cloud(100, seed=20), noise_std=0.1, seed=21)
        config = FitConfig(weight_grid=knn_parameter_grid(2), max_iterations=1, seed=22)
        _, report = fit(cloud, config)
        assert report.stop_reason == "max_iterations"
        assert len(report.iterations) == 1
        assert report.best_iteration == 1

    def test_budget_stop_returns_the_fit_capped_there(self):
        # 150 training points: the 8x8 mesh has 100 coefficients, the next 324
        cloud = perturb(hemisphere_cloud(300, seed=1), noise_std=0.05, seed=2)
        config = FitConfig(weight_grid=knn_parameter_grid(3), seed=7)
        surface, report = fit(cloud, config)
        assert report.stop_reason == "budget"
        assert report.iterations[-1].mesh_elements == (8, 8)
        capped, capped_report = fit(cloud, dataclasses.replace(config, max_iterations=len(report.iterations)))
        assert capped_report.stop_reason == "max_iterations"
        assert capped_report.iterations == report.iterations
        assert capped.coefficients.tobytes() == surface.coefficients.tobytes()

    def test_elements_below_float_resolution_stop_the_fit(self):
        # at 2**50 the spacing of floats is 0.25, the width of the 4x4 mesh's
        # elements: their midpoints round onto an edge, which used to raise
        # from insert_knot after a valid surface existed
        cloud = perturb(hemisphere_cloud(3000, seed=1), noise_std=0.05, seed=2) + [2.0**50, 2.0**50, 0.0]
        config = FitConfig(weight_grid=knn_parameter_grid(10), max_iterations=15, epsilon=0.0)
        surface, report = fit(cloud, config)
        assert report.stop_reason == "unsplittable"
        assert [rec.mesh_elements for rec in report.iterations] == [(1, 1), (2, 2), (4, 4)]
        capped, _ = fit(cloud, dataclasses.replace(config, max_iterations=3))
        assert capped.coefficients.tobytes() == surface.coefficients.tobytes()

    def test_an_unchanged_validation_error_stops_stagnated(self):
        # k equal to the training size makes every coefficient the training
        # mean, so the refined mesh scores exactly what the first one scored
        cloud = perturb(hemisphere_cloud(200, seed=1), noise_std=0.05, seed=2)
        training = split(cloud).training
        config = FitConfig(weight_grid=(WeightSpec.knn(training.shape[0]),), epsilon=0.0, max_iterations=5)
        surface, report = fit(cloud, config)
        assert report.stop_reason == "stagnated"
        assert report.best_iteration == 2
        assert [rec.mesh_elements for rec in report.iterations] == [(1, 1), (2, 2)]
        assert report.iterations[0].gmse == report.iterations[1].gmse
        np.testing.assert_allclose(surface.coefficients, training[:, 2].mean(), rtol=1e-14)

    @pytest.mark.parametrize("exponent", [512, 520])
    def test_heights_whose_squares_overflow_are_refused(self, exponent):
        # the default epsilon's variance overflows first; it used to become
        # inf, and the fit reported an infinite test MSE after one mesh
        cloud = perturb(hemisphere_cloud(3000, seed=1), noise_std=0.05, seed=2) * [1.0, 1.0, 2.0**exponent]
        with pytest.raises(ValueError, match="the mean square of 1500 values overflows the float range"):
            fit(cloud, FitConfig())

    @pytest.mark.parametrize("signs", ["same", "alternating"])
    def test_heights_whose_sum_overflows_are_refused(self, signs):
        # the mean of the training heights overflows (to inf, or to NaN when
        # partial sums overflow both ways); it used to warn before the refusal
        cloud = hemisphere_cloud(300, seed=1)
        cloud[:, 2] = 0.5e308 + 0.5e308 * cloud[:, 2]
        if signs == "alternating":
            cloud[1::2, 2] *= -1.0
        with pytest.raises(ValueError, match="^the mean square of 150 values overflows the float range$"):
            fit(cloud, FitConfig())

    def test_heights_just_below_the_overflow_scale_exactly(self):
        cloud = perturb(hemisphere_cloud(3000, seed=1), noise_std=0.05, seed=2)
        base_surface, base = fit(cloud, FitConfig())
        surface, report = fit(cloud * [1.0, 1.0, 2.0**510], FitConfig())
        assert surface.coefficients.tobytes() == (base_surface.coefficients * 2.0**510).tobytes()
        assert report.test_mse == base.test_mse * 2.0**1020
        assert [rec.gmse for rec in report.iterations] == [rec.gmse * 2.0**1020 for rec in base.iterations]
        assert (report.stop_reason, report.best_iteration) == (base.stop_reason, base.best_iteration)

    def test_mesh_grows_monotonically(self):
        cloud = perturb(hemisphere_cloud(300, seed=12), noise_std=0.02, seed=13)
        config = FitConfig(weight_grid=knn_parameter_grid(2), seed=14)
        _, report = fit(cloud, config)
        sizes = [rec.mesh_elements[0] * rec.mesh_elements[1] for rec in report.iterations]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))
        assert report.iterations[0].mesh_elements == (1, 1)

    def test_height_scale_does_not_change_the_fit_path(self):
        # the stagnation test is relative, so z -> 1e-6 z refines the same way
        for n, seed in ((600, 1), (400, 2), (500, 4)):
            cloud = perturb(hemisphere_cloud(n, seed=seed), noise_std=0.05, seed=seed + 1)
            scaled = cloud * [1.0, 1.0, 1e-6]
            config = FitConfig(weight_grid=knn_parameter_grid(3), seed=seed)
            _, base = fit(cloud, config)
            _, small = fit(scaled, config)
            path = [(rec.mesh_elements, rec.parameter) for rec in base.iterations]
            assert [(rec.mesh_elements, rec.parameter) for rec in small.iterations] == path
            assert small.stop_reason == base.stop_reason


class TestOneIndexPerFit:
    """The training cloud never changes, so every mesh of a fit queries one
    index of it, and a kind that scans the whole cloud builds none."""

    @pytest.mark.parametrize(
        "grid, builds",
        [
            (knn_parameter_grid(4), 1),
            ((WeightSpec.indicator(0.3), WeightSpec.indicator(0.6)), 1),
            ((WeightSpec.truncated_idw(6), WeightSpec.truncated_idw(12)), 1),
            ((WeightSpec.gaussian(0.1), WeightSpec.gaussian(0.3)), 0),
            ((WeightSpec.idw(),), 0),
        ],
        ids=["knn", "indicator", "idw_truncated", "gaussian", "idw"],
    )
    def test_index_builds(self, monkeypatch, grid, builds):
        built = []
        index = weights.PlanarIndex
        monkeypatch.setattr(weights, "PlanarIndex", lambda *args: built.append(0) or index(*args))
        cloud = perturb(hemisphere_cloud(400, seed=23), noise_std=0.02, seed=24)
        config = FitConfig(weight_grid=grid, epsilon=0.0, max_iterations=4, seed=25)
        _, report = fit(cloud, config)
        assert len(report.iterations) == 4
        assert len(built) == builds


class TestCrossValidate:
    def test_loo_on_constant_cloud_is_exact(self):
        rng = np.random.default_rng(15)
        cloud = np.column_stack([rng.uniform(0, 1, size=(8, 2)), np.full(8, 2.0)])
        config = FitConfig(weight_grid=knn_parameter_grid(2), seed=0)
        stats = cross_validate(cloud, config, k=8)
        assert stats.mse == 0.0
        assert stats.count == 8

    def test_two_folds_pool_all_residuals(self):
        rng = np.random.default_rng(16)
        cloud = np.column_stack([rng.uniform(0, 1, size=(4, 2)), rng.uniform(0, 1, size=4)])
        config = FitConfig(weight_grid=(WeightSpec.knn(1),), seed=3)
        stats = cross_validate(cloud, config, k=2)
        assert stats.count == 4

    def test_pooled_mse_matches_concatenation_oracle(self):
        rng = np.random.default_rng(17)
        cloud = random_cloud(rng, 30)
        config = FitConfig(weight_grid=knn_parameter_grid(2), seed=5)
        stats = cross_validate(cloud, config, k=3)
        residuals = []
        from wqisa.clouds import bounding_box

        for fold in kfold_splits(cloud, 3, seed=5):
            surface, _ = fit_split(fold, config, domain=bounding_box(cloud))
            predicted = surface.evaluate_many(fold.test[:, 0], fold.test[:, 1])
            residuals.append(fold.test[:, 2] - predicted)
        pooled = np.concatenate(residuals)
        assert stats.count == pooled.size
        assert stats.mse == pytest.approx(float(np.mean(pooled**2)), rel=1e-12)


class TestFitConfig:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            FitConfig(weight_grid=())

    def test_mixed_kind_grid_rejected(self):
        with pytest.raises(ValueError, match="mixes kinds"):
            FitConfig(weight_grid=(WeightSpec.knn(1), WeightSpec.idw()))

    @pytest.mark.parametrize("epsilon", [-1.0, float("nan")])
    def test_negative_or_nan_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match="^epsilon must be None, or finite and >= 0"):
            FitConfig(epsilon=epsilon)

    def test_default_grid_is_knn_one_to_ten(self):
        config = FitConfig()
        assert config.weight_kind == "knn"
        assert [s.k for s in config.weight_grid] == list(range(1, 11))
