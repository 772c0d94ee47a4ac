"""Tests for the multilevel B-spline baseline."""

import time

import numpy as np
import pytest

from wqisa.mba import MbaSurface, dyadic_space, fit_mba, mba_level_coefficients
from wqisa.splines import TensorSplineSpace, WqisaSurface
from wqisa.synthetic import hemisphere_cloud
from wqisa.weights import fit_surface  # noqa: F401  (namespace sanity)


def bilinear_unit_space() -> TensorSplineSpace:
    return TensorSplineSpace.single_element((1, 1), (0.0, 1.0, 0.0, 1.0))


class TestLevelCoefficients:
    def test_single_point_at_interpolatory_corner(self):
        # at the (0, 0) corner exactly one bilinear basis function is 1
        cloud = np.array([[0.0, 0.0, 4.25]])
        grid = mba_level_coefficients(cloud, bilinear_unit_space())
        np.testing.assert_array_equal(grid, [[4.25, 0.0], [0.0, 0.0]])

    def test_zero_cloud_gives_zero_grid(self):
        rng = np.random.default_rng(0)
        cloud = np.column_stack([rng.uniform(0, 1, size=(20, 2)), np.zeros(20)])
        grid = mba_level_coefficients(cloud, dyadic_space((2, 2), (0, 1, 0, 1), 2))
        np.testing.assert_array_equal(grid, 0.0)

    def test_two_point_bilinear_hand_oracle(self):
        pts = np.array([[0.25, 0.5, 2.0], [0.75, 0.25, -1.0]])
        grid = mba_level_coefficients(pts, bilinear_unit_space())

        # hand evaluation of the explicit formulas on the bilinear element
        basis = []
        for x, y, _ in pts:
            bx = np.array([1 - x, x])
            by = np.array([1 - y, y])
            basis.append(np.outer(bx, by))
        basis = np.asarray(basis)
        ssq = np.array([(b**2).sum() for b in basis])
        expected = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                num = 0.0
                den = 0.0
                for p, (_, _, z) in enumerate(pts):
                    w = basis[p, i, j]
                    phi = w * z / ssq[p]
                    num += w * w * phi
                    den += w * w
                expected[i, j] = num / den if den > 0 else 0.0
        np.testing.assert_allclose(grid, expected, atol=1e-12)

    def test_single_point_reproduced_by_surface(self):
        # the minimum-norm solve makes the level exact on an isolated point
        cloud = np.array([[0.37, 0.61, 1.5]])
        space = dyadic_space((2, 2), (0, 1, 0, 1), 0)
        surface = WqisaSurface(space, mba_level_coefficients(cloud, space))
        assert surface.evaluate(0.37, 0.61) == pytest.approx(1.5, abs=1e-12)

    def test_untouched_supports_stay_zero(self):
        # all data in one corner: far-away basis functions keep coefficient 0
        cloud = np.column_stack([np.full(5, 0.05), np.full(5, 0.05), np.arange(5.0) + 1])
        space = dyadic_space((2, 2), (0, 1, 0, 1), 3)
        grid = mba_level_coefficients(cloud, space)
        assert np.all(grid[4:, :] == 0.0)
        assert np.all(grid[:, 4:] == 0.0)
        assert grid[0, 0] != 0.0


class TestMbaSurface:
    def test_evaluation_sums_levels(self):
        rng = np.random.default_rng(1)
        levels = []
        for lev in range(3):
            space = dyadic_space((2, 2), (0, 1, 0, 1), lev)
            levels.append(WqisaSurface(space, rng.uniform(-1, 1, size=space.shape)))
        surface = MbaSurface(tuple(levels))
        xs = rng.uniform(0, 1, size=100)
        ys = rng.uniform(0, 1, size=100)
        expected = sum(level.evaluate_many(xs, ys) for level in levels)
        np.testing.assert_allclose(surface.evaluate_many(xs, ys), expected, atol=1e-12)

    def test_needs_a_level(self):
        with pytest.raises(ValueError):
            MbaSurface(())


class TestFitMba:
    def test_dyadic_element_counts(self):
        for lev in range(4):
            space = dyadic_space((2, 2), (0, 1, 0, 1), lev)
            assert space.element_counts == (2**lev, 2**lev)

    def test_constant_cloud_error_collapses_across_levels(self):
        # the explicit blend is not a projector, so even a constant leaves a
        # level-0 bias; the residual correction must shrink it geometrically
        rng = np.random.default_rng(2)
        cloud = np.column_stack([rng.uniform(0, 1, size=(240, 2)), np.full(240, 3.25)])
        validation = np.column_stack([rng.uniform(0, 1, size=(60, 2)), np.full(60, 3.25)])
        surface, history = fit_mba(cloud, 4, validation)
        assert all(b < a for a, b in zip(history, history[1:]))
        assert history[-1] < 1e-3
        got = surface.evaluate_many(validation[:, 0], validation[:, 1])
        np.testing.assert_allclose(got, 3.25, atol=0.05)

    def test_stops_when_validation_error_rises(self):
        rng = np.random.default_rng(3)
        train = hemisphere_cloud(300, seed=4)
        train[:, 2] += rng.normal(0, 0.3, size=300)
        validation = hemisphere_cloud(150, seed=5)
        surface, history = fit_mba(train, 8, validation)
        kept = len(surface.levels)
        assert kept <= 8
        if len(history) > kept:  # truncated: the next level was worse
            assert history[kept] > history[kept - 1]
        for a, b in zip(history[: kept - 1], history[1:kept]):
            assert b <= a

    def test_training_residual_norm_non_increasing_on_hemisphere(self):
        cloud = hemisphere_cloud(2000, seed=6)
        validation = hemisphere_cloud(500, seed=7)
        surface, _ = fit_mba(cloud, 4, validation)
        norms = []
        pred = np.zeros(cloud.shape[0])
        for level in surface.levels:
            pred += level.evaluate_many(cloud[:, 0], cloud[:, 1])
            norms.append(float(np.mean((cloud[:, 2] - pred) ** 2)))
        assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))

    def test_coefficient_budget_stops_a_noise_free_fit(self):
        # without noise the validation error keeps falling, so only the
        # budget stops the levels short of a 16384 x 16384 mesh at level 14
        cloud = hemisphere_cloud(2000, seed=6)
        validation = hemisphere_cloud(500, seed=7)
        started = time.perf_counter()
        surface, history = fit_mba(cloud, 15, validation)
        assert time.perf_counter() - started < 1.0
        assert all(b < a for a, b in zip(history, history[1:]))
        kept = len(surface.levels)
        assert kept == len(history) < 15
        for level in surface.levels:
            nx, ny = level.space.shape
            assert nx * ny <= cloud.shape[0]
        nx, ny = dyadic_space((2, 2), (0, 1, 0, 1), kept).shape
        assert nx * ny > cloud.shape[0]

    def test_budget_keeps_the_first_level(self):
        # four points cannot determine the nine level-0 coefficients, but a
        # surface needs a level
        cloud = hemisphere_cloud(4, seed=1)
        surface, history = fit_mba(cloud, 5, cloud)
        assert len(surface.levels) == len(history) == 1

    def test_invalid_max_levels(self):
        cloud = hemisphere_cloud(10, seed=0)
        with pytest.raises(ValueError):
            fit_mba(cloud, 0, cloud)
