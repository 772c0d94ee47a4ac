"""Tests for the multilevel B-spline baseline."""

import time
import tracemalloc
from math import sqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import mba_level_count, reference_fit_mba, reference_level_coefficients, reference_value
from wqisa import mba, pipeline, splines
from wqisa.clouds import joint_bounding_box
from wqisa.mba import fit_mba, mba_level_coefficients
from wqisa.splines import TensorSplineSpace, WqisaSurface, tensor_rows
from wqisa.synthetic import hemisphere_cloud, perturb
from wqisa.weights import fit_surface  # noqa: F401  (namespace sanity)

UNIT_SQUARE = (0.0, 1.0, 0.0, 1.0)


def bilinear_unit_space() -> TensorSplineSpace:
    return TensorSplineSpace.uniform((1, 1), (0.0, 1.0, 0.0, 1.0), 1)


def level_coefficients(cloud: np.ndarray, space: TensorSplineSpace) -> np.ndarray:
    """The level coefficients of *cloud*'s heights from its rows on *space*."""
    return mba_level_coefficients(tensor_rows(space, cloud[:, 0], cloud[:, 1]), cloud[:, 2])


class TestLevelCoefficients:
    def test_single_point_at_interpolatory_corner(self):
        # at the (0, 0) corner exactly one bilinear basis function is 1
        cloud = np.array([[0.0, 0.0, 4.25]])
        grid = level_coefficients(cloud, bilinear_unit_space())
        np.testing.assert_array_equal(grid, [[4.25, 0.0], [0.0, 0.0]])

    def test_zero_cloud_gives_zero_grid(self):
        rng = np.random.default_rng(0)
        cloud = np.column_stack([rng.uniform(0, 1, size=(20, 2)), np.zeros(20)])
        grid = level_coefficients(cloud, TensorSplineSpace.uniform((2, 2), (0, 1, 0, 1), 4))
        np.testing.assert_array_equal(grid, 0.0)

    def test_two_point_bilinear_hand_oracle(self):
        pts = np.array([[0.25, 0.5, 2.0], [0.75, 0.25, -1.0]])
        grid = level_coefficients(pts, bilinear_unit_space())

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
        space = TensorSplineSpace.uniform((2, 2), (0, 1, 0, 1), 1)
        surface = WqisaSurface(space, level_coefficients(cloud, space))
        assert surface.evaluate(0.37, 0.61) == pytest.approx(1.5, abs=1e-12)

    def test_untouched_supports_stay_zero(self):
        # all data in one corner: far-away basis functions keep coefficient 0
        cloud = np.column_stack([np.full(5, 0.05), np.full(5, 0.05), np.arange(5.0) + 1])
        space = TensorSplineSpace.uniform((2, 2), (0, 1, 0, 1), 8)
        grid = level_coefficients(cloud, space)
        assert np.all(grid[4:, :] == 0.0)
        assert np.all(grid[:, 4:] == 0.0)
        assert grid[0, 0] != 0.0

    @pytest.mark.parametrize(
        "z, message",
        [(np.ones(4), r"^z must hold one height per point, shape \(5,\), got shape \(4,\)$"),
         (np.ones((5, 1)), r"^z must hold one height per point, shape \(5,\), got shape \(5, 1\)$"),
         ([1.0, 2.0, np.nan, 4.0, 5.0], r"^z must be finite$"),
         ([1.0, 2.0, 3.0, -np.inf, 5.0], r"^z must be finite$")],
        ids=["short", "2-d", "nan", "inf"],
    )
    def test_bad_heights_are_refused_naming_z(self, z, message):
        rows = tensor_rows(bilinear_unit_space(), np.linspace(0, 1, 5), np.linspace(1, 0, 5))
        with pytest.raises(ValueError, match=message):
            mba_level_coefficients(rows, z)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(degrees=st.sampled_from([(0, 0), (1, 1), (2, 2), (3, 2)]), elements=st.integers(1, 5),
           data=st.data())
    def test_level_sums_add_slot_by_slot_then_point_by_point(self, degrees, elements, data):
        # a few points on a mesh of up to 25 elements leave supports empty;
        # coordinates drawn from the knots put points on element edges, and
        # repeated rows give a coefficient equal terms in a row
        space = TensorSplineSpace.uniform(degrees, UNIT_SQUARE, elements)
        coordinate = st.one_of(st.floats(0.0, 1.0), st.sampled_from(space.knots_x.breakpoints.tolist()))
        point = st.tuples(coordinate, coordinate, st.floats(-5.0, 5.0))
        points = data.draw(st.lists(point, min_size=1, max_size=20))
        repeats = data.draw(st.lists(st.sampled_from(range(len(points))), max_size=4))
        cloud = np.array(points + [points[i] for i in repeats])
        rows = tensor_rows(space, cloud[:, 0], cloud[:, 1])
        expected = reference_level_coefficients(rows, cloud[:, 2])
        assert mba_level_coefficients(rows, cloud[:, 2]).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("degrees", [(2, 2), (3, 3)])
    def test_level_sums_take_a_few_floats_a_point(self, degrees):
        # the slot loop holds a few point-length arrays at a time; arrays
        # with a slot axis and a point axis took 37 and 65 floats a point
        cloud = perturb(hemisphere_cloud(5000, 1), noise_std=0.05, seed=2)
        rows = tensor_rows(TensorSplineSpace.uniform(degrees, UNIT_SQUARE, 8), cloud[:, 0], cloud[:, 1])
        mba_level_coefficients(rows, cloud[:, 2])  # numpy's first-call allocations
        tracemalloc.start()
        try:
            mba_level_coefficients(rows, cloud[:, 2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 8 * len(cloud)


class TestFitMba:
    def test_dyadic_element_counts(self):
        for lev in range(4):
            space = TensorSplineSpace.uniform((2, 2), (0, 1, 0, 1), 2**lev)
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
        kept = mba_level_count(surface)
        assert kept <= 8
        if len(history) > kept:  # truncated: the next level was worse
            assert history[kept] > history[kept - 1]
        for a, b in zip(history[: kept - 1], history[1:kept]):
            assert b <= a

    def test_training_residual_norm_non_increasing_on_hemisphere(self):
        # the fit of L levels is the fit of L - 1 levels plus one more
        cloud = hemisphere_cloud(2000, seed=6)
        validation = hemisphere_cloud(500, seed=7)
        norms = []
        for levels in range(1, 5):
            surface, _ = fit_mba(cloud, levels, validation)
            norms.append(float(np.mean((cloud[:, 2] - surface.evaluate_many(cloud[:, 0], cloud[:, 1])) ** 2)))
        assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))

    def test_stagnation_keeps_the_level_and_stops(self):
        # on a flat cloud every level scores 0, which is no improvement on 0
        rng = np.random.default_rng(8)
        cloud = np.column_stack([rng.uniform(0, 1, size=(200, 2)), np.zeros(200)])
        validation = np.column_stack([rng.uniform(0, 1, size=(50, 2)), np.zeros(50)])
        surface, history = fit_mba(cloud, 8, validation)
        assert mba_level_count(surface) == len(history) == 2
        assert history == [0.0, 0.0]

    def test_coefficient_budget_stops_a_noise_free_fit(self):
        # without noise the validation error keeps falling, so only the
        # budget stops the levels short of a 16384 x 16384 mesh at level 14
        cloud = hemisphere_cloud(2000, seed=6)
        validation = hemisphere_cloud(500, seed=7)
        started = time.perf_counter()
        surface, history = fit_mba(cloud, 15, validation)
        assert time.perf_counter() - started < 1.0
        assert all(b < a for a, b in zip(history, history[1:]))
        kept = mba_level_count(surface)
        assert kept == len(history) < 15
        # the kept levels' meshes grow, so the last holds the most coefficients
        nx, ny = surface.space.shape
        assert nx * ny <= cloud.shape[0]
        nx, ny = TensorSplineSpace.uniform((2, 2), (0, 1, 0, 1), 2**kept).shape
        assert nx * ny > cloud.shape[0]

    def test_budget_keeps_the_first_level(self):
        # four points cannot determine the nine level-0 coefficients, but a
        # surface needs a level
        cloud = hemisphere_cloud(4, seed=1)
        surface, history = fit_mba(cloud, 5, cloud)
        assert mba_level_count(surface) == len(history) == 1

    def test_each_level_builds_the_training_rows_once(self, monkeypatch):
        # the rows of a level give both its coefficients and the residual
        # the next level fits; the validation points are evaluated apart
        cloud = hemisphere_cloud(2000, seed=6)
        validation = hemisphere_cloud(500, seed=7)
        built = []

        def recording(space, xs, ys):
            training = np.array_equal(xs, cloud[:, 0]) and np.array_equal(ys, cloud[:, 1])
            built.append((space.element_counts, training))
            return tensor_rows(space, xs, ys)

        monkeypatch.setattr(mba, "tensor_rows", recording)
        _, history = fit_mba(cloud, 4, validation)
        assert built == [((2**level, 2**level), True) for level in range(len(history))]

    @pytest.mark.parametrize("degrees", [(2, 2), (3, 3)])
    def test_a_fit_takes_a_bounded_number_of_floats_a_training_point(self, degrees):
        # a level's rows, their slot sums and the validation values: the
        # level sums' slot-by-point arrays took the fit to 46 and 76
        cloud = perturb(hemisphere_cloud(5000, 1), noise_std=0.05, seed=2)
        validation = perturb(hemisphere_cloud(2500, 3), noise_std=0.05, seed=4)
        fit_mba(cloud, 2, validation, degrees, UNIT_SQUARE)  # numpy's first-call allocations
        tracemalloc.start()
        try:
            fit_mba(cloud, 15, validation, degrees, UNIT_SQUARE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 42 * 8 * len(cloud)

    def test_invalid_max_levels(self):
        cloud = hemisphere_cloud(10, seed=0)
        with pytest.raises(ValueError):
            fit_mba(cloud, 0, cloud)

    def test_the_levels_are_refined_without_insert_knot(self, monkeypatch):
        # the benchmark's tracer counts pipeline.insert_knot as the WQISA
        # loop's knot insertions, so MBA's refinement must not call it
        def refused(*args):
            raise AssertionError("insert_knot called")

        monkeypatch.setattr(pipeline, "insert_knot", refused)
        monkeypatch.setattr(splines, "insert_knot", refused)
        surface, history = fit_mba(hemisphere_cloud(2000, seed=6), 4, hemisphere_cloud(500, seed=7))
        assert mba_level_count(surface) == len(history) == 4


MBA_DEGREES = [(0, 0), (1, 1), (2, 2), (3, 2)]
# a collapsed value and its reference level sum agree within this many ulps
# of the largest height, for every cloud and degree
REFERENCE_ULPS = 16


def assert_fit_matches_reference(cloud, max_levels, validation, degrees):
    """``fit_mba`` against ``reference_fit_mba``: the same kept levels, the
    history within the rounding that values within the bound allow, and the
    collapsed surface within the bound of the reference level sum at the
    points, the corners and the finest mesh's knots."""
    surface, history = fit_mba(cloud, max_levels, validation, degrees)
    levels, expected = reference_fit_mba(cloud, max_levels, validation, degrees,
                                         joint_bounding_box(cloud, validation))
    assert mba_level_count(surface) == len(levels)
    assert surface.space.element_counts == levels[-1][0].element_counts
    assert len(history) == len(expected)
    eps = np.finfo(float).eps
    tol = REFERENCE_ULPS * eps * np.abs(np.concatenate([cloud[:, 2], validation[:, 2]])).max()
    # values within tol move a mean square e**2 by at most tol * (2 * |e| + tol)
    for got, want in zip(history, expected):
        assert abs(got - want) <= tol * (2.0 * sqrt(want) + tol) + 4.0 * eps * want, (history, expected)
    x0, x1, y0, y1 = surface.space.domain
    knots_x, knots_y = surface.space.knots_x.breakpoints, surface.space.knots_y.breakpoints
    points = np.vstack([cloud[:, :2], validation[:, :2], [[x0, y0], [x0, y1], [x1, y0], [x1, y1]],
                        np.column_stack([knots_x, np.resize(knots_y, knots_x.size)])])
    reference = [sum(reference_value(space, grid, x, y) for space, grid in levels) for x, y in points.tolist()]
    assert np.abs(surface.evaluate_many(points[:, 0], points[:, 1]) - reference).max() <= tol
    return history


class TestFitMbaAgainstReference:
    """The collapsed fit against the level loop written from its definitions."""

    @pytest.mark.parametrize("degrees", MBA_DEGREES)
    def test_a_rejected_level_is_scored_but_not_kept(self, degrees):
        cloud, validation = perturb(hemisphere_cloud(300, 4), noise_std=0.3, seed=5), hemisphere_cloud(100, 6)
        history = assert_fit_matches_reference(cloud, 8, validation, degrees)
        assert history[-1] > history[-2]

    @pytest.mark.parametrize("degrees", MBA_DEGREES)
    def test_the_budget_stops_a_noise_free_fit(self, degrees):
        cloud, validation = hemisphere_cloud(200, 6), hemisphere_cloud(60, 7)
        history = assert_fit_matches_reference(cloud, 8, validation, degrees)
        assert len(history) >= 3 and all(b < a for a, b in zip(history, history[1:]))
        nx, ny = TensorSplineSpace.uniform(degrees, UNIT_SQUARE, 2 ** len(history)).shape
        assert nx * ny > len(cloud)

    @pytest.mark.parametrize("degrees", MBA_DEGREES)
    def test_stagnation_keeps_the_level_and_stops(self, degrees):
        # on a flat cloud every level scores 0, which is no improvement on 0
        rng = np.random.default_rng(12)
        cloud = np.column_stack([rng.uniform(0, 1, size=(80, 2)), np.zeros(80)])
        validation = np.column_stack([rng.uniform(0, 1, size=(30, 2)), np.zeros(30)])
        assert assert_fit_matches_reference(cloud, 8, validation, degrees) == [0.0, 0.0]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(degrees=st.sampled_from(MBA_DEGREES), max_levels=st.integers(1, 6), n=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1), snapped=st.booleans(),
           kind=st.sampled_from(["noise", "smooth", "constant"]), noise_std=st.sampled_from([0.0, 0.05, 0.3]))
    def test_hypothesis_clouds(self, degrees, max_levels, n, seed, snapped, kind, noise_std):
        # coordinates snapped to a quarter grid put points on knots and stack
        # duplicates; heights are noise, a smooth surface or one value
        rng = np.random.default_rng(seed)
        xy = rng.uniform(-1.0, 2.0, size=(n + n // 3 + 1, 2))
        if snapped:
            xy = np.round(xy * 4.0) / 4.0
        assume(all(np.ptp(xy, axis=0) >= 0.5))
        z = {"noise": rng.uniform(-5.0, 5.0, len(xy)),
             "smooth": np.sin(2.0 * xy[:, 0]) * np.cos(xy[:, 1]),
             "constant": np.full(len(xy), 2.5)}[kind] + rng.normal(0.0, noise_std, len(xy))
        cloud = np.column_stack([xy, z])
        assert_fit_matches_reference(cloud[:n], max_levels, cloud[n:], degrees)
