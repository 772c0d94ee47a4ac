"""Tests for weight functions and the control-point estimator."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqisa import weights
from wqisa.kdtree import PlanarIndex
from wqisa.splines import KnotVector, TensorSplineSpace, knot_average_grid, knot_averages
from wqisa.weights import (
    NeighbourTable,
    WeightSpec,
    ZeroWeightError,
    estimate_control_point,
    fit_surface,
)

from oracles import (
    brute_estimate,
    brute_knn_ids,
    brute_radius_ids,
    random_cloud,
    reference_tukey_fences,
)


class TestWeightSpec:
    def test_missing_parameter_rejected(self):
        with pytest.raises(ValueError, match="requires parameter"):
            WeightSpec(kind="knn")

    def test_extraneous_parameter_rejected(self):
        with pytest.raises(ValueError, match="does not apply"):
            WeightSpec(kind="knn", k=3, radius=1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown weight kind"):
            WeightSpec(kind="voronoi")

    def test_positivity_checks(self):
        with pytest.raises(ValueError):
            WeightSpec.indicator(0.0)
        # 2 * sigma**2 underflows to 0 at 1e-162, so every weight would be exp(-d / 0)
        for sigma in (-1.0, 1e-162):
            with pytest.raises(ValueError, match="^sigma must be positive, with 2 \\* sigma\\*\\*2 > 0"):
                WeightSpec.gaussian(sigma)
        with pytest.raises(ValueError):
            WeightSpec.knn(0)
        for bad in (WeightSpec.knn, WeightSpec.truncated_idw):
            for value in (2.5, True):
                with pytest.raises(ValueError, match="must be an integer >= 1"):
                    bad(value)
            assert bad(np.int64(3)).parameter == 3
        # NaN fails every comparison, so it must not slip past a `< 0` test
        for value in (-1.0, np.nan):
            with pytest.raises(ValueError, match="fence multiplier"):
                WeightSpec.knn(3, outlier_filter=True, fence=value)
            with pytest.raises(ValueError, match="^coincidence_tol must be nonnegative"):
                WeightSpec.idw(coincidence_tol=value)
            with pytest.raises(ValueError, match="^coincidence_tol must be nonnegative"):
                WeightSpec.truncated_idw(5, coincidence_tol=value)
        # in a window of equal heights q1 - inf * 0 is NaN, which rejects every height
        with pytest.raises(ValueError, match="^fence multiplier must be finite and nonnegative"):
            WeightSpec.knn(3, outlier_filter=True, fence=np.inf)

    @pytest.mark.parametrize("squared", [False, True])
    def test_a_tiny_sigma_weighs_only_the_centre(self, squared):
        # off the centre the kernel's quotient overflows to inf, whose weight
        # is 0; the overflow is expected and must raise no RuntimeWarning
        cloud = np.array([[0.0, 0.0, 1.0], [0.5, 0.5, 3.0], [1.0, 1.0, 5.0]])
        assert estimate_control_point(cloud, 0.5, 0.5, WeightSpec.gaussian(1e-160, squared=squared)) == 3.0

    def test_parameter_property(self):
        assert WeightSpec.knn(4).parameter == 4
        assert WeightSpec.indicator(0.5).parameter == 0.5
        assert WeightSpec.idw().parameter is None


def covers(point, query, spec) -> bool:
    """Whether a one-point cloud at *point* gets positive weight at *query*."""
    cloud = np.array([[point[0], point[1], 1.0]])
    try:
        estimate_control_point(cloud, query[0], query[1], spec)
    except ZeroWeightError:
        return False
    return True


def far_weight(d, spec) -> float:
    """Weight at distance *d* relative to the weight at distance 0.

    A height-0 point sits at the window center and a height-1 point at
    distance *d*, so the estimate is ``w(d) / (w(0) + w(d))``.
    """
    cloud = np.array([[0.0, 0.0, 0.0], [d, 0.0, 1.0]])
    estimate = estimate_control_point(cloud, 0.0, 0.0, spec)
    return estimate / (1.0 - estimate)


class TestWeightFunctions:
    """Each window kernel, observed through the estimator on tiny clouds."""

    def test_indicator_zero_distance(self):
        assert covers((0.0, 0.0), (0.0, 0.0), WeightSpec.indicator(1.0))

    def test_indicator_pythagorean_boundary(self):
        # the ball is closed: (3, 4) lies exactly on the radius-5 circle
        assert covers((3.0, 4.0), (0.0, 0.0), WeightSpec.indicator(5.0))
        assert not covers((3.0, 4.0), (0.0, 0.0), WeightSpec.indicator(4.9))

    def test_indicator_symmetric(self):
        rng = np.random.default_rng(1)
        for x, y, u, v in rng.uniform(-3, 3, size=(25, 4)):
            spec = WeightSpec.indicator(rng.uniform(0.1, 4.0))
            assert covers((x, y), (u, v), spec) == covers((u, v), (x, y), spec)

    def test_gaussian_coincident(self):
        # one coincident point of weight 1 and another at a distance of 1
        cloud = np.array([[1.0, 2.0, 0.0], [2.0, 2.0, 1.0]])
        got = estimate_control_point(cloud, 1.0, 2.0, WeightSpec.gaussian(0.7))
        w = np.exp(-1.0 / (2 * 0.7 * 0.7))
        assert got == pytest.approx(w / (1.0 + w), rel=1e-14)

    def test_gaussian_characteristic_distance(self):
        # at planar distance 2*sigma^2 the printed exponent is exactly -1
        for sigma in (0.3, 1.0, 2.5):
            d = 2.0 * sigma * sigma
            assert far_weight(d, WeightSpec.gaussian(sigma)) == pytest.approx(np.exp(-1.0), rel=1e-14)

    def test_gaussian_strictly_decreasing(self):
        spec = WeightSpec.gaussian(0.8)
        values = [far_weight(d, spec) for d in np.linspace(0, 4, 30)]
        assert np.all(np.diff(values) < 0)

    def test_gaussian_squared_variant(self):
        d = 1.7
        sigma = 0.9
        expected = np.exp(-(d * d) / (2 * sigma * sigma))
        got = far_weight(d, WeightSpec.gaussian(sigma, squared=True))
        assert got == pytest.approx(expected, rel=1e-14)

    def test_knn_all_points(self):
        cloud = random_cloud(np.random.default_rng(2), 12)
        got = estimate_control_point(cloud, 0.0, 0.0, WeightSpec.knn(12))
        assert got == pytest.approx(cloud[:, 2].mean(), rel=1e-14)

    def test_knn_unique_nearest(self):
        cloud = np.array([[0, 0, 1.0], [5, 5, 2.0], [9, 9, 3.0]])
        assert estimate_control_point(cloud, 0.1, 0.0, WeightSpec.knn(1)) == 1.0

    def test_knn_ties_keep_lower_ids(self):
        # four points at identical distance from the center
        cloud = np.array([[1.0, 0, 10.0], [0, 1.0, 20.0], [-1.0, 0, 30.0], [0, -1.0, 40.0]])
        assert estimate_control_point(cloud, 0.0, 0.0, WeightSpec.knn(1)) == 10.0
        assert estimate_control_point(cloud, 0.0, 0.0, WeightSpec.knn(2)) == 15.0
        assert estimate_control_point(cloud, 0.0, 0.0, WeightSpec.knn(3)) == 20.0

    def test_knn_collinear_end_query(self):
        cloud = np.column_stack([np.arange(5.0), np.zeros(5), np.arange(5.0)])
        assert estimate_control_point(cloud, 0.0, 0.0, WeightSpec.knn(2)) == 0.5

    def test_knn_weights_sum_to_one(self):
        # equal weights, 1/k once normalised: the estimate is the plain mean of the k nearest
        rng = np.random.default_rng(3)
        cloud = random_cloud(rng, 40)
        for k in (1, 5, 17, 40):
            u, v = rng.uniform(-2, 2, size=2)
            nearest = cloud[brute_knn_ids(cloud, u, v, k), 2]
            got = estimate_control_point(cloud, u, v, WeightSpec.knn(k))
            assert got == pytest.approx(nearest.mean(), rel=1e-12, abs=1e-12)

    def test_knn_k_out_of_range(self):
        cloud = random_cloud(np.random.default_rng(4), 5)
        with pytest.raises(ZeroWeightError, match="exceeds cloud size"):
            estimate_control_point(cloud, 0.0, 0.0, WeightSpec.knn(6))
        with pytest.raises(ValueError, match="^k must be an integer >= 1, got 0$"):
            WeightSpec.knn(0)

    def test_idw_reciprocal_distance(self):
        cloud = np.array([[2.0, 0.0, 1.0], [5.0, 5.0, 2.0]])
        w1, w2 = 1.0 / 2.0, 1.0 / np.sqrt(50.0)
        got = estimate_control_point(cloud, 0.0, 0.0, WeightSpec.idw(coincidence_tol=0.0))
        assert got == pytest.approx((w1 * 1.0 + w2 * 2.0) / (w1 + w2), rel=1e-15)

    def test_idw_coincident_points_share_weight(self):
        # the three coincident points share the weight equally, the far one gets 0
        cloud = np.array([[1, 1, 0.0], [1, 1, 2.0], [1, 1, 4.0], [3, 3, 9.0]])
        for spec in (WeightSpec.idw(1e-9), WeightSpec.truncated_idw(4, 1e-9)):
            assert estimate_control_point(cloud, 1.0, 1.0, spec) == pytest.approx(2.0, rel=1e-15)


class TestEstimateControlPoint:
    def test_weighted_mean_of_constant(self):
        cloud = random_cloud(np.random.default_rng(5), 30)
        cloud[:, 2] = 5.0
        for spec in (
            WeightSpec.knn(7),
            WeightSpec.gaussian(0.5),
            WeightSpec.idw(),
            WeightSpec.indicator(100.0),
        ):
            assert estimate_control_point(cloud, 0.2, 0.3, spec) == 5.0

    def test_knn_full_neighborhood_is_mean(self):
        rng = np.random.default_rng(6)
        cloud = random_cloud(rng, 20)
        got = estimate_control_point(cloud, 1.0, -1.0, WeightSpec.knn(20))
        assert got == pytest.approx(cloud[:, 2].mean(), rel=1e-14)

    def test_indicator_selects_single_point(self):
        cloud = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 3.0]])
        got = estimate_control_point(cloud, 0.0, 0.0, WeightSpec.indicator(0.5))
        assert got == 1.0

    def test_zero_weight_reported(self):
        cloud = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 3.0]])
        with pytest.raises(ZeroWeightError):
            estimate_control_point(cloud, 10.0, 10.0, WeightSpec.indicator(0.5))

    def test_estimate_within_contributing_range(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            cloud = random_cloud(rng, int(rng.integers(3, 60)), dupes=True)
            u, v = rng.uniform(-6, 6, size=2)
            spec = WeightSpec.knn(int(rng.integers(1, cloud.shape[0] + 1)))
            value = estimate_control_point(cloud, u, v, spec)
            assert cloud[:, 2].min() <= value <= cloud[:, 2].max()

    def test_translation_equivariance(self):
        rng = np.random.default_rng(8)
        cloud = random_cloud(rng, 50)
        shifted = cloud.copy()
        shifted[:, 2] += 11.25
        for spec in (WeightSpec.knn(5), WeightSpec.gaussian(0.4), WeightSpec.idw()):
            base = estimate_control_point(cloud, 0.5, 0.5, spec)
            moved = estimate_control_point(shifted, 0.5, 0.5, spec)
            assert moved == pytest.approx(base + 11.25, rel=1e-12)

    def test_outlier_filter_drops_spike(self):
        # nine agreeing heights and one wild spike inside the neighborhood
        rng = np.random.default_rng(9)
        xy = rng.uniform(0, 1, size=(10, 2))
        z = np.full(10, 2.0) + rng.normal(0, 0.01, size=10)
        z[4] = 500.0
        cloud = np.column_stack([xy, z])
        plain = estimate_control_point(cloud, 0.5, 0.5, WeightSpec.knn(10))
        filtered = estimate_control_point(cloud, 0.5, 0.5, WeightSpec.knn(10, outlier_filter=True))
        assert abs(plain - 2.0) > 10
        assert filtered == pytest.approx(2.0, abs=0.05)

    def test_filter_fallback_warns(self):
        # fence 0 with two distinct heights rejects both quartile outliers
        cloud = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [9, 9, 5.0]])
        spec = WeightSpec.knn(2, outlier_filter=True, fence=0.0)
        with pytest.warns(RuntimeWarning, match="rejected every"):
            got = estimate_control_point(cloud, 0.0, 0.0, spec)
        assert got == pytest.approx(0.5)

    def test_a_huge_fence_keeps_every_height(self):
        # fence * IQR overflows to inf, a fence beyond every height; the
        # overflow must raise no RuntimeWarning
        cloud = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 10.0], [0.0, 1.0, 20.0], [1.0, 1.0, 30.0]])
        spec = WeightSpec.knn(4, outlier_filter=True, fence=1e308)
        assert estimate_control_point(cloud, 0.5, 0.5, spec) == 15.0

    def test_fence_zero_keeps_the_quartiles_of_heights_that_span_the_float_range(self):
        # q3 - q1 = 2e308 overflows; taken in halves, fence 0 keeps [q1, q3],
        # here every height, with no overflow, NaN fence or fallback warning
        cloud = np.array([[0.0, 0.0, -1e308], [1.0, 0.0, -1e308], [0.0, 1.0, 1e308], [1.0, 1.0, 1e308]])
        spec = WeightSpec.knn(4, outlier_filter=True, fence=0.0)
        assert estimate_control_point(cloud, 0.5, 0.5, spec) == 0.0

    def test_quartiles_of_two_heights_that_span_the_float_range(self):
        # the gap the quartiles interpolate across, 2e308, overflows
        cloud = np.array([[0.0, 0.0, -1e308], [1.0, 1.0, 1e308]])
        spec = WeightSpec.knn(2, outlier_filter=True)
        assert estimate_control_point(cloud, 0.5, 0.5, spec) == 0.0

    @pytest.mark.parametrize("u, v", [(np.inf, 0.5), (0.5, np.nan)])
    @pytest.mark.parametrize(
        "spec",
        [
            WeightSpec.indicator(0.5),
            WeightSpec.gaussian(0.5),
            WeightSpec.knn(3),
            WeightSpec.idw(),
            WeightSpec.truncated_idw(3),
        ],
        ids=lambda spec: spec.kind,
    )
    def test_non_finite_centre_rejected(self, spec, u, v):
        cloud = random_cloud(np.random.default_rng(14), 40)
        with pytest.raises(ValueError, match="finite"):
            estimate_control_point(cloud, u, v, spec)

    @pytest.mark.parametrize(
        "spec",
        [
            WeightSpec.indicator(0.5),
            WeightSpec.gaussian(0.5),
            WeightSpec.knn(3),
            WeightSpec.idw(),
            WeightSpec.truncated_idw(3),
        ],
        ids=lambda spec: spec.kind,
    )
    def test_far_centre_rejected_by_the_table(self, spec):
        cloud = random_cloud(np.random.default_rng(14), 40)
        with pytest.raises(ValueError, match=r"query point \(1e\+200, 0\.5\) is too far"):
            NeighbourTable(cloud, [(0.0, 0.0), (1e200, 0.5)], [spec])

    def test_knn_matches_brute_force_bit_for_bit(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            cloud = random_cloud(rng, int(rng.integers(2, 51)), dupes=True)
            u, v = rng.uniform(-6, 6, size=2)
            k = int(rng.integers(1, cloud.shape[0] + 1))
            spec = WeightSpec.knn(k)
            assert estimate_control_point(cloud, u, v, spec) == brute_estimate(cloud, u, v, spec)


class TestEstimateAllCoefficients:
    """The full coefficient grid, as ``fit_surface`` estimates it."""

    def test_constant_cloud_constant_grid(self):
        cloud = random_cloud(np.random.default_rng(11), 25)
        cloud[:, 2] = -3.5
        space = TensorSplineSpace(
            KnotVector.uniform_open(2, 2, cloud[:, 0].min(), cloud[:, 0].max()),
            KnotVector.uniform_open(2, 3, cloud[:, 1].min(), cloud[:, 1].max()),
        )
        grid = fit_surface(cloud, space, WeightSpec.knn(4)).coefficients
        np.testing.assert_array_equal(grid, np.full(space.shape, -3.5))

    def test_single_element_full_knn_is_cloud_mean(self):
        cloud = random_cloud(np.random.default_rng(12), 15)
        space = TensorSplineSpace.uniform(
            (2, 2), (cloud[:, 0].min(), cloud[:, 0].max(), cloud[:, 1].min(), cloud[:, 1].max()), 1
        )
        grid = fit_surface(cloud, space, WeightSpec.knn(15)).coefficients
        np.testing.assert_allclose(grid, cloud[:, 2].mean(), rtol=1e-14)

    def test_one_nearest_picks_nearest_sample(self):
        # 2x2 coefficient grid (bilinear single element); averages sit at corners
        cloud = np.array(
            [[0.05, 0.05, 1.0], [0.95, 0.1, 2.0], [0.0, 0.9, 3.0], [1.0, 1.0, 4.0]]
        )
        space = TensorSplineSpace.uniform((1, 1), (0, 1, 0, 1), 1)
        grid = fit_surface(cloud, space, WeightSpec.knn(1)).coefficients
        np.testing.assert_array_equal(grid, [[1.0, 3.0], [2.0, 4.0]])

    def test_zero_weight_names_offending_entry(self):
        cloud = np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 2.0]])
        space = TensorSplineSpace.uniform((1, 1), (0, 1, 0, 1), 1)
        with pytest.raises(ZeroWeightError, match=r"\(i=0, j=1\)"):
            fit_surface(cloud, space, WeightSpec.indicator(0.05))

    @pytest.mark.parametrize("n", [1000, 5000])
    def test_indexed_kinds_match_brute_force(self, n):
        # a k-d tree serves the neighbor queries of these kinds at every
        # cloud size; the estimates must equal a full scan's bit for bit
        rng = np.random.default_rng(13)
        cloud = random_cloud(rng, n)
        bbox = (cloud[:, 0].min(), cloud[:, 0].max(), cloud[:, 1].min(), cloud[:, 1].max())
        space = TensorSplineSpace.uniform((2, 2), bbox, 1)
        for spec in (WeightSpec.knn(3), WeightSpec.indicator(0.8), WeightSpec.truncated_idw(40)):
            grid = fit_surface(cloud, space, spec).coefficients
            for i, u in enumerate(knot_averages(space.knots_x)):
                for j, v in enumerate(knot_averages(space.knots_y)):
                    assert grid[i, j] == brute_estimate(cloud, u, v, spec)


def _mesh(cloud, nx, ny):
    """Degree-2 space over the cloud's box with nx x ny uniform elements."""
    return TensorSplineSpace(
        KnotVector.piecewise_bezier(2, np.linspace(cloud[:, 0].min(), cloud[:, 0].max(), nx + 1)),
        KnotVector.piecewise_bezier(2, np.linspace(cloud[:, 1].min(), cloud[:, 1].max(), ny + 1)),
    )


class TestSharedNeighbourTable:
    """One table serves a whole weight grid; each entry's coefficients must
    be the ones a full scan gives for that entry alone."""

    GRIDS = {
        # 1000 exceeds the cloud: a knn entry to skip, a truncation to clip
        "knn": [WeightSpec.knn(k) for k in (1, 4, 9, 30, 1000)],
        "idw_truncated": [WeightSpec.truncated_idw(t) for t in (1, 7, 50, 1000)],
        # 1e-4 leaves some balls without a point
        "indicator": [WeightSpec.indicator(r) for r in (1e-4, 0.15, 0.4, 0.9)],
        "gaussian": [WeightSpec.gaussian(s) for s in (0.05, 0.3)],
        "idw": [WeightSpec.idw()],
    }

    @pytest.mark.parametrize("budget", [None, 50, 2000])
    @pytest.mark.parametrize("outlier_filter", [False, True])
    @pytest.mark.parametrize("kind", GRIDS)
    def test_every_coefficient_matches_brute_force(self, monkeypatch, kind, outlier_filter, budget):
        # a small budget makes the rows one (50) or several (2000) to a batch
        if budget is not None:
            monkeypatch.setattr(weights, "TABLE_BUDGET", budget)
        cloud = random_cloud(np.random.default_rng(14), 300, dupes=True)
        space = _mesh(cloud, 4, 3)
        centres = knot_average_grid(space)
        grid = [dataclasses.replace(spec, outlier_filter=outlier_filter) for spec in self.GRIDS[kind]]
        table = NeighbourTable(cloud, centres, grid)
        fitted = 0
        for spec in grid:
            expected = []
            for u, v in centres:
                try:
                    expected.append(brute_estimate(cloud, u, v, spec))
                except ValueError:
                    expected.append(None)
            if None in expected:
                i, j = divmod(expected.index(None), space.shape[1])
                with pytest.raises(ZeroWeightError, match=rf"^coefficient \(i={i}, j={j}\): "):
                    table.coefficients(spec, space.shape)
            else:
                got = table.coefficients(spec, space.shape)
                assert got.ravel().tolist() == expected
                fitted += 1
        assert fitted > 0

    @pytest.mark.parametrize("budget", [None, 50, 2000])
    @pytest.mark.parametrize("kind", GRIDS)
    def test_building_queries_each_centre_once(self, monkeypatch, kind, budget):
        # reading every entry afterwards queries nothing more
        if budget is not None:
            monkeypatch.setattr(weights, "TABLE_BUDGET", budget)
        cloud = random_cloud(np.random.default_rng(14), 300, dupes=True)
        space = _mesh(cloud, 4, 3)
        centres = knot_average_grid(space)
        queries = []
        for name in ("knn", "within_radius"):
            query = getattr(PlanarIndex, name)
            monkeypatch.setattr(
                PlanarIndex, name, lambda *args, query=query: queries.append(0) or query(*args)
            )
        table = NeighbourTable(cloud, centres, self.GRIDS[kind])
        for spec in self.GRIDS[kind]:
            try:
                table.coefficients(spec, space.shape)
            except ZeroWeightError:
                pass
        assert len(queries) == (len(centres) if weights.KERNELS[kind].indexed else 0)

    # fence 0 rejects both heights of a two-point window unless they are
    # equal; heights from {0, 1} make some windows fall back, not all
    @staticmethod
    def _binary_cloud() -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(15)
        cloud = random_cloud(rng, 200)
        cloud[:, 2] = rng.integers(0, 2, size=200)
        return cloud, knot_average_grid(_mesh(cloud, 5, 5))

    @staticmethod
    def _falls_back(heights: np.ndarray) -> bool:
        """Whether fence 0 rejects every height of a window."""
        if heights.size < 2:
            return False
        q1, q3 = np.percentile(heights, (25.0, 75.0))
        return not ((heights >= q1) & (heights <= q3)).any()

    @staticmethod
    def _build_counting_fallbacks(cloud, centres, grid) -> tuple[NeighbourTable, int]:
        """A table for *grid*, and the fallback warnings its building raised."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = NeighbourTable(cloud, centres, grid)
        assert {(w.category, str(w.message)) for w in caught} <= {
            (
                RuntimeWarning,
                "outlier filter rejected every contributing point; "
                "falling back to the unfiltered estimate",
            )
        }
        return table, len(caught)

    @pytest.mark.parametrize("budget", [None, 50])
    def test_fallback_warns_once_per_falling_back_coefficient(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(weights, "TABLE_BUDGET", budget)
        cloud, centres = self._binary_cloud()
        grid = [WeightSpec.knn(k, outlier_filter=True, fence=0.0) for k in (2, 3)]
        expected = [
            sum(self._falls_back(cloud[brute_knn_ids(cloud, u, v, spec.k), 2]) for u, v in centres)
            for spec in grid
        ]
        assert 0 < expected[0] < len(centres)
        assert self._build_counting_fallbacks(cloud, centres, grid)[1] == sum(expected)

    @pytest.mark.parametrize("budget", [None, 50])
    def test_an_empty_window_ends_a_specs_fallback_warnings(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(weights, "TABLE_BUDGET", budget)
        cloud, centres = self._binary_cloud()
        # the small ball is empty at some centre; the large one never is
        grid = [WeightSpec.indicator(r, outlier_filter=True, fence=0.0) for r in (0.06, 2.0)]
        small, large = (
            [cloud[brute_radius_ids(cloud, u, v, spec.radius), 2] for u, v in centres]
            for spec in grid
        )
        empty = [heights.size for heights in small].index(0)
        expected = [sum(map(self._falls_back, small[:empty])), sum(map(self._falls_back, large))]
        assert expected[0] > 0 and any(map(self._falls_back, small[empty:]))
        table, caught = self._build_counting_fallbacks(cloud, centres, grid)
        assert caught == sum(expected)
        assert table.estimates[grid[0]].row == empty
        assert table.estimates[grid[1]].shape == (len(centres),)

    def test_table_reads_only_its_own_grid(self):
        cloud = random_cloud(np.random.default_rng(16), 100)
        space = _mesh(cloud, 2, 2)
        table = NeighbourTable(cloud, knot_average_grid(space), [WeightSpec.knn(3), WeightSpec.knn(5)])
        table.coefficients(WeightSpec.knn(5), space.shape)
        for spec in (WeightSpec.knn(4), WeightSpec.knn(6), WeightSpec.truncated_idw(3), WeightSpec.idw()):
            message = f"the neighbour table was not built for {spec}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                table.coefficients(spec, space.shape)
        with pytest.raises(ValueError, match="one weight kind"):
            NeighbourTable(cloud, knot_average_grid(space), [WeightSpec.knn(3), WeightSpec.idw()])

    def test_a_given_index_must_index_the_cloud(self):
        cloud = random_cloud(np.random.default_rng(17), 100)
        space = _mesh(cloud, 2, 2)
        centres = knot_average_grid(space)
        grid = [WeightSpec.knn(3), WeightSpec.knn(5)]
        own = fit_surface(cloud, space, grid[1]).coefficients
        # an index sees only x and y, so other heights share it
        for points in (cloud, cloud * [1.0, 1.0, -2.0]):
            table = NeighbourTable(cloud, centres, grid, PlanarIndex(points))
            assert np.array_equal(table.coefficients(grid[1], space.shape), own)
        for points in (cloud[::-1], cloud[:-1], cloud + [1e-9, 0.0, 0.0]):
            with pytest.raises(ValueError, match="planar index was built over other points"):
                NeighbourTable(cloud, centres, grid, PlanarIndex(points))

    def test_coefficients_name_the_first_empty_window(self):
        cloud = random_cloud(np.random.default_rng(16), 100)
        space = _mesh(cloud, 3, 2)
        spec = WeightSpec.indicator(1e-9)
        table = NeighbourTable(cloud, knot_average_grid(space), [spec])
        with pytest.raises(ZeroWeightError) as raised:
            table.coefficients(spec, space.shape)
        with pytest.raises(ZeroWeightError, match=r"^coefficient \(i=0, j=0\): no point has positive weight"):
            fit_surface(cloud, space, spec)
        assert str(raised.value).startswith("coefficient (i=0, j=0): ")

    @pytest.mark.parametrize("centres", [np.empty((0, 2)), [], np.empty(0)])
    def test_no_centres_refused(self, centres):
        cloud = random_cloud(np.random.default_rng(16), 20)
        with pytest.raises(ValueError, match="^a neighbour table needs at least one window centre"):
            NeighbourTable(cloud, centres, [WeightSpec.knn(3)])


# heights that tie, zeros of both signs, the two least subnormals, and
# magnitudes from 1e-300 to 1e300
_HEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-323, 1.0, -1.0, 2.5, 1e-300, -1e-300, 1e300, -1e300]),
    st.builds(
        lambda sign, digits, exponent: sign * digits * 10.0**exponent,
        st.sampled_from([-1.0, 1.0]),
        st.floats(1.0, 9.999),
        st.integers(-300, 300),
    ),
)
# rows of one size (a single matrix) or of mixed sizes, 0 to 64 heights each
_SIZES = st.one_of(
    st.tuples(st.integers(2, 64), st.integers(1, 6)).map(lambda size_rows: [size_rows[0]] * size_rows[1]),
    st.lists(st.integers(0, 64), min_size=1, max_size=8),
)


class TestTukeyFences:
    """The fences' quartiles come from one sort per row size; the kept
    heights and the rejected rows must be those of ``np.percentile``."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        sizes=_SIZES,
        pool=st.lists(_HEIGHTS, min_size=1, max_size=12),
        fresh=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        fence=st.sampled_from([0.0, 0.5, 1.5, 3.0]),
    )
    def test_matches_the_percentile_oracle(self, sizes, pool, fresh, seed, fence):
        # heights from a small pool tie; a *fresh* share is drawn anew over
        # the whole 1e-300..1e300 range, so rows also hold distinct heights
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        z = rng.choice(np.array(pool), size=n)
        new = rng.random(n) < fresh
        z[new] = rng.choice([-1.0, 1.0], new.sum()) * rng.uniform(1, 10, new.sum()) * 10.0 ** rng.integers(
            -300, 301, new.sum()
        )
        starts = np.concatenate([[0], np.cumsum(sizes)]).astype(np.intp)
        # fences of heights near 1e300 overflow alike in both
        with np.errstate(over="ignore", invalid="ignore"):
            keep, rejected = weights._tukey_fences(z, starts, fence)
            want_keep, want_rejected = reference_tukey_fences(z, starts, fence)
        assert keep.tolist() == want_keep.tolist()
        assert rejected.tolist() == want_rejected.tolist()

    def test_past_the_middle_a_quartile_comes_down_from_the_upper_statistic(self):
        # half the step between the two least subnormals rounds to zero, so
        # the two forms of the interpolation give different quartiles here:
        # q1 = 5e-324 and q3 = 1e-323 as numpy gives them, not 0 and 5e-324
        z, starts = np.array([0.0, 5e-324, 1e-323]), np.array([0, 3])
        keep, rejected = weights._tukey_fences(z, starts, 0.0)
        assert keep.tolist() == reference_tukey_fences(z, starts, 0.0)[0].tolist() == [False, True, True]
        assert rejected.tolist() == [False]


class TestSummationAccuracy:
    """Each estimate against exact arithmetic, not against the oracle (which
    sums in the library's order).  Pairwise summation keeps the error of a
    sum of n terms within a multiple of log2(n) roundings (Higham, SIAM J.
    Sci. Comput. 1993), so the quotient must lie within
    ``8 ceil(log2 n) eps sum|z w| / sum w`` of ``fsum(z w) / fsum(w)``."""

    SIZES = (1, 2, 3, 8, 9, 100, 129, 1000, 5000)

    @staticmethod
    def _heights(rng, n):
        # mixed signs over six decades, plus pairs of large opposite heights
        z = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
        pairs = n // 2
        z[: 2 * pairs] += np.repeat(10.0 ** rng.uniform(6, 9, pairs), 2) * np.tile([1.0, -1.0], pairs)
        rng.shuffle(z)
        return z

    @pytest.mark.parametrize("outlier_filter", [False, True])
    @pytest.mark.parametrize("kind", weights.WEIGHT_KINDS)
    def test_estimate_is_within_the_pairwise_bound(self, kind, outlier_filter):
        rng = np.random.default_rng(18)
        for n in self.SIZES:
            xy = rng.uniform(0.0, 1.0, size=(n, 2))
            cloud = np.column_stack([xy, self._heights(rng, n)])
            u, v = rng.uniform(0.3, 0.7, size=2)
            # every window holds all n points
            spec = {
                "indicator": WeightSpec.indicator(2.0),
                "gaussian": WeightSpec.gaussian(0.5),
                "knn": WeightSpec.knn(n),
                "idw": WeightSpec.idw(),
                "idw_truncated": WeightSpec.truncated_idw(n),
            }[kind]
            spec = dataclasses.replace(spec, outlier_filter=outlier_filter)
            d = np.sqrt((cloud[:, 0] - u) ** 2 + (cloud[:, 1] - v) ** 2)
            w = {"indicator": np.ones(n), "knn": np.ones(n), "gaussian": np.exp(-d / 0.5)}.get(kind, 1.0 / d)
            z = cloud[:, 2]
            if outlier_filter and n > 1:
                q1, q3 = np.percentile(z, (25.0, 75.0))
                inside = (z >= q1 - 1.5 * (q3 - q1)) & (z <= q3 + 1.5 * (q3 - q1))
                z, w = z[inside], w[inside]
            zw = (z * w).tolist()
            den = math.fsum(w.tolist())
            exact = min(max(math.fsum(zw) / den, z.min()), z.max())
            bound = 8 * math.ceil(math.log2(z.size)) * np.finfo(float).eps * math.fsum(map(abs, zw)) / den
            got = estimate_control_point(cloud, u, v, spec)
            assert abs(got - exact) <= bound, (n, got, exact, bound)
