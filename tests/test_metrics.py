"""Tests for the evaluation measures."""

import tracemalloc

import numpy as np
import pytest

from wqisa import metrics
from wqisa.metrics import (
    ErrorStats,
    gmse,
    hausdorff,
    lmse,
    punctual_errors,
    surface_sample_points,
)
from wqisa.mba import MbaSurface, dyadic_space
from wqisa.splines import KnotVector, OutOfDomainError, TensorSplineSpace, WqisaSurface, insert_knot
from wqisa.synthetic import hemisphere_cloud, perturb
from wqisa.weights import WeightSpec, fit_surface

from oracles import brute_hausdorff, random_cloud, sample_lattice


def constant_surface(value: float, bbox=(0.0, 1.0, 0.0, 1.0)) -> WqisaSurface:
    space = TensorSplineSpace.single_element((2, 2), bbox)
    return WqisaSurface(space, np.full(space.shape, value))


def hemisphere_and_samples(n: int, elements: int) -> tuple[np.ndarray, np.ndarray]:
    """A noisy hemisphere cloud with outliers, and the lattice samples of a
    knn surface fitted to it on a fixed mesh."""
    cloud = perturb(hemisphere_cloud(n, seed=1), noise_std=0.05, outlier_fraction=0.02, seed=2)
    knots = KnotVector.uniform_open(2, elements)
    surface = fit_surface(cloud, TensorSplineSpace(knots, knots), WeightSpec.knn(10))
    return cloud, surface_sample_points(surface)


def rings(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two concentric rings at the same angles: radius 1 at height 0 and
    radius 2 at height 1, so every point is about sqrt(2) from the other ring."""
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    inner = np.column_stack([np.cos(t), np.sin(t), np.zeros(n)])
    return inner, inner * (2.0, 2.0, 1.0) + (0.0, 0.0, 1.0)


def hausdorff_cases():
    """Named ``(a, b)`` pairs: pruning at work, pruning defeated, degenerate cells."""
    rng = np.random.default_rng(12)
    cloud, samples = hemisphere_and_samples(3000, 4)
    yield "hemisphere", cloud, samples
    yield "lifted", cloud + (0.0, 0.0, 50.0), samples
    yield "rings", *rings(1500)
    distinct = rng.uniform(-1, 1, size=(40, 3))
    yield "duplicates", distinct[rng.integers(0, 40, 2000)], distinct[rng.integers(0, 8, 900)]
    line = np.column_stack([np.full(1200, 0.5), rng.uniform(0, 1, size=(1200, 2))])
    yield "collinear-x", line, line[::3, [0, 2, 1]] + (0.0, 0.0, 0.25)
    yield "collinear-y", line[:, [1, 0, 2]], rng.uniform(0, 1, size=(700, 3)) * (1.0, 0.0, 1.0)
    point = np.array([[0.25, -1.5, 3.0]])
    yield "singletons", point, point + (0.0, 0.0, 2.0)
    yield "coincident", np.repeat(point, 900, axis=0), point
    yield "one-point-each", np.repeat(point, 700, axis=0), np.repeat(point + 1.0, 800, axis=0)
    tiny = np.column_stack([rng.uniform(0, 1e-310, size=(1600, 2)), rng.uniform(-1, 1, 1600)])
    yield "xy-spread-1e-310", tiny[:1000], tiny[1000:]


@pytest.fixture
def scanned(monkeypatch):
    """Pairs compared in full by each directed distance, in call order."""
    pairs = []
    directed, pair_squared = metrics._directed, metrics._pair_squared

    def counting_directed(a, b, *args):
        pairs.append(0)
        return directed(a, b, *args)

    def counting_pair_squared(rows, *columns):
        pairs[-1] += len(rows) * len(columns[0])
        return pair_squared(rows, *columns)

    monkeypatch.setattr(metrics, "_directed", counting_directed)
    monkeypatch.setattr(metrics, "_pair_squared", counting_pair_squared)
    return pairs


class TestPunctualErrors:
    def test_interpolating_surface_all_zero(self):
        rng = np.random.default_rng(0)
        cloud = np.column_stack([rng.uniform(0, 1, size=(30, 2)), np.full(30, 2.5)])
        stats = punctual_errors(constant_surface(2.5), cloud)
        assert stats == ErrorStats(mean=0.0, std=0.0, mse=0.0, max_abs=0.0, count=30)

    def test_constant_offset(self):
        rng = np.random.default_rng(1)
        cloud = np.column_stack([rng.uniform(0, 1, size=(12, 2)), np.full(12, 3.0)])
        stats = punctual_errors(constant_surface(2.0), cloud)
        assert stats.mean == pytest.approx(1.0, abs=1e-15)
        assert stats.std == pytest.approx(0.0, abs=1e-12)
        assert stats.mse == pytest.approx(1.0, abs=1e-15)
        assert stats.max_abs == pytest.approx(1.0, abs=1e-15)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(2)
        cloud = random_cloud(rng, 200)
        cloud[:, :2] = rng.uniform(0, 1, size=(200, 2))
        surface = constant_surface(0.0)
        stats = punctual_errors(surface, cloud)
        res = cloud[:, 2]  # surface is identically zero
        abs_res = np.abs(res)
        mean = abs_res.sum() / res.size
        var = ((abs_res - mean) ** 2).sum() / res.size
        assert stats.mean == pytest.approx(mean, rel=1e-12)
        assert stats.std == pytest.approx(np.sqrt(var), rel=1e-12)
        assert stats.mse == pytest.approx((res**2).sum() / res.size, rel=1e-12)

    def test_permutation_invariance(self):
        # invariant up to float summation order
        rng = np.random.default_rng(3)
        cloud = random_cloud(rng, 50)
        cloud[:, :2] = rng.uniform(0, 1, size=(50, 2))
        surface = constant_surface(0.3)
        base = punctual_errors(surface, cloud)
        shuffled = punctual_errors(surface, cloud[rng.permutation(50)])
        assert shuffled.mean == pytest.approx(base.mean, rel=1e-12)
        assert shuffled.std == pytest.approx(base.std, rel=1e-12)
        assert shuffled.mse == pytest.approx(base.mse, rel=1e-12)
        assert shuffled.max_abs == base.max_abs
        assert shuffled.count == base.count

    def test_out_of_domain_point_rejected(self):
        cloud = np.array([[2.0, 0.5, 1.0]])
        with pytest.raises(OutOfDomainError):
            punctual_errors(constant_surface(0.0), cloud)


class TestLmse:
    def make_space(self, elems=2) -> TensorSplineSpace:
        kv = KnotVector.uniform_open(1, elems)
        return TensorSplineSpace(kv, kv)

    def test_all_points_in_one_element(self):
        space = self.make_space(2)
        surface = WqisaSurface(space, np.zeros(space.shape))
        rng = np.random.default_rng(4)
        pts = np.column_stack(
            [rng.uniform(0.0, 0.49, size=(20, 2)), rng.uniform(-1, 1, size=20)]
        )
        emap = lmse(surface, pts, space)
        assert emap.values.shape == (2, 2)
        assert emap.counts[0, 0] == 20
        assert emap.values[0, 0] == pytest.approx(np.mean(pts[:, 2] ** 2), rel=1e-12)
        assert np.all(emap.values[emap.counts == 0] == 0.0)

    def test_perfect_fit_all_zero(self):
        space = self.make_space(3)
        surface = WqisaSurface(space, np.full(space.shape, 1.5))
        rng = np.random.default_rng(5)
        pts = np.column_stack([rng.uniform(0, 1, size=(40, 2)), np.full(40, 1.5)])
        emap = lmse(surface, pts, space)
        np.testing.assert_array_equal(emap.values, 0.0)

    def test_hand_placed_two_by_two(self):
        space = self.make_space(2)
        surface = WqisaSurface(space, np.zeros(space.shape))
        pts = np.array(
            [
                [0.25, 0.25, 1.0],  # element (0, 0)
                [0.75, 0.25, 2.0],  # element (1, 0)
                [0.75, 0.30, 4.0],  # element (1, 0)
                [0.25, 0.75, 3.0],  # element (0, 1)
            ]
        )
        emap = lmse(surface, pts, space)
        np.testing.assert_allclose(
            emap.values, [[1.0, 9.0], [(4.0 + 16.0) / 2, 0.0]], rtol=1e-14
        )
        np.testing.assert_array_equal(emap.counts, [[1, 1], [2, 0]])

    def test_boundary_points_fold_into_last_elements(self):
        space = self.make_space(2)
        surface = WqisaSurface(space, np.zeros(space.shape))
        pts = np.array([[1.0, 1.0, 2.0]])
        emap = lmse(surface, pts, space)
        assert emap.counts[1, 1] == 1

    def test_gmse_is_count_weighted_mean_of_lmse(self):
        rng = np.random.default_rng(6)
        space = self.make_space(3)
        cloud = random_cloud(rng, 100)
        cloud[:, :2] = rng.uniform(0, 1, size=(100, 2))
        surface = fit_surface(cloud, space, WeightSpec.knn(5))
        emap = lmse(surface, cloud, space)
        pooled = float((emap.values * emap.counts).sum() / emap.counts.sum())
        assert pooled == pytest.approx(gmse(surface, cloud), rel=1e-12)

    def test_each_element_sums_its_points_in_input_order(self):
        # refinement compares these values with a threshold, so their bits are
        # fixed: squared residuals added left to right in input order, then
        # divided by the count
        rng = np.random.default_rng(7)
        space = self.make_space(3)
        surface = WqisaSurface(space, rng.uniform(-1, 1, size=space.shape))
        heights = rng.standard_normal(500) * 10.0 ** rng.integers(-8, 8, 500)
        pts = np.column_stack([rng.uniform(0, 1, size=(500, 2)), heights])
        emap = lmse(surface, pts, space)
        res = metrics.residuals(surface, pts).tolist()
        edges = space.knots_x.breakpoints
        element = np.minimum(np.searchsorted(edges, pts[:, :2], side="right") - 1, edges.size - 2)
        for (e, f), count in np.ndenumerate(emap.counts):
            mine = [r for r, (i, j) in zip(res, element.tolist()) if (i, j) == (e, f)]
            total = 0.0
            for r in mine:
                total += r * r
            assert count == len(mine)
            assert emap.values[e, f] == (total / count if count else 0.0)


class TestHausdorff:
    def test_memory_at_eval_shape_is_bounded(self):
        # a 20k cloud against the 1,089 samples of an 8 x 8 surface, as `eval`
        # measures one; the all-pairs sweep before the pruned one peaked at
        # 1.03 MiB, and the bound sweep and the scan work in blocks to stay below
        cloud, samples = hemisphere_and_samples(20000, 8)
        assert samples.shape == (1089, 3)
        tracemalloc.start()
        try:
            hausdorff(cloud, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.03 * 2**20

    def test_identical_sets(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0, 1, size=(25, 3))
        assert hausdorff(a, a) == 0.0

    def test_two_singletons(self):
        assert hausdorff(np.array([[0.0, 0.0, 0.0]]), np.array([[3.0, 4.0, 0.0]])) == 5.0

    def test_symmetry_and_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            a = rng.uniform(-2, 2, size=(int(rng.integers(1, 80)), 3))
            b = rng.uniform(-2, 2, size=(int(rng.integers(1, 80)), 3))
            got = hausdorff(a, b)
            assert got == hausdorff(b, a)
            assert got == brute_hausdorff(a, b)

    @pytest.mark.parametrize("far_in", ["a", "b"])
    def test_many_blocks_match_brute_force(self, far_in):
        # both sets exceed one distance block; the farthest point sits in the
        # last row block of `a` or the last column of `b`
        rng = np.random.default_rng(11)
        a = rng.uniform(-1, 1, size=(1500, 3))
        b = rng.uniform(-1, 1, size=(1200, 3))
        assert a.shape[0] * b.shape[0] > 20 * metrics._BLOCK_PAIRS
        if far_in == "a":
            a[-3] = [0.5, -0.25, 6.0]
        else:
            b[-1] = [-4.0, 0.5, 0.25]
        expected = brute_hausdorff(a, b)
        assert expected > 3.0
        assert hausdorff(a, b) == expected
        assert hausdorff(b, a) == expected

    @pytest.mark.parametrize("case", list(hausdorff_cases()), ids=lambda case: case[0])
    def test_pruned_matches_brute_force(self, case, scanned):
        # exact where bounds prune, where they fail (rings, sets apart in xy)
        # and where cells degenerate (a line, one point, an xy spread of
        # 1e-310); the sizes span many scan batches
        _, a, b = case
        expected = brute_hausdorff(a, b)
        assert hausdorff(a, b) == expected
        assert hausdorff(b, a) == expected
        # a -> b, b -> a, then the swapped call's two directions
        assert len(scanned) == 4
        assert max(scanned) <= a.shape[0] * b.shape[0]

    @pytest.mark.parametrize(
        "n, elements, xy_scale, share",
        [(20_000, 8, 1.0, 0.01), (3000, 4, 1e-310, 0.05)],
        ids=["20k", "3k-xy-1e-310"],
    )
    def test_hemisphere_against_its_samples_scans_little(
        self, scanned, n, elements, xy_scale, share
    ):
        # the benchmark's shape, and the same cloud shrunk to a subnormal xy
        # spread, where the cell side must not underflow
        cloud, samples = (
            points * (xy_scale, xy_scale, 1.0) for points in hemisphere_and_samples(n, elements)
        )
        assert samples.shape == ((4 * elements + 1) ** 2, 3)
        assert hausdorff(cloud, samples) == brute_hausdorff(cloud, samples)
        assert len(scanned) == 2
        assert max(scanned) < share * cloud.shape[0] * samples.shape[0]

    @pytest.mark.parametrize(
        "a, b",
        [
            ([[0.0, 0.0, 0.0], [1e200, 0.0, 0.0]], [[0.0, 0.0, 1.0]]),
            # each set is one point; only the joint box overflows
            ([[0.0, 0.0, -1e154]], [[0.0, 0.0, 1e154]]),
            ([[0.0, -1e154, 0.0]], [[1e154, 1e154, 0.0]]),
        ],
    )
    def test_non_finite_diagonal_rejected(self, a, b):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="non-finite squared diagonal"):
                hausdorff(np.array(x), np.array(y))

    def test_large_finite_diagonal_accepted(self):
        # the squared diagonal, 1.69e308, is just below the largest double
        a, b = np.array([[0.0, 0.0, -1e154]]), np.array([[0.0, 0.0, 3e153], [0.0, 0.0, 1e153]])
        assert hausdorff(a, b) == brute_hausdorff(a, b) > 1.2e154

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hausdorff(np.empty((0, 3)), np.array([[0.0, 0.0, 0.0]]))

    def test_non_finite_rejected(self):
        # a NaN must not hide the far point that shares its distance block
        rng = np.random.default_rng(10)
        a = rng.uniform(0, 1, size=(300, 3))
        b = a.copy()
        b[5] = [50.0, 0.0, 0.0]
        b[7, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            hausdorff(a, b)
        with pytest.raises(ValueError, match="non-finite"):
            hausdorff(b, a)

    def test_surface_sampling_density(self):
        surface = constant_surface(1.0)
        pts = surface_sample_points(surface, density=4)
        assert pts.shape == (25, 3)  # (4*1+1)^2 samples of the single element
        np.testing.assert_array_equal(pts[:, 2], 1.0)


class TestSurfaceSamples:
    """Samples are the reference meshgrid lattice, bit for bit."""

    def assert_reference(self, surface, density):
        ex, ey = surface.space.element_counts
        expected = sample_lattice(surface, (density * ex + 1, density * ey + 1))
        assert surface_sample_points(surface, density).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("degrees", [(0, 1), (1, 1), (1, 3), (2, 2), (3, 3)])
    @pytest.mark.parametrize("density", [1, 4])
    def test_wqisa_samples_are_the_reference(self, degrees, density):
        # a non-uniform mesh off the unit square
        space = TensorSplineSpace(
            insert_knot(KnotVector.uniform_open(degrees[0], 5, -7.25, -1.0 / 3.0), -5.1),
            insert_knot(KnotVector.uniform_open(degrees[1], 3, -1e-3, 2.0 / 7.0), 0.01),
        )
        coefficients = np.random.default_rng(32).normal(size=space.shape)
        self.assert_reference(WqisaSurface(space, coefficients), density)

    @pytest.mark.parametrize("density", [1, 4])
    def test_mba_samples_are_the_reference(self, density):
        rng = np.random.default_rng(33)
        bbox = (-2.0, 3.0 / 7.0, 1.0, 1.25)
        levels = []
        for level in range(4):
            space = dyadic_space((2, 2), bbox, level)
            levels.append(WqisaSurface(space, rng.normal(size=space.shape)))
        self.assert_reference(MbaSurface(tuple(levels)), density)
