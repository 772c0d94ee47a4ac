"""Tests for the exact planar spatial index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqisa.kdtree import LEAF_SIZE, PlanarIndex

from oracles import brute_knn_ids, brute_radius_ids, graded_plane, holed_plane, uniform_plane


class TestBuild:
    def test_single_point(self):
        idx = PlanarIndex(np.array([[0.5, 0.5]]))
        assert idx.size == 1
        np.testing.assert_array_equal(idx.knn((0, 0), 1), [0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            PlanarIndex(np.empty((0, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PlanarIndex(np.array([[0.0, np.nan]]))

    def test_duplicates_all_retrievable(self):
        pts = np.tile([[1.0, 2.0]], (7, 1))
        idx = PlanarIndex(pts)
        np.testing.assert_array_equal(idx.knn((1.0, 2.0), 7), np.arange(7))
        np.testing.assert_array_equal(idx.within_radius((1.0, 2.0), 0.0), np.arange(7))

    def test_three_d_input_uses_projection(self):
        pts = np.array([[0.0, 0.0, 9.0], [1.0, 1.0, -9.0]])
        idx = PlanarIndex(pts)
        np.testing.assert_array_equal(idx.knn((0.1, 0.0), 1), [0])


class TestKnn:
    def test_k_equals_n_returns_everything(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, size=(37, 2))
        idx = PlanarIndex(pts)
        assert set(idx.knn((0.5, 0.5), 37).tolist()) == set(range(37))

    def test_coincident_query_point_first(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, size=(50, 2))
        idx = PlanarIndex(pts)
        for pid in (0, 13, 49):
            assert idx.knn(pts[pid], 3)[0] == pid

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-3, 3, size=(200, 2))
        idx = PlanarIndex(pts)
        for _ in range(50):
            q = rng.uniform(-4, 4, size=2)
            for k in (1, 3, 7):
                np.testing.assert_array_equal(
                    idx.knn(q, k), brute_knn_ids(pts, q[0], q[1], k)
                )

    def test_ties_keep_lower_ids(self):
        # four points at identical distance from the center
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [5.0, 5.0]])
        idx = PlanarIndex(pts)
        np.testing.assert_array_equal(idx.knn((0.0, 0.0), 2), [0, 1])
        np.testing.assert_array_equal(idx.knn((0.0, 0.0), 3), [0, 1, 2])

    def test_k_out_of_range(self):
        idx = PlanarIndex(np.array([[0.0, 0.0], [1.0, 1.0]]))
        for k in (0, 3):
            with pytest.raises(ValueError):
                idx.knn((0, 0), k)

    @pytest.mark.parametrize("k", [499, 500, 501, 999, 1000])
    def test_k_near_cloud_size_matches_linear_scan(self, k):
        # coordinates on a 0.01 lattice, so the k-th distance is often tied
        rng = np.random.default_rng(7)
        pts = np.round(rng.uniform(0, 1, size=(1000, 2)), 2)
        idx = PlanarIndex(pts)
        for q in rng.uniform(-0.2, 1.2, size=(8, 2)):
            np.testing.assert_array_equal(idx.knn(q, k), brute_knn_ids(pts, q[0], q[1], k))

    @pytest.mark.parametrize("query", [(np.nan, 0.5), (0.5, np.inf), (-np.inf, 0.5)])
    def test_non_finite_query_rejected(self, query):
        idx = PlanarIndex(np.random.default_rng(2).uniform(0, 1, size=(200, 2)))
        with pytest.raises(ValueError, match="finite"):
            idx.knn(query, 3)

    @pytest.mark.parametrize("query", [(1e200, 0.5), (0.5, -1e160), (-1e155, 1e155)])
    def test_far_query_rejected(self, query):
        # squared distances would overflow to inf and tie: without the check,
        # (1e200, 0.5) returns ids 0, 1, 2 instead of the largest x
        idx = PlanarIndex(np.random.default_rng(2).uniform(0, 1, size=(200, 2)))
        with pytest.raises(ValueError, match=r"query point \(.*\) is too far"):
            idx.knn(query, 3)

    def test_query_inside_an_overflowing_box_rejected(self):
        # the bound is the box's far corner, so a near query is refused too
        # when distances to the far side of the box would overflow
        idx = PlanarIndex(np.array([[-1e200, 0.0], [1e200, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="too far"):
            idx.knn((0.0, 0.5), 1)

    def test_far_but_representable_query_matches_brute_force(self):
        pts = np.random.default_rng(2).uniform(0, 1, size=(200, 2))
        idx = PlanarIndex(pts)
        for query in [(1e6, 0.5), (0.5, -1e9), (3e150, 3e150)]:
            np.testing.assert_array_equal(
                idx.knn(query, 3), brute_knn_ids(pts, query[0], query[1], 3)
            )

    def test_tied_lattice_matches_brute_force(self):
        # a shuffled integer lattice: every query below has equidistant
        # points on both sides of split lines, so ties decide the answer
        rng = np.random.default_rng(11)
        pts = rng.permutation(np.stack(np.meshgrid(np.arange(40.0), np.arange(30.0)), -1).reshape(-1, 2))
        idx = PlanarIndex(pts)
        queries = np.concatenate([pts[:200], pts[:200] + 0.5, rng.integers(-2, 42, size=(200, 2))])
        for q in queries:
            for k in (1, 2, 4, 5, 9, 13, 40):
                np.testing.assert_array_equal(idx.knn(q, k), brute_knn_ids(pts, q[0], q[1], k))

    def test_queries_on_split_values_match_brute_force(self):
        # every split value is some point's coordinate, so pairing each
        # point's x with another point's y puts queries on every split line
        rng = np.random.default_rng(12)
        pts = rng.uniform(0, 1, size=(3000, 2))
        idx = PlanarIndex(pts)
        queries = np.concatenate([
            np.column_stack([pts[:, 0], rng.permutation(pts[:, 1])]),
            np.column_stack([rng.uniform(0, 1, 3000), pts[:, 1]]),
        ])
        for i, q in enumerate(queries):
            k = (1, 2, 10, 33)[i % 4]
            np.testing.assert_array_equal(idx.knn(q, k), brute_knn_ids(pts, q[0], q[1], k))

    def test_visit_count_returned(self):
        rng = np.random.default_rng(3)
        idx = PlanarIndex(rng.uniform(0, 1, size=(256, 2)))
        ids, visited = idx.knn((0.5, 0.5), 4, with_count=True)
        assert ids.size == 4
        assert 0 < visited <= 256


class TestWithinRadius:
    def test_zero_radius_no_coincident(self):
        idx = PlanarIndex(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert idx.within_radius((0.5, 0.5), 0.0).size == 0

    def test_radius_spanning_cloud_returns_everything(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 1, size=(64, 2))
        idx = PlanarIndex(pts)
        got = idx.within_radius(pts[0], 2.0)
        np.testing.assert_array_equal(got, np.arange(64))

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2, 2, size=(300, 2))
        idx = PlanarIndex(pts)
        for _ in range(60):
            q = rng.uniform(-2.5, 2.5, size=2)
            r = rng.uniform(0, 2.0)
            np.testing.assert_array_equal(
                idx.within_radius(q, r), brute_radius_ids(pts, q[0], q[1], r)
            )

    def test_negative_radius_rejected(self):
        idx = PlanarIndex(np.array([[0.0, 0.0]]))
        for r in (-0.1, np.nan):
            with pytest.raises(ValueError, match="radius"):
                idx.within_radius((0, 0), r)

    @pytest.mark.parametrize("query", [(np.nan, 0.5), (0.5, np.inf), (-np.inf, 0.5)])
    def test_non_finite_query_rejected(self, query):
        idx = PlanarIndex(np.random.default_rng(2).uniform(0, 1, size=(200, 2)))
        with pytest.raises(ValueError, match="finite"):
            idx.within_radius(query, 0.1)

    @pytest.mark.parametrize("query", [(1e200, 0.5), (0.5, -1e160)])
    def test_far_query_rejected(self, query):
        idx = PlanarIndex(np.random.default_rng(2).uniform(0, 1, size=(200, 2)))
        with pytest.raises(ValueError, match=r"query point \(.*\) is too far"):
            idx.within_radius(query, 1e300)


@pytest.mark.parametrize("plane", [uniform_plane, holed_plane, graded_plane])
def test_large_random_cloud_agrees_with_brute_force(plane):
    # the holed and graded clouds give leaf cells of uneven size and bound
    # balls that cross empty space
    rng = np.random.default_rng(6)
    pts = 10.0 * plane(rng, 10_000)
    idx = PlanarIndex(pts)
    for _ in range(100):
        q = rng.uniform(0, 10, size=2)
        k = int(rng.integers(1, 20))
        np.testing.assert_array_equal(idx.knn(q, k), brute_knn_ids(pts, q[0], q[1], k))
        r = rng.uniform(0, 1.0)
        np.testing.assert_array_equal(
            idx.within_radius(q, r), brute_radius_ids(pts, q[0], q[1], r)
        )


# -- properties on degenerate clouds ------------------------------------------

COORD = st.floats(-10.0, 10.0, allow_nan=False)
PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)


def _sized(n, element):
    return st.lists(element, min_size=n, max_size=n)


def _collinear(ts, c, axis):
    return [((t, c), (c, t), (t, t))[axis] for t in ts]


def clouds():
    """Tiny, duplicate-heavy, collinear and leaf-sized planar clouds."""
    # sizes drawn uniformly, so most clouds need more than one leaf
    sizes = st.integers(1, 3 * LEAF_SIZE)
    tiny = st.integers(1, 3).flatmap(lambda n: _sized(n, st.tuples(COORD, COORD)))
    # integer coordinates on a 4x4 lattice: many coincident points and ties
    lattice = st.tuples(st.integers(0, 3), st.integers(0, 3))
    dupes = sizes.flatmap(lambda n: _sized(n, lattice))
    collinear = st.builds(
        _collinear, sizes.flatmap(lambda n: _sized(n, st.integers(-5, 5) | COORD)), COORD,
        st.integers(0, 2),
    )
    leaf_sized = st.sampled_from([LEAF_SIZE - 1, LEAF_SIZE, LEAF_SIZE + 1, 2 * LEAF_SIZE + 1]).flatmap(
        lambda n: _sized(n, st.tuples(COORD, COORD))
    )
    return st.one_of(tiny, dupes, collinear, leaf_sized).map(lambda p: np.array(p, dtype=float))


def queries(data, points):
    """A free query, or one exactly at a data point."""
    return data.draw(st.tuples(COORD, COORD) | st.sampled_from([tuple(p) for p in points]))


@PROPERTY
@given(points=clouds(), data=st.data())
def test_knn_matches_brute_force_on_degenerate_clouds(points, data):
    idx = PlanarIndex(points)
    n = points.shape[0]
    u, v = queries(data, points)
    for k in range(1, n + 1):
        np.testing.assert_array_equal(idx.knn((u, v), k), brute_knn_ids(points, u, v, k))


@PROPERTY
@given(points=clouds(), data=st.data())
def test_within_radius_matches_brute_force_on_degenerate_clouds(points, data):
    idx = PlanarIndex(points)
    u, v = queries(data, points)
    for r in (0.0, data.draw(st.floats(0.0, 30.0)), data.draw(st.integers(0, 4))):
        np.testing.assert_array_equal(
            idx.within_radius((u, v), r), brute_radius_ids(points, u, v, r)
        )
