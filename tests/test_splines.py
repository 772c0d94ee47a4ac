"""Tests for the tensor-product spline core."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqisa import splines
from wqisa.splines import (
    KnotVector,
    OutOfDomainError,
    TensorSplineSpace,
    WqisaSurface,
    basis_rows,
    insert_knot,
    knot_averages,
    locate_spans,
    tensor_rows,
)

from oracles import naive_basis, tricky_surface


def random_knot_vector(rng, max_degree=3, max_interior=4, lo=0.0, hi=1.0) -> KnotVector:
    p = int(rng.integers(0, max_degree + 1))
    n_interior = int(rng.integers(0, max_interior + 1))
    interior = np.sort(rng.uniform(lo, hi, size=n_interior))
    knots = np.concatenate([np.full(p + 1, lo), interior, np.full(p + 1, hi)])
    return KnotVector(p, knots)


class TestKnotVector:
    def test_valid_construction(self):
        kv = KnotVector(2, [0, 0, 0, 1, 2, 2, 2])
        assert kv.num_basis == 4
        assert kv.domain == (0.0, 2.0)
        assert kv.num_elements == 2

    def test_decreasing_knots_rejected(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            KnotVector(1, [0, 0, 1, 0.5, 2, 2])

    def test_boundary_multiplicity_enforced(self):
        with pytest.raises(ValueError, match="boundary"):
            KnotVector(2, [0, 0, 1, 2, 2, 2])
        with pytest.raises(ValueError, match="boundary"):
            KnotVector(1, [0, 0, 0, 1, 1])

    def test_interior_multiplicity_capped(self):
        with pytest.raises(ValueError, match="multiplicity"):
            KnotVector(1, [0, 0, 0.5, 0.5, 0.5, 1, 1])

    def test_too_few_knots(self):
        with pytest.raises(ValueError, match="at least"):
            KnotVector(2, [0, 0, 0, 1])

    def test_negative_degree(self):
        with pytest.raises(ValueError, match="degree"):
            KnotVector(-1, [0, 1])

    def test_subnormal_span_rejected(self):
        # 1 / width overflows below the smallest normal float, and the basis
        # recurrence would then give NaN values
        with pytest.raises(ValueError, match="too narrow"):
            KnotVector.uniform_open(2, 1, 0.0, 1e-310)
        kv = KnotVector.uniform_open(2, 1, 0.0, np.finfo(float).tiny)
        np.testing.assert_allclose(basis_rows(kv, [kv.knots[-1] / 3])[1].sum(axis=0), 1.0)

    def test_knots_are_immutable(self):
        kv = KnotVector(1, [0, 0, 1, 1])
        with pytest.raises(ValueError):
            kv.knots[0] = 3.0

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_breakpoints_are_the_distinct_knots_found_once(self, data):
        # any valid vector: interior knots of multiplicity 1..p+1, on a
        # dyadic grid of [-1, 1] so that every span is wide enough
        p = data.draw(st.integers(0, 3), label="degree")
        values = data.draw(st.lists(st.integers(-1023, 1023), unique=True, max_size=8), label="interior")
        counts = data.draw(st.lists(st.integers(1, p + 1), min_size=len(values), max_size=len(values)))
        interior = np.repeat(np.sort(values) / 1024.0, counts)
        kv = KnotVector(p, np.concatenate([np.full(p + 1, -1.0), interior, np.full(p + 1, 1.0)]))
        assert kv.breakpoints.tobytes() == np.unique(kv.knots).tobytes()
        assert kv.num_elements == len(values) + 1
        assert kv.breakpoints is kv.breakpoints  # stored, not found again on each read
        with pytest.raises(ValueError, match="read-only"):
            kv.breakpoints[0] = 3.0

    def test_uniform_open(self):
        kv = KnotVector.uniform_open(2, 4)
        assert kv.num_elements == 4
        np.testing.assert_allclose(kv.breakpoints, [0, 0.25, 0.5, 0.75, 1])

    def test_piecewise_bezier(self):
        kv = KnotVector.piecewise_bezier(2, [0, 0.5, 1])
        assert kv.num_basis == 6
        assert np.count_nonzero(kv.knots == 0.5) == 3

    @pytest.mark.parametrize("degrees", [(0, 3), (2, 2), (3, 1)])
    def test_uniform_space_of_one_element_is_the_bezier_mesh(self, degrees):
        bbox = (-7.25, -1.0 / 3.0, -1e-3, 2.0 / 7.0)
        space = TensorSplineSpace.uniform(degrees, bbox, 1)
        for kv, p, ends in zip((space.knots_x, space.knots_y), degrees, (bbox[:2], bbox[2:])):
            assert kv.knots.tobytes() == KnotVector.piecewise_bezier(p, ends).knots.tobytes()
        assert TensorSplineSpace.uniform(degrees, bbox, 8).element_counts == (8, 8)


def dense_basis(kv: KnotVector, ts) -> np.ndarray:
    """Every basis value at each point: ``basis_rows`` scattered into a
    ``(len(ts), num_basis)`` matrix, zero outside each row's active window."""
    spans, values = basis_rows(kv, ts)
    dense = np.zeros((spans.size, kv.num_basis))
    np.put_along_axis(dense, spans[:, None] - kv.degree + np.arange(kv.degree + 1), values.T, axis=1)
    return dense


class TestBasisValue:
    def test_degree_zero_indicator_inside(self):
        kv = KnotVector(0, [0.0, 1.0])
        assert dense_basis(kv, [0.5]).tolist() == [[1.0]]

    def test_quadratic_uniform_local_knots(self):
        # basis 2 has local knots [0, 1, 2, 3]; 1.5 is the center of its support
        kv = KnotVector(2, [0, 0, 0, 1, 2, 3, 3, 3])
        assert dense_basis(kv, [1.5])[0, 2] == pytest.approx(0.75, abs=1e-15)

    def test_domain_end_folds_into_last_span(self):
        kv = KnotVector(2, [0, 0, 0, 0.5, 1, 1, 1])
        spans, values = basis_rows(kv, [1.0])
        assert spans[0] == kv.num_basis - 1
        assert values[-1, 0] == 1.0

    def test_matches_naive_recursion(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            kv = random_knot_vector(rng)
            p = kv.degree
            a, b = kv.domain
            ts = rng.uniform(a, b - 1e-9, size=10)
            dense = dense_basis(kv, ts)
            for m, t in enumerate(ts):
                for i in range(kv.num_basis):
                    expected = naive_basis(kv.knots[i : i + p + 2], t)
                    assert dense[m, i] == pytest.approx(expected, abs=1e-12)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            kv = random_knot_vector(rng)
            a, b = kv.domain
            ts = np.concatenate([rng.uniform(a, b, size=20), [a, b]])
            np.testing.assert_allclose(basis_rows(kv, ts)[1].sum(axis=0), 1.0, rtol=0, atol=1e-10)

    def test_local_support_and_nonnegativity(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            kv = random_knot_vector(rng)
            p = kv.degree
            a, b = kv.domain
            ts = rng.uniform(a, b - 1e-12, size=10)
            dense = dense_basis(kv, ts)
            for m, t in enumerate(ts):
                for i in range(kv.num_basis):
                    assert dense[m, i] >= 0.0
                    if not (kv.knots[i] <= t < kv.knots[i + p + 1]):
                        assert dense[m, i] == 0.0


class TestKnotAverages:
    def test_quadratic_example(self):
        kv = KnotVector(2, [0, 0, 0, 1, 2, 2, 2])
        np.testing.assert_allclose(knot_averages(kv), [0, 0.5, 1.5, 2])

    def test_linear_two_function_space(self):
        kv = KnotVector(1, [0, 0, 1, 1])
        np.testing.assert_allclose(knot_averages(kv), [0, 1])

    def test_degree_zero_midpoints(self):
        kv = KnotVector(0, [0, 0.5, 1])
        np.testing.assert_allclose(knot_averages(kv), [0.25, 0.75])

    def test_sorted_and_inside_domain(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            kv = random_knot_vector(rng)
            avgs = knot_averages(kv)
            assert avgs.size == kv.num_basis
            assert np.all(np.diff(avgs) >= 0)
            a, b = kv.domain
            assert avgs.min() >= a and avgs.max() <= b


class TestInsertKnot:
    def test_single_element_insertion(self):
        kv = KnotVector(2, [0, 0, 0, 1, 1, 1])
        out = insert_knot(kv, 0.5)
        np.testing.assert_allclose(out.knots, [0, 0, 0, 0.5, 1, 1, 1])
        assert out.num_basis == kv.num_basis + 1

    def test_multiplicity_overflow_rejected(self):
        kv = KnotVector(1, [0, 0, 0.5, 0.5, 1, 1])
        with pytest.raises(ValueError, match="multiplicity"):
            insert_knot(kv, 0.5)

    def test_outside_open_domain_rejected(self):
        kv = KnotVector(2, [0, 0, 0, 1, 1, 1])
        for t in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="domain"):
                insert_knot(kv, t)

    def test_repeated_midpoint_insertions_build_dyadic_grid(self):
        kv = KnotVector(2, [0, 0, 0, 1, 1, 1])
        for _ in range(3):
            for lo, hi in zip(kv.breakpoints[:-1], kv.breakpoints[1:]):
                kv = insert_knot(kv, (lo + hi) / 2)
        np.testing.assert_allclose(kv.breakpoints, np.arange(9) / 8.0)


def span_of(kv: KnotVector, t: float) -> int:
    return int(basis_rows(kv, [t])[0][0])


class TestElementOf:
    """The knot span, and the mesh element, that a point falls in."""

    def test_single_element_mesh(self):
        space = TensorSplineSpace.uniform((2, 3), (0, 1, 0, 1), 1)
        assert (span_of(space.knots_x, 0.3), span_of(space.knots_y, 0.8)) == (2, 3)

    def test_uniform_four_span_third_span(self):
        kv = KnotVector.uniform_open(2, 4)
        mu = span_of(kv, 0.6)
        assert kv.knots[mu] == 0.5
        assert kv.knots[mu + 1] == 0.75

    def test_right_boundary_maps_to_last_span(self):
        kv = KnotVector.uniform_open(1, 3)
        mu = span_of(kv, 1.0)
        assert mu == kv.num_basis - 1
        assert kv.knots[mu] < 1.0 <= kv.knots[mu + 1]
        edges = kv.breakpoints
        assert locate_spans(edges, edges.size - 2, np.array([1.0])).tolist() == [kv.num_elements - 1]

    def test_find_span_matches_basis_rows(self):
        # lmse's element lookup (locate_spans on the breakpoints) and the knot
        # span of basis_rows put every point, knot values and the right end
        # included, in the same element
        kv = KnotVector(3, [0, 0, 0, 0, 0.2, 0.5, 0.5, 0.7, 1, 1, 1, 1])
        ts = np.concatenate([np.linspace(0.0, 1.0, 1001), kv.knots])
        spans, _ = basis_rows(kv, ts)
        edges = kv.breakpoints
        elements = locate_spans(edges, edges.size - 2, ts)
        assert np.searchsorted(edges, kv.knots[spans]).tolist() == elements.tolist()
        assert np.all(kv.knots[spans] < kv.knots[spans + 1])

    def test_out_of_domain(self):
        space = TensorSplineSpace.uniform((1, 1), (0, 1, 0, 1), 1)
        with pytest.raises(OutOfDomainError):
            basis_rows(space.knots_x, [1.5])
        with pytest.raises(OutOfDomainError):
            basis_rows(space.knots_y, [-0.1])
        edges = space.knots_x.breakpoints
        with pytest.raises(OutOfDomainError):
            locate_spans(edges, edges.size - 2, np.array([1.5]))


def random_surface(rng, lo=0.0, hi=1.0) -> WqisaSurface:
    kx = random_knot_vector(rng, lo=lo, hi=hi)
    ky = random_knot_vector(rng, lo=lo, hi=hi)
    space = TensorSplineSpace(kx, ky)
    coeffs = rng.uniform(-4, 4, size=space.shape)
    return WqisaSurface(space, coeffs)


class TestEvaluateSurface:
    def test_constant_coefficients_reproduced_exactly(self):
        rng = np.random.default_rng(5)
        space = TensorSplineSpace(random_knot_vector(rng), random_knot_vector(rng))
        surface = WqisaSurface(space, np.full(space.shape, 7.3))
        for x, y in rng.uniform(0, 1, size=(20, 2)):
            assert surface.evaluate(x, y) == 7.3

    @pytest.mark.parametrize("degrees", [(1, 1), (1, 3)])
    def test_one_point_matches_the_same_point_among_others(self, degrees):
        # the slot sum runs in (a, b) order whatever the number of points
        rng = np.random.default_rng(24)
        space = TensorSplineSpace(
            KnotVector.uniform_open(degrees[0], 4, 0.0, 1.0),
            KnotVector.uniform_open(degrees[1], 4, 0.0, 1.0),
        )
        surface = WqisaSurface(space, rng.normal(size=space.shape))
        xs, ys = rng.uniform(0, 1, size=(2, 1000))
        together = surface.evaluate_many(xs, ys).tolist()
        assert [surface.evaluate(x, y) for x, y in zip(xs, ys)] == together

    def test_bilinear_interpolation(self):
        space = TensorSplineSpace(KnotVector(1, [0, 0, 1, 1]), KnotVector(1, [0, 0, 1, 1]))
        surface = WqisaSurface(space, [[0.0, 0.0], [1.0, 1.0]])
        assert surface.evaluate(0.5, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_out_of_domain_is_distinct_error(self):
        space = TensorSplineSpace.uniform((2, 2), (0, 1, 0, 1), 1)
        surface = WqisaSurface(space, np.zeros(space.shape))
        with pytest.raises(OutOfDomainError):
            surface.evaluate(2.0, 0.5)

    def test_convex_combination_bound_is_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            surface = random_surface(rng)
            lo = surface.coefficients.min()
            hi = surface.coefficients.max()
            xs = rng.uniform(0, 1, size=50)
            ys = rng.uniform(0, 1, size=50)
            values = surface.evaluate_many(xs, ys)
            assert np.all(values >= lo)
            assert np.all(values <= hi)

    def test_shape_mismatch_rejected(self):
        space = TensorSplineSpace.uniform((1, 1), (0, 1, 0, 1), 1)
        with pytest.raises(ValueError, match="does not match"):
            WqisaSurface(space, np.zeros((3, 3)))

    def test_right_continuity_at_full_multiplicity_knot(self):
        # a p+1-fold interior knot makes the spline jump there; evaluation
        # must take the right limit
        kv = KnotVector.piecewise_bezier(1, [0.0, 0.5, 1.0])
        flat = KnotVector(1, [0, 0, 1, 1])
        space = TensorSplineSpace(kv, flat)
        coeffs = np.array([[0.0], [1.0], [2.0], [3.0]]) @ np.ones((1, 2))
        surface = WqisaSurface(space, coeffs)
        assert surface.evaluate(0.5, 0.3) == 2.0
        assert surface.evaluate(0.5 - 1e-12, 0.3) == pytest.approx(1.0, abs=1e-9)
        mu = span_of(kv, 0.5)
        assert kv.knots[mu] == 0.5 and kv.knots[mu + 1] > 0.5


def refined_space(degrees) -> TensorSplineSpace:
    """A non-uniform mesh on the unit square refined by knot insertion, with
    a knot inserted twice wherever the degree allows it."""
    axes = []
    for p, cuts in zip(degrees, ([0.13, 0.5, 0.71, 0.5], [0.3, 0.62, 0.3, 0.9])):
        kv = KnotVector.piecewise_bezier(p, [0.0, 1.0])
        for t in cuts:
            if np.count_nonzero(kv.knots == t) <= p:
                kv = insert_knot(kv, t)
        axes.append(kv)
    return TensorSplineSpace(*axes)


DEGREES = [(2, 2), (1, 3), (0, 1)]


class TestBlockedEvaluation:
    """``evaluate_many`` builds rows and takes values one block at a time."""

    def points(self, rng, space, n):
        xs, ys = rng.uniform(0, 1, size=(2, n))
        # knot values, repeated ones included, and the right end of the domain
        xs[: space.knots_x.knots.size] = space.knots_x.knots
        ys[: space.knots_y.knots.size] = space.knots_y.knots[::-1]
        return xs, ys

    @pytest.mark.parametrize("degrees", DEGREES)
    def test_more_points_than_a_block_match_small_pieces(self, degrees):
        rng = np.random.default_rng(21)
        space = refined_space(degrees)
        surface = WqisaSurface(space, rng.uniform(-4, 4, size=space.shape))
        n = 2 * splines._BLOCK_POINTS + 3
        xs, ys = self.points(rng, space, n)
        whole = surface.evaluate_many(xs, ys)
        pieces = [surface.evaluate_many(xs[i : i + 100], ys[i : i + 100]) for i in range(0, n, 100)]
        assert whole.tobytes() == np.concatenate(pieces).tobytes()
        # and the rows of every point at once, with no blocks
        assert whole.tobytes() == tensor_rows(space, xs, ys).values(surface.coefficients).tobytes()

    @pytest.mark.parametrize("n", [1, 64, 65, 3 * 64 + 1])
    def test_blocks_are_fixed_slices(self, n, monkeypatch):
        # blocks only bound the memory of the rows: full slices of
        # _BLOCK_POINTS points in order, then the rest, even a lone point
        sizes = []

        def recording(space, xs, ys):
            sizes.append(len(xs))
            return tensor_rows(space, xs, ys)

        monkeypatch.setattr(splines, "_BLOCK_POINTS", 64)
        monkeypatch.setattr(splines, "tensor_rows", recording)
        rng = np.random.default_rng(22)
        space = refined_space((1, 3))
        surface = WqisaSurface(space, rng.uniform(-4, 4, size=space.shape))
        xs, ys = rng.uniform(0, 1, size=(2, n))
        values = surface.evaluate_many(xs, ys)
        assert sizes == [64] * (n // 64) + [n % 64] * (n % 64 > 0)
        assert values.tobytes() == tensor_rows(space, xs, ys).values(surface.coefficients).tobytes()

    def test_rows_serve_any_coefficient_grid(self):
        rng = np.random.default_rng(23)
        space = refined_space((2, 2))
        xs, ys = self.points(rng, space, 500)
        rows = tensor_rows(space, xs, ys)
        slots = rows.offsets[:, :, None] + rows.base
        assert slots.shape == (3, 3, 500)
        assert slots.min() >= 0 and slots.max() < space.shape[0] * space.shape[1]
        for _ in range(3):
            surface = WqisaSurface(space, rng.uniform(-4, 4, size=space.shape))
            values = rows.values(surface.coefficients)
            assert values.tobytes() == surface.evaluate_many(xs, ys).tobytes()

    @pytest.mark.parametrize("degrees", [(0, 0), (0, 1), (1, 1), (1, 3), (2, 2), (3, 3)])
    @pytest.mark.parametrize("n", [1, 2, 17])
    def test_values_are_a_stated_fold_over_the_slots(self, degrees, n):
        rng = np.random.default_rng(25)
        space = refined_space(degrees)
        coefficients = rng.uniform(-4, 4, size=space.shape)
        xs, ys = rng.uniform(0, 1, size=(2, n))
        if n > 1:  # the right end of the domain and a repeated knot
            xs[-1], ys[-1] = 1.0, 0.3
        (px, py), expected = degrees, []
        for x, y in zip(xs, ys):
            (mu,), bx = basis_rows(space.knots_x, [x])
            (nu,), by = basis_rows(space.knots_y, [y])
            total, slots = 0.0, []
            for a in range(px + 1):
                for b in range(py + 1):
                    c = float(coefficients[mu - px + a, nu - py + b])
                    total += c * float(bx[a, 0]) * float(by[b, 0])
                    slots.append(c)
            expected.append(min(max(total, min(slots)), max(slots)))
        assert tensor_rows(space, xs, ys).values(coefficients).tolist() == expected

    @pytest.mark.parametrize("degrees", [(1, 1), (2, 2), (3, 3), (1, 3), (0, 1)])
    @pytest.mark.parametrize(
        "counts",
        [(2, 2), (3, 50), (50, 3), (20, 23), (2, 150), (150, 2), (1, 150), (150, 1), (0, 5), (5, 0)],
    )
    @pytest.mark.parametrize("y_spread", ["linspace", "knots", "one element"])
    def test_lattice_values_are_those_of_its_points(self, degrees, counts, y_spread, monkeypatch):
        # the small block makes tiles of a few x rows, and slices an axis of
        # more than 64 y values; the mesh repeats interior knots
        monkeypatch.setattr(splines, "_BLOCK_POINTS", 64)
        rng = np.random.default_rng(26)
        space = refined_space(degrees)
        surface = WqisaSurface(space, rng.uniform(-4, 4, size=space.shape))
        # both ends of the domain and knots, repeated ones included, in any order
        xs = np.concatenate([[1.0, 0.0, 0.5, 0.13], rng.uniform(0, 1, counts[0])])[: counts[0]]
        if y_spread == "linspace":
            ys = np.linspace(0.0, 1.0, counts[1])
        elif y_spread == "knots":
            ys = np.concatenate([space.knots_y.knots[::-1], rng.uniform(0, 1, counts[1])])
        else:  # the element [0.3, 0.62), its left knot included
            ys = np.concatenate([[0.3, 0.5, 0.3], rng.uniform(0.3, 0.62, counts[1])])
        ys = ys[: counts[1]]
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        expected = surface.evaluate_many(gx.ravel(), gy.ravel())
        values = surface.evaluate_lattice(xs, ys)
        assert values.shape == (counts[0] * counts[1],)
        assert values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(2, 2), (2, 9), (9, 2), (3, 2)])
    def test_lattice_keeps_the_sign_of_a_zero_corner(self, shape):
        # the corner (1/3, 1e22) sums to +0.0 and is clamped onto the
        # coefficient -0.0, whatever the lattice's layout
        surface = tricky_surface()
        xs, ys = np.linspace(0.1, 1.0 / 3.0, shape[0]), np.linspace(-0.0, 1e22, shape[1])
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        values = surface.evaluate_lattice(xs, ys)
        assert values.tobytes() == surface.evaluate_many(gx.ravel(), gy.ravel()).tobytes()
        assert np.signbit(values[-1]) and values[-1] == 0.0

    @pytest.mark.parametrize("shape", [(2, 2), (2, 9), (9, 2), (3, 2), (40, 40)])
    def test_lattice_clamps_onto_signed_zeros_as_its_points(self, shape):
        # at a knot only one slot of degree 1 weighs, so many values sum to
        # +0.0 and are clamped onto a bound that is a zero of either sign
        rng = np.random.default_rng(28)
        kv = KnotVector.uniform_open(1, 4)
        space = TensorSplineSpace(kv, kv)
        surface = WqisaSurface(space, rng.choice([0.0, -0.0, 1.0], size=space.shape))
        xs, ys = (rng.choice(kv.breakpoints, n) for n in shape)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        values = surface.evaluate_lattice(xs, ys)
        assert values.tobytes() == surface.evaluate_many(gx.ravel(), gy.ravel()).tobytes()

    @pytest.mark.parametrize("shape", [(1, 200_000), (200_000, 1)])
    def test_lattice_memory_is_bounded_by_the_block(self, shape, monkeypatch):
        # past the output, a lattice holds a fixed number of block-sized
        # temporaries, however long an axis is
        monkeypatch.setattr(splines, "_BLOCK_POINTS", 1024)
        rng = np.random.default_rng(27)
        space = refined_space((2, 2))
        surface = WqisaSurface(space, rng.uniform(-4, 4, size=space.shape))
        xs, ys = np.linspace(0.0, 1.0, shape[0]), np.linspace(0.0, 1.0, shape[1])
        tracemalloc.start()
        try:
            surface.evaluate_lattice(xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * xs.size * ys.size + 64 * 8 * 1024

    @pytest.mark.parametrize(
        "xs, ys",
        [
            ([0.0, 1.5], [0.0, 1.0]),
            ([0.0, 1.0], [0.5, -0.25]),
            ([0.0, 1.0], [0.5, np.nan]),
            (np.linspace(0.0, 1.0, 100).tolist() + [1.0 + 1e-12], [0.0, 1.0]),
            ([1.5], []),
            ([], [1.5]),
        ],
    )
    def test_lattice_outside_the_domain_rejected(self, xs, ys, monkeypatch):
        # also a point in the last tile of a lattice of several, and an axis
        # beside an empty one
        monkeypatch.setattr(splines, "_BLOCK_POINTS", 64)
        space = refined_space((2, 2))
        surface = WqisaSurface(space, np.zeros(space.shape))
        with pytest.raises(OutOfDomainError, match="outside the domain"):
            surface.evaluate_lattice(xs, ys)

    def test_coefficient_grid_of_another_shape_rejected(self):
        space = TensorSplineSpace(KnotVector.uniform_open(2, 3), KnotVector.uniform_open(2, 3))
        rows = tensor_rows(space, [0.1, 0.9], [0.2, 0.95])
        for shape in [(5, 6), (4, 4)]:
            with pytest.raises(ValueError, match=re.escape(f"grid {shape} does not match space (5, 5)")):
                rows.values(np.zeros(shape))

    def test_unpaired_coordinates_rejected(self):
        space = refined_space((2, 2))
        with pytest.raises(ValueError, match="3 x values but 2 y values"):
            tensor_rows(space, [0.1, 0.2, 0.3], [0.1, 0.2])
        surface = WqisaSurface(space, np.zeros(space.shape))
        n = 2 * splines._BLOCK_POINTS
        with pytest.raises(ValueError, match=f"{n + 1} x values but {n} y values"):
            surface.evaluate_many(np.zeros(n + 1), np.zeros(n))
