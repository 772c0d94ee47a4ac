"""Acceptance suite: one test per release criterion, with stated tolerances.

Each test prints a single summary line (visible with ``pytest -v -s``); the
test outcome itself is the pass/fail signal.  Random workloads are seeded so
results never float.
"""

import json
import time

import numpy as np
import pytest

from wqisa.cli import cli_main
from wqisa.io import RunConfig, write_cloud, write_config
from wqisa.kdtree import PlanarIndex
from wqisa.mba import fit_mba, mba_level_coefficients
from wqisa.metrics import gmse, hausdorff, lmse
from wqisa.pipeline import FitConfig, fit, knn_parameter_grid
from wqisa.splines import (
    KnotVector,
    TensorSplineSpace,
    WqisaSurface,
    basis_rows,
    knot_averages,
    tensor_rows,
)
from wqisa.synthetic import hemisphere_cloud, hemisphere_height, perturb
from wqisa.weights import (
    WeightSpec,
    ZeroWeightError,
    estimate_control_point,
    fit_surface,
)

from oracles import (
    brute_estimate,
    brute_hausdorff,
    brute_knn_ids,
    brute_radius_ids,
    random_cloud,
)


def random_space(rng, bbox, max_degree=3, max_interior=3) -> TensorSplineSpace:
    xmin, xmax, ymin, ymax = bbox
    kvs = []
    for lo, hi in ((xmin, xmax), (ymin, ymax)):
        p = int(rng.integers(0, max_degree + 1))
        n_int = int(rng.integers(0, max_interior + 1))
        interior = np.sort(rng.uniform(lo, hi, size=n_int))
        kvs.append(
            KnotVector(p, np.concatenate([np.full(p + 1, lo), interior, np.full(p + 1, hi)]))
        )
    return TensorSplineSpace(kvs[0], kvs[1])


def random_weight_spec(rng, cloud, kinds=("indicator", "gaussian", "knn", "idw", "idw_truncated")):
    kind = kinds[int(rng.integers(0, len(kinds)))]
    n = cloud.shape[0]
    diag = np.hypot(
        cloud[:, 0].max() - cloud[:, 0].min(), cloud[:, 1].max() - cloud[:, 1].min()
    )
    diag = max(diag, 1e-6)
    common = {"outlier_filter": bool(rng.integers(0, 2))}
    if kind == "indicator":
        return WeightSpec.indicator(float(rng.uniform(0.25, 1.5)) * diag, **common)
    if kind == "gaussian":
        return WeightSpec.gaussian(
            float(rng.uniform(0.05, 1.0)) * diag, squared=bool(rng.integers(0, 2)), **common
        )
    if kind == "knn":
        return WeightSpec.knn(int(rng.integers(1, n + 1)), **common)
    if kind == "idw":
        return WeightSpec.idw(**common)
    return WeightSpec.truncated_idw(int(rng.integers(1, n + 1)), **common)


def fit_with_widening(cloud, space, spec):
    """Fit, doubling a too-small indicator radius until every window sees data."""
    for _ in range(40):
        try:
            return fit_surface(cloud, space, spec), spec
        except ZeroWeightError:
            if spec.kind != "indicator":
                raise
            spec = WeightSpec.indicator(
                2.0 * spec.radius, outlier_filter=spec.outlier_filter, fence=spec.fence
            )
    raise AssertionError("radius widening failed to converge")


def test_criterion_01_global_bounds():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for case in range(200):
        n = int(rng.integers(10, 2001))
        cloud = random_cloud(rng, n, dupes=bool(rng.integers(0, 2)))
        bbox = (
            cloud[:, 0].min(), cloud[:, 0].max(), cloud[:, 1].min(), cloud[:, 1].max(),
        )
        if bbox[0] == bbox[1] or bbox[2] == bbox[3]:
            continue
        space = random_space(rng, bbox)
        spec = random_weight_spec(rng, cloud)
        surface, spec = fit_with_widening(cloud, space, spec)
        zmin, zmax = cloud[:, 2].min(), cloud[:, 2].max()
        xs = rng.uniform(bbox[0], bbox[1], size=100)
        ys = rng.uniform(bbox[2], bbox[3], size=100)
        values = surface.evaluate_many(xs, ys)
        assert np.all(values >= zmin), f"case {case}: below global minimum ({spec.kind})"
        assert np.all(values <= zmax), f"case {case}: above global maximum ({spec.kind})"
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.1f}s"
    print(f"PASS criterion 1: global bounds exact on {checked} clouds ({elapsed:.1f}s)")


def test_criterion_02_local_bounds():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    for case in range(50):
        n = int(rng.integers(20, 201))
        cloud = random_cloud(rng, n)
        bbox = (
            cloud[:, 0].min(), cloud[:, 0].max(), cloud[:, 1].min(), cloud[:, 1].max(),
        )
        # meshes capped at 4x4 elements
        kvs = []
        for lo, hi in ((bbox[0], bbox[1]), (bbox[2], bbox[3])):
            p = int(rng.integers(0, 3))
            elems = int(rng.integers(1, 5))
            kvs.append(KnotVector.uniform_open(p, elems, lo, hi))
        space = TensorSplineSpace(kvs[0], kvs[1])
        spec = random_weight_spec(rng, cloud, kinds=("indicator", "gaussian", "knn"))
        spec = WeightSpec(  # disable the filter: the support definition is what is under test
            kind=spec.kind, radius=spec.radius, sigma=spec.sigma, k=spec.k,
            gaussian_squared=spec.gaussian_squared,
        )
        surface, spec = fit_with_widening(cloud, space, spec)
        us = knot_averages(space.knots_x)
        vs = knot_averages(space.knots_y)
        px, py = space.degrees
        for _ in range(20):
            x = float(rng.uniform(bbox[0], bbox[1]))
            y = float(rng.uniform(bbox[2], bbox[3]))
            mu = int(basis_rows(space.knots_x, [x])[0][0])
            nu = int(basis_rows(space.knots_y, [y])[0][0])
            members: set[int] = set()
            for i in range(mu - px, mu + 1):
                for j in range(nu - py, nu + 1):
                    if spec.kind == "gaussian":
                        members.update(range(n))
                    elif spec.kind == "knn":
                        members.update(brute_knn_ids(cloud, us[i], vs[j], spec.k).tolist())
                    else:
                        members.update(
                            brute_radius_ids(cloud, us[i], vs[j], spec.radius).tolist()
                        )
            zs = cloud[sorted(members), 2]
            value = surface.evaluate(x, y)
            assert zs.min() <= value <= zs.max(), f"case {case}: local bound violated"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"runtime budget exceeded: {elapsed:.1f}s"
    print(f"PASS criterion 2: local bounds exact on 50 instances ({elapsed:.1f}s)")


def test_criterion_03_interpolatory_special_configuration():
    rng = np.random.default_rng(103)
    for case in range(20):
        px = int(rng.integers(1, 4))
        py = int(rng.integers(1, 4))
        bx = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, size=rng.integers(0, 3))]))
        by = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, size=rng.integers(0, 3))]))
        space = TensorSplineSpace(
            KnotVector.piecewise_bezier(px, bx), KnotVector.piecewise_bezier(py, by)
        )
        us = knot_averages(space.knots_x)
        vs = knot_averages(space.knots_y)
        locations = np.unique(
            np.array([(u, v) for u in us for v in vs]), axis=0
        )
        # shape-preserving special case: coefficients must equal the samples
        curved = np.sin(3.0 * locations[:, 0]) * np.cos(2.0 * locations[:, 1])
        cloud = np.column_stack([locations, curved])
        surface = fit_surface(cloud, space, WeightSpec.knn(1))
        lookup = {(u, v): z for (u, v), z in zip(map(tuple, locations), curved)}
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                assert surface.coefficients[i, j] == lookup[(u, v)]
        # with linear data the spline also reproduces the samples pointwise
        a, b, c = rng.uniform(-2, 2, size=3)
        affine = a * locations[:, 0] + b * locations[:, 1] + c
        cloud = np.column_stack([locations, affine])
        surface = fit_surface(cloud, space, WeightSpec.knn(1))
        got = surface.evaluate_many(locations[:, 0], locations[:, 1])
        np.testing.assert_allclose(got, affine, atol=1e-9)
    print("PASS criterion 3: interpolatory configuration reproduces samples (20 configs)")


def test_criterion_04_linear_convergence_on_hemisphere():
    started = time.perf_counter()
    cloud = hemisphere_cloud(200_000, seed=42)
    grid = np.linspace(0.15, 0.85, 41)
    gx, gy = np.meshgrid(grid, grid, indexing="ij")
    gx, gy = gx.ravel(), gy.ravel()
    truth = hemisphere_height(gx, gy)
    errors = []
    for elems in (4, 8, 16):  # element sizes h, h/2, h/4
        space = TensorSplineSpace(
            KnotVector.uniform_open(2, elems), KnotVector.uniform_open(2, elems)
        )
        surface = fit_surface(cloud, space, WeightSpec.knn(1))
        errors.append(float(np.abs(surface.evaluate_many(gx, gy) - truth).max()))
    assert errors[1] < errors[0] and errors[2] < errors[1], f"not monotone: {errors}"
    ratio = errors[2] / errors[0]
    assert ratio <= 0.5, f"final/initial error ratio {ratio:.3f} > 0.5"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.1f}s"
    print(
        "PASS criterion 4: interior error "
        f"{errors[0]:.4f} -> {errors[1]:.4f} -> {errors[2]:.4f}, ratio {ratio:.3f} ({elapsed:.1f}s)"
    )


def test_criterion_05_pipeline_termination():
    started = time.perf_counter()
    rng = np.random.default_rng(105)
    worst = 0
    for run in range(100):
        n = int(rng.integers(40, 201))
        cloud = perturb(
            hemisphere_cloud(n, seed=run),
            noise_std=float(rng.uniform(0.0, 0.3)),
            outlier_fraction=float(rng.uniform(0.0, 0.15)),
            outlier_scale=2.0,
            seed=1000 + run,
        )
        config = FitConfig(weight_grid=knn_parameter_grid(3), max_iterations=15, seed=run)
        _, report = fit(cloud, config)
        history = [rec.gmse for rec in report.iterations]
        assert len(history) <= 15, f"run {run}: iteration budget exceeded"
        assert history[report.best_iteration - 1] <= history[-1], f"run {run}: bad iterate"
        worst = max(worst, len(history))
    elapsed = time.perf_counter() - started
    print(f"PASS criterion 5: 100 runs terminated (max {worst} iterations, {elapsed:.1f}s)")


def test_criterion_06_spatial_index_exactness_and_scaling():
    started = time.perf_counter()
    rng = np.random.default_rng(106)
    pts = rng.uniform(0, 1, size=(2000, 2))
    index = PlanarIndex(pts)
    for _ in range(5000):
        q = rng.uniform(-0.1, 1.1, size=2)
        k = int(rng.integers(1, 11))
        np.testing.assert_array_equal(index.knn(q, k), brute_knn_ids(pts, q[0], q[1], k))
    for _ in range(5000):
        q = rng.uniform(-0.1, 1.1, size=2)
        r = float(rng.uniform(0.0, 0.4))
        np.testing.assert_array_equal(
            index.within_radius(q, r), brute_radius_ids(pts, q[0], q[1], r)
        )

    visit_means = []
    queries = rng.uniform(0, 1, size=(300, 2))
    for exponent in (14, 15):
        tree = PlanarIndex(rng.uniform(0, 1, size=(2**exponent, 2)))
        visits = [tree.knn(q, 5, with_count=True)[1] for q in queries]
        visit_means.append(float(np.mean(visits)))
    growth = visit_means[1] / visit_means[0]
    assert growth < 1.5, f"node visits grew {growth:.2f}x when doubling N"
    elapsed = time.perf_counter() - started
    print(
        "PASS criterion 6: 10^4 queries exact; visit growth "
        f"{visit_means[0]:.1f} -> {visit_means[1]:.1f} ({growth:.2f}x) ({elapsed:.1f}s)"
    )


def test_criterion_07_estimator_matches_brute_force():
    rng = np.random.default_rng(107)
    agreements = 0
    failures_agreed = 0
    for case in range(500):
        n = int(rng.integers(2, 51))
        cloud = random_cloud(rng, n, dupes=bool(rng.integers(0, 2)))
        spec = random_weight_spec(rng, cloud)
        if bool(rng.integers(0, 2)):  # sometimes query exactly at a sample
            u, v = cloud[int(rng.integers(0, n)), :2]
        else:
            u, v = rng.uniform(-6, 6, size=2)
        try:
            expected = brute_estimate(cloud, float(u), float(v), spec)
        except ValueError:
            with pytest.raises(ZeroWeightError):
                estimate_control_point(cloud, float(u), float(v), spec)
            failures_agreed += 1
            continue
        got = estimate_control_point(cloud, float(u), float(v), spec)
        assert got == pytest.approx(expected, rel=1e-14, abs=0.0), f"case {case} ({spec.kind})"
        agreements += 1
    print(
        "PASS criterion 7: estimator matched brute force on "
        f"{agreements} cases (+{failures_agreed} agreed failures)"
    )


def test_criterion_08_mba_baseline():
    # hand-derived single-point oracle: only one bilinear basis is 1 at a corner
    corner = np.array([[0.0, 0.0, 4.25]])
    space = TensorSplineSpace.uniform((1, 1), (0, 1, 0, 1), 1)
    grid = mba_level_coefficients(tensor_rows(space, corner[:, 0], corner[:, 1]), corner[:, 2])
    np.testing.assert_allclose(grid, [[4.25, 0.0], [0.0, 0.0]], atol=1e-12)

    # hand-derived two-point oracle on the same bilinear element
    pts = np.array([[0.25, 0.5, 2.0], [0.75, 0.25, -1.0]])
    grid = mba_level_coefficients(tensor_rows(space, pts[:, 0], pts[:, 1]), pts[:, 2])
    expected = np.zeros((2, 2))
    weights = []
    for x, y, _ in pts:
        weights.append(np.outer([1 - x, x], [1 - y, y]))
    ssq = [float((w**2).sum()) for w in weights]
    for i in range(2):
        for j in range(2):
            num = den = 0.0
            for p, (_, _, z) in enumerate(pts):
                w = weights[p][i, j]
                num += w * w * (w * z / ssq[p])
                den += w * w
            expected[i, j] = num / den if den else 0.0
    np.testing.assert_allclose(grid, expected, atol=1e-12)

    # residual-correction stack: training residual norm never increases
    cloud = hemisphere_cloud(3000, seed=8)
    validation = hemisphere_cloud(800, seed=9)
    surface, _ = fit_mba(cloud, 5, validation)
    pred = np.zeros(cloud.shape[0])
    norms = []
    for level in surface.levels:
        pred += level.evaluate_many(cloud[:, 0], cloud[:, 1])
        norms.append(float(np.mean((cloud[:, 2] - pred) ** 2)))
    assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:])), norms
    print(f"PASS criterion 8: level formula oracles exact; residual norms {norms[0]:.2e} .. {norms[-1]:.2e}")


def test_criterion_09_metric_oracles():
    rng = np.random.default_rng(109)
    for _ in range(200):
        a = rng.uniform(-3, 3, size=(int(rng.integers(1, 101)), 3))
        b = rng.uniform(-3, 3, size=(int(rng.integers(1, 101)), 3))
        assert hausdorff(a, b) == brute_hausdorff(a, b)

    for case in range(100):
        cloud = random_cloud(rng, int(rng.integers(10, 200)))
        bbox = (
            cloud[:, 0].min(), cloud[:, 0].max(), cloud[:, 1].min(), cloud[:, 1].max(),
        )
        elems = int(rng.integers(1, 5))
        space = TensorSplineSpace(
            KnotVector.uniform_open(2, elems, bbox[0], bbox[1]),
            KnotVector.uniform_open(2, elems, bbox[2], bbox[3]),
        )
        surface = fit_surface(cloud, space, WeightSpec.knn(min(5, cloud.shape[0])))
        emap = lmse(surface, cloud, space)
        pooled = float((emap.values * emap.counts).sum() / emap.counts.sum())
        whole = gmse(surface, cloud)
        assert pooled == pytest.approx(whole, rel=1e-12), f"case {case}"
    print("PASS criterion 9: Hausdorff exact on 200 pairs; LMSE/GMSE identity on 100 instances")


def test_criterion_10_cli_determinism(tmp_path):
    cloud = perturb(hemisphere_cloud(400, seed=10), noise_std=0.08, seed=11)
    cloud_path = tmp_path / "cloud.xyz"
    write_cloud(cloud_path, cloud)
    config_path = tmp_path / "run.cfg"
    write_config(RunConfig(k_grid=(1, 2, 3, 4), max_iterations=8, seed=21), config_path)
    artifacts = []
    for tag in ("first", "second"):
        surface_path = tmp_path / f"surface_{tag}.json"
        report_path = tmp_path / f"report_{tag}.json"
        code = cli_main(
            [
                "fit",
                "--cloud", str(cloud_path),
                "--config", str(config_path),
                "--surface-out", str(surface_path),
                "--report-out", str(report_path),
            ]
        )
        assert code == 0
        artifacts.append((surface_path.read_bytes(), report_path.read_bytes()))
    assert artifacts[0][0] == artifacts[1][0], "surface files differ between runs"
    assert artifacts[0][1] == artifacts[1][1], "report files differ between runs"
    report = json.loads(artifacts[0][1])
    assert len(report["report"]["iterations"]) <= 8
    print("PASS criterion 10: repeated fits byte-identical")
