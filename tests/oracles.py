"""Independent brute-force reference implementations used by the tests.

Everything here recomputes results from the defining formulas with plain
full scans and sorts, deliberately avoiding the library's spatial index and
span-based evaluation paths; ``reference_fit_mba`` runs the multilevel
baseline's loop from those formulas and takes only each level's
``tensor_rows`` from the library, as ``reference_level_coefficients`` does.
``tricky_surface`` is the one edge-case
surface that several test modules share, ``noisy_cloud`` samples test
surfaces other than the hemisphere (``franke_height``, ``step_height``),
and ``avx512_targets`` names the SIMD targets to switch off when a test
checks bytes without AVX-512.
"""

from __future__ import annotations

import csv
from itertools import chain, islice, repeat
from math import isfinite

import numpy as np

from wqisa.pipeline import STAGNATION_TOL
from wqisa.splines import KnotVector, TensorSplineSpace, WqisaSurface, tensor_rows


def naive_basis(local_knots, t: float) -> float:
    """Two-term recursion straight from the definition, 0/0 treated as 0."""
    lk = [float(v) for v in local_knots]
    p = len(lk) - 2
    if p == 0:
        return 1.0 if lk[0] <= t < lk[1] else 0.0
    total = 0.0
    if lk[p] > lk[0]:
        total += (t - lk[0]) / (lk[p] - lk[0]) * naive_basis(lk[:-1], t)
    if lk[p + 1] > lk[1]:
        total += (lk[p + 1] - t) / (lk[p + 1] - lk[1]) * naive_basis(lk[1:], t)
    return total


def brute_knn_ids(points: np.ndarray, u: float, v: float, k: int) -> np.ndarray:
    """Full sort on (squared distance, id)."""
    d2 = (points[:, 0] - u) ** 2 + (points[:, 1] - v) ** 2
    order = np.lexsort((np.arange(d2.size), d2))
    return order[:k]


def brute_radius_ids(points: np.ndarray, u: float, v: float, r: float) -> np.ndarray:
    d2 = (points[:, 0] - u) ** 2 + (points[:, 1] - v) ** 2
    return np.flatnonzero(d2 <= r * r)


def brute_estimate(cloud: np.ndarray, u: float, v: float, spec) -> float:
    """Control-point estimate recomputed from the weight definitions.

    Returns the same clamped weighted mean the library promises; raises
    ``ValueError`` when no weight is positive so callers can assert the
    failure mode agrees too.
    """
    x, y, z = cloud[:, 0], cloud[:, 1], cloud[:, 2]
    d2 = (x - u) ** 2 + (y - v) ** 2
    n = cloud.shape[0]
    if spec.kind == "indicator":
        w = (d2 <= spec.radius * spec.radius).astype(float)
    elif spec.kind == "gaussian":
        exponent = d2 if spec.gaussian_squared else np.sqrt(d2)
        w = np.exp(-exponent / (2.0 * spec.sigma * spec.sigma))
    elif spec.kind == "knn":
        if spec.k > n:
            raise ValueError("k exceeds cloud size")
        sel = brute_knn_ids(cloud, u, v, spec.k)
        w = np.zeros(n)
        w[sel] = 1.0
    elif spec.kind in ("idw", "idw_truncated"):
        tol = spec.coincidence_tol
        if tol is None:
            dx = cloud[:, 0].max() - cloud[:, 0].min()
            dy = cloud[:, 1].max() - cloud[:, 1].min()
            tol = 1e-12 * np.hypot(dx, dy)
        if spec.kind == "idw_truncated":
            sel = brute_knn_ids(cloud, u, v, min(spec.truncation, n))
        else:
            sel = np.arange(n)
        w = np.zeros(n)
        coincident = sel[d2[sel] <= tol * tol]
        if coincident.size:
            w[coincident] = 1.0 / coincident.size
        else:
            w[sel] = 1.0 / np.sqrt(d2[sel])
    else:
        raise AssertionError(f"unhandled kind {spec.kind}")
    positive = w > 0.0
    if not positive.any():
        raise ValueError("zero total weight")
    zs = z[positive]
    ws = w[positive]
    if spec.outlier_filter and zs.size > 1:
        q1, q3 = np.percentile(zs, (25.0, 75.0))
        iqr = q3 - q1
        keep = (zs >= q1 - spec.fence * iqr) & (zs <= q3 + spec.fence * iqr)
        if keep.any():
            zs = zs[keep]
            ws = ws[keep]
    value = float(np.add.reduceat(zs * ws, [0])[0] / np.add.reduceat(ws, [0])[0])
    return float(min(max(value, zs.min()), zs.max()))


def reference_tukey_fences(z: np.ndarray, starts: np.ndarray, fence: float) -> tuple[np.ndarray, np.ndarray]:
    """Which heights lie inside their row's Tukey fences, with each row's
    quartiles from its own ``np.percentile`` call, and which rows' fences
    reject every height (those rows keep all of theirs)."""
    keep = np.ones(z.size, dtype=bool)
    rejected = np.zeros(starts.size - 1, dtype=bool)
    for row, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
        heights = z[lo:hi]
        if heights.size < 2:
            continue
        q1, q3 = np.percentile(heights, (25.0, 75.0))
        inside = (heights >= q1 - fence * (q3 - q1)) & (heights <= q3 + fence * (q3 - q1))
        rejected[row] = not inside.any()
        keep[lo:hi] = inside | rejected[row]
    return keep, rejected


def reference_cloud_rows(text: str, fmt: str) -> list[list[float]]:
    """The rows of a cloud file's *text*, walked one record at a time.

    The documented rules: XYZ records are whitespace-split lines, CSV records
    follow a header row naming the columns ``x``, ``y`` and ``z``; a blank
    record is skipped; every other record holds the three picked fields, each
    a finite ``float``.  A record is named by the line it starts on, which
    after a quoted CSV field spanning lines is past the record count.  A
    refusal raises ``ValueError`` with the message that follows the path in
    ``read_cloud``'s ``CloudParseError``.
    """
    lines = text.splitlines()
    if fmt == "xyz":
        records, idx = enumerate((line.split() for line in lines), start=1), [0, 1, 2]
    else:
        reader = csv.reader(lines)

        def csv_records():
            while True:
                start = reader.line_num + 1
                try:
                    record = next(reader)
                except StopIteration:
                    return
                except csv.Error as exc:
                    raise ValueError(f"line {reader.line_num}: {exc}") from None
                yield start, record

        records = csv_records()
        header = next(records, None)
        if header is None:
            raise ValueError("empty file")
        header = [h.strip() for h in header[1]]
        columns = ("x", "y", "z")
        if not all(c in header for c in columns):
            raise ValueError(f"header {header!r} is missing one of the columns {columns!r}")
        idx = [header.index(c) for c in columns]
    rows = []
    for line_no, record in records:
        if all(not f.strip() for f in record):
            continue
        if fmt == "xyz" and len(record) != 3:
            raise ValueError(f"line {line_no}: expected 3 values, got {len(record)}")
        if fmt == "csv" and len(record) <= max(idx):
            raise ValueError(f"line {line_no}: too few fields")
        picked = [record[i] for i in idx]
        try:
            row = [float(f) for f in picked]
        except ValueError:
            raise ValueError(f"line {line_no}: cannot parse {picked!r} as numbers") from None
        if not all(isfinite(v) for v in row):
            raise ValueError(f"line {line_no}: non-finite value")
        rows.append(row)
    if not rows:
        raise ValueError("no data rows")
    return rows


# rows formatted per block by the reference writer
_TEMPLATE_ROWS = 512


def reference_cloud_text(cloud: np.ndarray, sep: str = " ") -> str:
    """Rows of ``%.17g`` values joined by *sep*, formatted by Python's ``%``
    through one row template per block of rows."""
    row = sep.join(["%.17g"] * 3) + "\n"
    blocks = (cloud[s : s + _TEMPLATE_ROWS] for s in range(0, len(cloud), _TEMPLATE_ROWS))
    return "".join(row * block.shape[0] % tuple(block.ravel().tolist()) for block in blocks)


def reference_grid_text(xs: np.ndarray, ys: np.ndarray, z: np.ndarray) -> str:
    """The ``x,y,z`` rows of a lattice, x varying slowest, formatted by
    Python's ``%``: each x and y once, and a chunk of y strings as a row
    template."""
    y_text = ["%s," + "%.17g" % y + ",%.17g\n" for y in ys.tolist()]
    templates = ["".join(y_text[i : i + _TEMPLATE_ROWS]) for i in range(0, len(ys), _TEMPLATE_ROWS)]
    parts = []
    for x, z_row in zip(xs.tolist(), z.reshape(len(xs), len(ys))):
        x_z = zip(repeat("%.17g" % x), z_row.tolist())
        for template in templates:
            parts.append(template % tuple(chain.from_iterable(islice(x_z, _TEMPLATE_ROWS))))
    return "".join(parts)


def sample_lattice(surface, counts: tuple[int, int]) -> np.ndarray:
    """``(x, y, z)`` rows of *surface* on a uniform lattice over its domain.

    ``counts`` gives the nodes per axis, ends included; x varies slowest.
    The points come from a meshgrid and z from one ``evaluate_many`` call on
    them, so no per-axis basis rows are shared between points.
    """
    xmin, xmax, ymin, ymax = surface.space.domain
    gx, gy = np.meshgrid(
        np.linspace(xmin, xmax, counts[0]), np.linspace(ymin, ymax, counts[1]), indexing="ij"
    )
    gx = gx.ravel()
    gy = gy.ravel()
    return np.column_stack([gx, gy, surface.evaluate_many(gx, gy)])


def tricky_surface() -> WqisaSurface:
    """Degree 1, so the lattice corners reproduce the coefficients exactly:
    -0.0, a subnormal and a large power of ten among coordinates and values."""
    space = TensorSplineSpace(
        KnotVector(1, [0.1, 0.1, 1.0 / 3.0, 1.0 / 3.0]),
        KnotVector(1, [-0.0, -0.0, 1e22, 1e22]),
    )
    return WqisaSurface(space, np.array([[0.1, 5e-324], [1e22, -0.0]]))


def brute_directed_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    worst = 0.0
    for row in a:
        nearest = np.sqrt(((b - row) ** 2).sum(axis=1)).min()
        worst = max(worst, float(nearest))
    return worst


def brute_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    return max(brute_directed_hausdorff(a, b), brute_directed_hausdorff(b, a))


def reference_level_coefficients(rows, z) -> np.ndarray:
    """One MBA level's coefficients from a ``TensorRows`` *rows* and heights
    *z*, in plain Python floats: each point's ``ssq`` is the sum of its
    squared x values times that of its y values, and each coefficient sums
    its ``w * w * w * z / ssq`` and ``w * w`` from 0.0, slots outermost in
    ``(a, b)`` order and within a slot the points in order; a coefficient
    with no term is 0.0."""
    bx, by, base, z = rows.bx.tolist(), rows.by.tolist(), rows.base.tolist(), list(map(float, z))
    ssq = [sum(v[m] * v[m] for v in bx) * sum(v[m] * v[m] for v in by) for m in range(len(base))]
    nx, ny = rows.shape
    numerator, denominator = [0.0] * (nx * ny), [0.0] * (nx * ny)
    for a, row_x in enumerate(bx):
        for b, row_y in enumerate(by):
            for m, first in enumerate(base):
                w = row_x[m] * row_y[m]
                numerator[first + a * ny + b] += w * w * w * z[m] / ssq[m]
                denominator[first + a * ny + b] += w * w
    grid = [num / den if den > 0.0 else 0.0 for num, den in zip(numerator, denominator)]
    return np.array(grid).reshape(nx, ny)


def reference_basis_values(kv: KnotVector, t: float) -> list[float]:
    """Every basis value of *kv* at *t* by ``naive_basis``, 0.0 outside a
    basis function's support; at the right end of the domain, which no
    half-open support holds, the left limit: the last basis value is 1."""
    knots, p, n = kv.knots.tolist(), kv.degree, kv.num_basis
    if t == kv.domain[1]:
        return [0.0] * (n - 1) + [1.0]
    return [naive_basis(knots[i : i + p + 2], t) if knots[i] <= t < knots[i + p + 1] else 0.0 for i in range(n)]


def reference_value(space: TensorSplineSpace, grid: np.ndarray, x: float, y: float) -> float:
    """The surface value ``sum c[i, j] * B_i(x) * B_j(y)`` over every coefficient, unclamped."""
    bx, by, rows = reference_basis_values(space.knots_x, x), reference_basis_values(space.knots_y, y), grid.tolist()
    return sum(c * u * v for row, u in zip(rows, bx) for c, v in zip(row, by))


def reference_fit_mba(cloud: np.ndarray, max_levels: int, validation: np.ndarray, degrees, domain):
    """MBA's level loop in plain loops, with the stop rules ``fit_mba``
    documents: level ``l`` lies on ``2**l`` elements a side; a level after
    the first with more coefficients than *cloud* has points is not fitted;
    a level whose validation GMSE rises is scored but not kept; a level that
    lowers it by at most ``STAGNATION_TOL`` of the previous GMSE is kept and
    ends the fit.  Each level's coefficients are ``reference_level_coefficients``
    of the residual heights, and every value is a ``reference_value`` sum.
    Returns the kept levels as ``(space, grid)`` pairs and the GMSE history."""
    levels, history, residual = [], [], cloud[:, 2].tolist()
    for level in range(max_levels):
        space = TensorSplineSpace.uniform(degrees, domain, 2**level)
        if level > 0 and space.shape[0] * space.shape[1] > len(cloud):
            break
        grid = reference_level_coefficients(tensor_rows(space, cloud[:, 0], cloud[:, 1]), residual)
        kept = levels + [(space, grid)]
        errors = [z - sum(reference_value(s, g, x, y) for s, g in kept) for x, y, z in validation.tolist()]
        history.append(sum(e * e for e in errors) / len(errors))
        if level > 0 and history[-1] > history[-2]:
            break
        levels = kept
        if level > 0 and history[-2] - history[-1] <= STAGNATION_TOL * history[-2]:
            break
        residual = [r - reference_value(space, grid, x, y) for r, (x, y, _) in zip(residual, cloud.tolist())]
    return levels, history


def mba_level_count(surface: WqisaSurface) -> int:
    """The levels an MBA fit kept, read off its mesh: level ``l`` has ``2**l`` elements a side."""
    return surface.space.element_counts[0].bit_length()


def random_cloud(rng: np.random.Generator, n: int, scale: float = 1.0, dupes: bool = False) -> np.ndarray:
    """Random cloud on a random box; optionally duplicate a few rows."""
    origin = rng.uniform(-5, 5, size=2)
    widths = rng.uniform(0.5, 2.0, size=2) * scale
    xy = origin + rng.uniform(0.0, 1.0, size=(n, 2)) * widths
    z = rng.uniform(-3.0, 3.0, size=n)
    cloud = np.column_stack([xy, z])
    if dupes and n >= 4:
        take = rng.integers(1, max(2, n // 8), endpoint=True)
        src = rng.choice(n, size=take)
        dst = rng.choice(n, size=take)
        cloud[dst] = cloud[src]
    return cloud


def franke_height(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Franke's test function: two bumps, a ridge and a dip on the unit
    square (Franke, Math. Comp. 38, 1982)."""
    x, y = 9.0 * x, 9.0 * y
    return (
        0.75 * np.exp(-((x - 2.0) ** 2 + (y - 2.0) ** 2) / 4.0)
        + 0.75 * np.exp(-((x + 1.0) ** 2) / 49.0 - (y + 1.0) / 10.0)
        + 0.5 * np.exp(-((x - 7.0) ** 2 + (y - 3.0) ** 2) / 4.0)
        - 0.2 * np.exp(-((x - 4.0) ** 2) - (y - 7.0) ** 2)
    )


def step_height(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A unit step along the straight line ``x + y / 2 = 0.75``, which no
    knot line of a uniform mesh follows."""
    return np.where(x + 0.5 * y < 0.75, 0.0, 1.0)


def octave_height(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Terrain of four octaves of a sinusoid: each octave doubles the
    frequency, halves the amplitude and shifts the phase."""
    return sum(
        0.5**o * np.sin(2.0 * np.pi * 2**o * x + o) * np.cos(2.0 * np.pi * 2**o * y - 0.5 * o)
        for o in range(4)
    )


def uniform_plane(rng: np.random.Generator, n: int) -> np.ndarray:
    """*n* points uniform on the unit square."""
    return rng.uniform(0.0, 1.0, size=(n, 2))


# the hole of holed_plane: the disc of this radius about (0.5, 0.5)
HOLE_RADIUS = 0.1


def holed_plane(rng: np.random.Generator, n: int) -> np.ndarray:
    """*n* points uniform on the unit square minus the closed disc of radius
    ``HOLE_RADIUS`` about (0.5, 0.5), drawn by rejection."""
    xy = np.empty((0, 2))
    while len(xy) < n:
        draw = uniform_plane(rng, n)
        xy = np.concatenate([xy, draw[((draw - 0.5) ** 2).sum(axis=1) > HOLE_RADIUS**2]])
    return xy[:n]


def graded_plane(rng: np.random.Generator, n: int) -> np.ndarray:
    """*n* points on the unit square with x drawn as u**4 for uniform u: dense
    near x = 0, sparse near x = 1, so leaf cells differ widely in size."""
    xy = uniform_plane(rng, n)
    return np.column_stack([xy[:, 0] ** 4, xy[:, 1]])


def noisy_cloud(height, n: int, seed: int, noise_std: float = 0.05, plane=uniform_plane) -> np.ndarray:
    """*n* points drawn on the unit square by *plane* at *height* plus Gaussian noise."""
    rng = np.random.default_rng(seed)
    xy = plane(rng, n)
    return np.column_stack([xy, height(xy[:, 0], xy[:, 1]) + rng.normal(0.0, noise_std, n)])


def avx512_targets() -> list[str]:
    """The AVX-512 targets numpy dispatches and the CPU has, as
    ``NPY_DISABLE_CPU_FEATURES`` names them: none on numpy 1.x or on a CPU
    without AVX-512."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        return []
    return [
        f for f in __cpu_dispatch__
        if __cpu_features__.get(f) and (f.startswith("AVX512") or f == "X86_V4")
    ]
