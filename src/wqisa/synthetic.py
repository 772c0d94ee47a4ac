"""Synthetic clouds for tests and benchmarks: a hemisphere cap plus noise."""

from __future__ import annotations

import numpy as np

from .clouds import as_cloud, check_integer


def hemisphere_height(x, y):
    """Height of the benchmark cap: ``sqrt(64 - 81 r^2) / 8.5`` with ``r``
    the distance from ``(0.5, 0.5)``.  The radicand is positive on the whole
    unit square."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    radicand = 64.0 - 81.0 * ((x - 0.5) ** 2 + (y - 0.5) ** 2)
    return np.sqrt(radicand) / 8.5


def hemisphere_cloud(n: int, seed: int = 0) -> np.ndarray:
    """*n* exact samples of the hemisphere cap, planar positions uniform on
    the unit square (which lies inside the cap's support disc)."""
    n = check_integer("n", n, 1)
    rng = np.random.default_rng(check_integer("seed", seed, 0))
    xy = rng.uniform(0.0, 1.0, size=(n, 2))
    return np.column_stack([xy, hemisphere_height(xy[:, 0], xy[:, 1])])


def perturb(
    cloud,
    noise_std: float = 0.0,
    outlier_fraction: float = 0.0,
    outlier_scale: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Add Gaussian z-noise, then replace a fraction of heights with outliers.

    Outliers are uniform draws centered on the original data range, with
    half-width ``outlier_scale`` times half the range.  Positions are left
    untouched; the result is a new cloud, deterministic per seed.
    """
    cloud = as_cloud(cloud)
    # written so that NaN, which fails every comparison, is rejected too
    if not 0.0 <= outlier_fraction <= 1.0:
        raise ValueError(f"outlier_fraction must be in [0, 1], got {outlier_fraction!r}")
    for name, value in (("noise_std", noise_std), ("outlier_scale", outlier_scale)):
        if not 0.0 <= value < np.inf:
            raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
    rng = np.random.default_rng(check_integer("seed", seed, 0))
    out = cloud.copy()
    z = out[:, 2]
    zmin, zmax = float(z.min()), float(z.max())
    if noise_std > 0:
        z += rng.normal(0.0, noise_std, size=z.size)
    n_out = int(round(outlier_fraction * z.size))
    if n_out > 0:
        chosen = rng.choice(z.size, size=n_out, replace=False)
        center = 0.5 * (zmin + zmax)
        half_width = 0.5 * outlier_scale * (zmax - zmin)
        z[chosen] = rng.uniform(center - half_width, center + half_width, size=n_out)
    return out
