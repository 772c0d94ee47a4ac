"""Tests for the synthetic data generators."""

import numpy as np
import pytest

from wqisa.synthetic import hemisphere_cloud, hemisphere_height, perturb


class TestHemisphere:
    def test_center_height(self):
        # sqrt(64)/8.5 at the cap's apex
        assert hemisphere_height(0.5, 0.5) == pytest.approx(8.0 / 8.5, rel=1e-15)

    def test_all_heights_nonnegative(self):
        cloud = hemisphere_cloud(5000, seed=1)
        assert np.all(cloud[:, 2] >= 0.0)

    def test_positions_inside_support(self):
        cloud = hemisphere_cloud(2000, seed=2)
        radicand = 64.0 - 81.0 * ((cloud[:, 0] - 0.5) ** 2 + (cloud[:, 1] - 0.5) ** 2)
        assert np.all(radicand >= 0.0)
        assert np.all((cloud[:, :2] >= 0.0) & (cloud[:, :2] <= 1.0))

    def test_heights_match_the_function(self):
        cloud = hemisphere_cloud(100, seed=3)
        np.testing.assert_array_equal(
            cloud[:, 2], hemisphere_height(cloud[:, 0], cloud[:, 1])
        )

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(hemisphere_cloud(50, seed=4), hemisphere_cloud(50, seed=4))
        assert not np.array_equal(hemisphere_cloud(50, seed=4), hemisphere_cloud(50, seed=5))

    def test_n_validated(self):
        with pytest.raises(ValueError):
            hemisphere_cloud(0)


class TestPerturb:
    def test_identity_when_disabled(self):
        cloud = hemisphere_cloud(40, seed=6)
        np.testing.assert_array_equal(perturb(cloud, 0.0, 0.0, seed=7), cloud)

    def test_full_replacement(self):
        cloud = hemisphere_cloud(200, seed=8)
        out = perturb(cloud, noise_std=0.0, outlier_fraction=1.0, outlier_scale=3.0, seed=9)
        np.testing.assert_array_equal(out[:, :2], cloud[:, :2])
        assert np.all(out[:, 2] != cloud[:, 2])

    def test_noise_is_zero_mean(self):
        n = 100_000
        cloud = hemisphere_cloud(n, seed=10)
        noisy = perturb(cloud, noise_std=0.5, seed=11)
        delta = noisy[:, 2] - cloud[:, 2]
        assert abs(delta.mean()) < 3 * 0.5 / np.sqrt(n)

    def test_outlier_count(self):
        cloud = hemisphere_cloud(400, seed=12)
        out = perturb(cloud, outlier_fraction=0.25, outlier_scale=5.0, seed=13)
        changed = np.count_nonzero(out[:, 2] != cloud[:, 2])
        assert changed == 100

    def test_fraction_validated(self):
        cloud = hemisphere_cloud(10, seed=14)
        with pytest.raises(ValueError):
            perturb(cloud, outlier_fraction=1.5)

    def test_nan_and_infinite_parameters_rejected(self):
        # NaN fails every comparison, so it must not slip past a `< 0` test
        cloud = hemisphere_cloud(10, seed=17)
        for name, value in (
            ("noise_std", np.nan),
            ("noise_std", np.inf),
            ("noise_std", -0.1),
            ("outlier_scale", np.nan),
            ("outlier_scale", np.inf),
            ("outlier_fraction", np.nan),
        ):
            with pytest.raises(ValueError, match=name):
                perturb(cloud, **{name: value})

    def test_input_not_mutated(self):
        cloud = hemisphere_cloud(30, seed=15)
        copy = cloud.copy()
        perturb(cloud, noise_std=1.0, outlier_fraction=0.5, seed=16)
        np.testing.assert_array_equal(cloud, copy)
