"""Tests for cloud files, surface persistence, and run configurations."""

import numpy as np
import pytest

from wqisa.io import (
    _ROWS_PER_BLOCK,
    CloudParseError,
    ConfigError,
    RunConfig,
    format_config,
    load_surface,
    parse_config,
    read_cloud,
    save_surface,
    write_cloud,
    write_surface_grid,
)
from wqisa.splines import KnotVector, TensorSplineSpace, WqisaSurface
from wqisa.weights import KERNELS, WEIGHT_KINDS, WeightSpec, fit_surface

from oracles import random_cloud


FORMATS = ["xyz", "csv"]


def assert_rejected(path, text, message):
    """Reading *text* from *path* raises a CloudParseError matching *message*."""
    path.write_text(text)
    with pytest.raises(CloudParseError, match=message):
        read_cloud(path)


class TestReadCloud:
    def test_xyz_two_points(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("0 0 1\n1 0 3\n")
        cloud = read_cloud(path)
        np.testing.assert_array_equal(cloud, [[0, 0, 1], [1, 0, 3]])

    def test_csv_with_shuffled_columns(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("height,east,north\n7.5,1.0,2.0\n8.5,3.0,4.0\n")
        cloud = read_cloud(path, columns=("east", "north", "height"))
        np.testing.assert_array_equal(cloud, [[1, 2, 7.5], [3, 4, 8.5]])

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("c.xyz", "a b c\n", r"line 1: cannot parse \['a', 'b', 'c'\]"),
            ("c.csv", "x,y,z\n0,0,1\n1,b,2\n", r"line 3: cannot parse \['1', 'b', '2'\]"),
        ],
        ids=FORMATS,
    )
    def test_malformed_row_names_line(self, tmp_path, name, text, message):
        assert_rejected(tmp_path / name, text, message)

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("c.xyz", "0 0 1\n1 2\n", "line 2: expected 3 values, got 2"),
            ("c.csv", "x,y,z\n0,0,1\n1,2\n", "line 3: too few fields"),
        ],
        ids=FORMATS,
    )
    def test_wrong_field_count_names_line(self, tmp_path, name, text, message):
        assert_rejected(tmp_path / name, text, message)

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("c.xyz", "0 0 nan\n", "line 1: non-finite value"),
            ("c.csv", "x,y,z\n0,0,1\n1,inf,2\n", "line 3: non-finite value"),
        ],
        ids=FORMATS,
    )
    def test_non_finite_rejected(self, tmp_path, name, text, message):
        assert_rejected(tmp_path / name, text, message)

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("c.xyz", "0 0 1\n\n  \n1 2\n", "line 4: expected 3 values"),
            ("c.csv", "x,y,z\n\n0,0,1\n , ,\n1,2\n", "line 5: too few fields"),
        ],
        ids=FORMATS,
    )
    def test_error_after_blank_line_names_file_line(self, tmp_path, name, text, message):
        # blank records are skipped but still counted
        assert_rejected(tmp_path / name, text, message)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("")
        with pytest.raises(CloudParseError, match="no data"):
            read_cloud(path)

    def test_empty_csv_rejected(self, tmp_path):
        assert_rejected(tmp_path / "c.csv", "", "empty file")

    def test_missing_csv_column_reported(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(CloudParseError, match="missing"):
            read_cloud(path)

    def test_row_order_preserved(self, tmp_path):
        cloud = random_cloud(np.random.default_rng(0), 100)
        path = tmp_path / "c.xyz"
        write_cloud(path, cloud)
        np.testing.assert_array_equal(read_cloud(path), cloud)

    def test_csv_roundtrip(self, tmp_path):
        cloud = random_cloud(np.random.default_rng(1), 50)
        path = tmp_path / "c.csv"
        write_cloud(path, cloud)
        np.testing.assert_array_equal(read_cloud(path), cloud)


class TestBlockParse:
    """``read_cloud`` parses blocks of ``_ROWS_PER_BLOCK`` records at once and
    walks a block record by record only when it fails."""

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_roundtrip_is_bit_exact(self, tmp_path, fmt):
        cloud = random_cloud(np.random.default_rng(5), 10_000)
        cloud[7] = (-0.0, 5e-324, 1e22)
        cloud[_ROWS_PER_BLOCK + 1] = (1e22, -0.0, -5e-324)
        cloud[-1] = (5e-324, 1e22, -0.0)
        path = tmp_path / f"c.{fmt}"
        write_cloud(path, cloud)
        got = read_cloud(path)
        assert got.shape == cloud.shape and got.dtype == np.float64
        assert got.tobytes() == cloud.tobytes()  # -0.0 keeps its sign bit

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_blank_records_in_a_later_block_are_skipped(self, tmp_path, fmt):
        cloud = random_cloud(np.random.default_rng(6), _ROWS_PER_BLOCK + 50)
        path = tmp_path / f"c.{fmt}"
        write_cloud(path, cloud)
        lines = path.read_text().splitlines()
        blank = "" if fmt == "xyz" else " , ,"
        lines[_ROWS_PER_BLOCK + 10 : _ROWS_PER_BLOCK + 10] = [blank, "   "]
        path.write_text("\n".join(lines) + "\n")
        assert read_cloud(path).tobytes() == cloud.tobytes()

    @pytest.mark.parametrize(
        "fmt, row, message",
        [
            ("xyz", "1 b 2", r"cannot parse \['1', 'b', '2'\]"),
            ("xyz", "1 2", "expected 3 values, got 2"),
            ("xyz", "1 2 3 4", "expected 3 values, got 4"),
            ("xyz", "1 inf 2", "non-finite value"),
            ("csv", "1,b,2", r"cannot parse \['1', 'b', '2'\]"),
            ("csv", "1,2", "too few fields"),
            ("csv", "1,2,nan", "non-finite value"),
        ],
    )
    @pytest.mark.parametrize("offset", [0, 17, _ROWS_PER_BLOCK - 1])
    def test_bad_row_past_the_first_block_names_its_line(self, tmp_path, fmt, row, message, offset):
        cloud = random_cloud(np.random.default_rng(7), 2 * _ROWS_PER_BLOCK + 30)
        path = tmp_path / f"c.{fmt}"
        write_cloud(path, cloud)
        lines = path.read_text().splitlines()
        # a row in the second block of records, the header being no record
        header = 1 if fmt == "csv" else 0
        at = header + _ROWS_PER_BLOCK + offset
        lines[at] = row
        # a second bad row later on: the first one is reported
        lines[at + 5] = row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CloudParseError, match=rf"line {at + 1}: {message}"):
            read_cloud(path)

    def test_columns_must_be_three(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("x,y,z,w\n1,2,3,4\n")
        with pytest.raises(ValueError, match="x, y and z"):
            read_cloud(path, columns=("x", "y", "z", "w"))


# 17 significant digits, the exponent and sign rules of %.17g, and -0 kept
TRICKY_ROWS = (
    "0.10000000000000001{0}0.33333333333333331{0}-0\n"
    "4.9406564584124654e-324{0}1e+22{0}-2.5\n"
)


class TestWrittenText:
    def test_cloud_rows(self, tmp_path):
        cloud = np.array([[0.1, 1.0 / 3.0, -0.0], [5e-324, 1e22, -2.5]])
        write_cloud(tmp_path / "c.xyz", cloud)
        write_cloud(tmp_path / "c.csv", cloud)
        assert (tmp_path / "c.xyz").read_text() == TRICKY_ROWS.format(" ")
        assert (tmp_path / "c.csv").read_text() == "x,y,z\n" + TRICKY_ROWS.format(",")

    def test_many_rows_match_row_by_row_formatting(self, tmp_path):
        cloud = random_cloud(np.random.default_rng(4), 10_000)
        path = tmp_path / "c.xyz"
        write_cloud(path, cloud)
        assert path.read_text() == "".join(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in cloud)

    def test_surface_grid_rows(self, tmp_path):
        # degree 1, so the lattice corners reproduce the coefficients exactly
        space = TensorSplineSpace(
            KnotVector(1, [0.1, 0.1, 1.0 / 3.0, 1.0 / 3.0]),
            KnotVector(1, [-0.0, -0.0, 1e22, 1e22]),
        )
        surface = WqisaSurface(space, np.array([[0.1, 5e-324], [1e22, -0.0]]))
        path = tmp_path / "grid.csv"
        write_surface_grid(surface, (3, 2), path)
        assert path.read_text() == (
            "x,y,z\n"
            "0.10000000000000001,0,0.10000000000000001\n"
            "0.10000000000000001,1e+22,4.9406564584124654e-324\n"
            "0.21666666666666667,0,5.000000000000001e+21\n"
            "0.21666666666666667,1e+22,-0\n"
            "0.33333333333333331,0,1e+22\n"
            "0.33333333333333331,1e+22,-0\n"
        )


class TestSurfacePersistence:
    def make_surface(self) -> WqisaSurface:
        rng = np.random.default_rng(2)
        cloud = random_cloud(rng, 120)
        bbox = (cloud[:, 0].min(), cloud[:, 0].max(), cloud[:, 1].min(), cloud[:, 1].max())
        space = TensorSplineSpace.single_element((2, 2), bbox)
        return fit_surface(cloud, space, WeightSpec.knn(4))

    def test_json_roundtrip_is_exact(self, tmp_path):
        surface = self.make_surface()
        path = tmp_path / "s.json"
        save_surface(surface, path)
        loaded = load_surface(path)
        np.testing.assert_array_equal(loaded.coefficients, surface.coefficients)
        np.testing.assert_array_equal(loaded.space.knots_x.knots, surface.space.knots_x.knots)
        np.testing.assert_array_equal(loaded.space.knots_y.knots, surface.space.knots_y.knots)
        rng = np.random.default_rng(3)
        xmin, xmax, ymin, ymax = surface.space.domain
        xs = rng.uniform(xmin, xmax, size=1000)
        ys = rng.uniform(ymin, ymax, size=1000)
        np.testing.assert_array_equal(loaded.evaluate_many(xs, ys), surface.evaluate_many(xs, ys))

    def test_grid_roundtrip_is_exact(self, tmp_path):
        surface = self.make_surface()
        path = tmp_path / "grid.csv"
        write_surface_grid(surface, (7, 5), path)
        grid = read_cloud(path)
        assert grid.shape == (35, 3)
        np.testing.assert_array_equal(
            surface.evaluate_many(grid[:, 0], grid[:, 1]), grid[:, 2]
        )

    def test_grid_minimum_resolution(self, tmp_path):
        surface = self.make_surface()
        with pytest.raises(ValueError, match="resolution"):
            write_surface_grid(surface, (1, 5), tmp_path / "g.csv")

    def test_two_by_two_grid_hits_corners(self, tmp_path):
        surface = self.make_surface()
        path = tmp_path / "grid.csv"
        write_surface_grid(surface, (2, 2), path)
        grid = read_cloud(path)
        xmin, xmax, ymin, ymax = surface.space.domain
        expected = {(xmin, ymin), (xmin, ymax), (xmax, ymin), (xmax, ymax)}
        assert {(x, y) for x, y, _ in grid} == expected


class TestRunConfig:
    def test_roundtrip_losslessly(self):
        config = RunConfig(
            weight="gaussian",
            sigma_grid=(0.1, 0.27, 1.0 / 3.0),
            epsilon=1.25e-4,
            seed=42,
            outlier_filter=True,
        )
        assert parse_config(format_config(config)) == config

    def test_default_roundtrip(self):
        config = RunConfig()
        assert parse_config(format_config(config)) == config

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\nseed = 9\nweight = idw\n"
        config = parse_config(text)
        assert config.seed == 9
        assert config.weight == "idw"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("wavelength = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config("seed = banana\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("seed 3\n")

    def test_epsilon_auto(self):
        config = parse_config("epsilon = auto\n")
        assert config.epsilon is None

    @pytest.mark.parametrize("kind", WEIGHT_KINDS)
    def test_to_fit_config(self, kind):
        grids = {
            "knn": [1, 2, 3],
            "indicator": [0.1, 0.25],
            "gaussian": [0.2, 0.5],
            "idw": [None],
            "idw_truncated": [7],
        }
        run = RunConfig(
            weight=kind,
            k_grid=(1, 2, 3),
            radius_grid=(0.1, 0.25),
            sigma_grid=(0.2, 0.5),
            truncation=7,
            coincidence_tolerance=1e-3,
            gaussian_squared=True,
        )
        config = parse_config(format_config(run)).to_fit_config()
        optional = KERNELS[kind].optional
        assert config.weight_kind == kind
        assert [spec.parameter for spec in config.weight_grid] == grids[kind]
        for spec in config.weight_grid:
            assert spec.coincidence_tol == (1e-3 if "coincidence_tol" in optional else None)
            assert spec.gaussian_squared == ("gaussian_squared" in optional)

    def test_to_fit_config_requires_grid(self):
        with pytest.raises(ConfigError, match="radius_grid"):
            RunConfig(weight="indicator", radius_grid=()).to_fit_config()

    def test_unknown_weight_rejected(self):
        with pytest.raises(ConfigError, match="weight"):
            RunConfig(weight="spline")
