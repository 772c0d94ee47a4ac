"""Tests for cloud files, surface persistence, and run configurations."""

import re
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wqisa.io import (
    _ROWS_PER_BLOCK,
    _fields,
    CloudParseError,
    ConfigError,
    RunConfig,
    format_config,
    load_surface,
    parse_config,
    read_cloud,
    read_config,
    save_surface,
    write_cloud,
    write_report,
    write_surface_grid,
)
from wqisa.pipeline import FitConfig
from wqisa.splines import KnotVector, TensorSplineSpace, WqisaSurface
from wqisa.weights import KERNELS, WEIGHT_KINDS, WeightSpec, fit_surface

from oracles import (
    random_cloud,
    reference_cloud_rows,
    reference_cloud_text,
    reference_grid_text,
    sample_lattice,
    tricky_surface,
)


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

    def test_line_after_a_field_spanning_lines_is_the_file_line(self, tmp_path):
        # the quoted field of record 2 spans lines 2 and 3, so the bad record
        # is the file's line 4
        assert_rejected(tmp_path / "c.csv", 'x,y,z\n"1\n",2,3\n1,b,2\n', r"line 4: cannot parse")

    def test_record_spanning_lines_is_named_by_its_first(self, tmp_path):
        assert_rejected(tmp_path / "c.csv", 'x,y,z\n0,0,1\n"1\n",b,3\n', r"line 3: cannot parse")

    @pytest.mark.parametrize(
        "text, field, line",
        [
            # numpy reads these digits as inf
            ("x,y,z\n0,0,1\n0,0,{}\n", "1" * 200_000, 3),
            ("x,y,{}\n0,0,1\n", "1" * 200_000, 1),
            # and these as 0, a finite value, quoted or not
            ("x,y,z\n0,0,{}\n", "0." + "0" * 200_000 + "1", 2),
            ('"x","y","z"\n"0","0","{}"\n', "0." + "0" * 200_000 + "1", 2),
        ],
        ids=["record", "header", "finite", "quoted"],
    )
    def test_oversized_csv_field_names_line(self, tmp_path, text, field, line):
        # longer than the csv module's field limit
        path = tmp_path / "c.csv"
        path.write_text(text.format(field))
        message = rf"^{re.escape(str(path))}: line {line}: field larger"
        with pytest.raises(CloudParseError, match=message):
            read_cloud(path)

    @pytest.mark.parametrize(
        "name, data, line",
        [
            ("c.xyz", b"0 0 1\n1 0 3\xe9\n", 2),
            ("c.csv", b"\xef\xbb\xbfx,y,z\n0,0,1\n\n1,0,\xff\n", 4),
            ("c.xyz", b"\x80", 1),
        ],
    )
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, name, data, line):
        path = tmp_path / name
        path.write_bytes(data)
        message = rf"^{re.escape(str(path))}: line {line}: not UTF-8: byte 0x"
        with pytest.raises(CloudParseError, match=message):
            read_cloud(path)

    @pytest.mark.parametrize(
        "name, text", [("c.xyz", "0 0 1\n1 0 3\n"), ("c.csv", "x,y,z\n0,0,1\n1,0,3\n")], ids=FORMATS
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, name, text):
        # Excel and Notepad start a UTF-8 file with one
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        np.testing.assert_array_equal(read_cloud(path), [[0, 0, 1], [1, 0, 3]])

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
    """``read_cloud`` parses a whole file with numpy's reader and walks it
    record by record only when that fails; the clouds here are longer than
    one ``_ROWS_PER_BLOCK`` write block."""

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


# what Python's float() and numpy's reader could disagree on: underscores,
# non-ASCII digits, quotes, blanks, tabs and the unit separator U+001F beside
# digits, signs and exponents
_PIECES = st.sampled_from(
    [*"0123456789+-.eE_\" \t\x1f", "nan", "inf", "\u0661", "\u0969", "\uff11"]
)
_NUMBERS = st.builds(
    lambda value, spec: spec % value, st.floats(), st.sampled_from(["%r", "%.17g", "%.5e", "%.3f"])
)
_FIELDS = st.one_of(_NUMBERS, st.lists(_PIECES, max_size=5).map("".join))
# three numbers make files that are accepted; any 0-5 fields, ones that are not
_RECORDS = st.one_of(st.lists(_NUMBERS, min_size=3, max_size=3), st.lists(_FIELDS, max_size=5))


@settings(
    derandomize=True,
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    fmt=st.sampled_from(FORMATS),
    header=st.sampled_from(["x,y,z", "z,x,y", "w,y,x,z", "x,y", "x, y ,z,"]),
    records=st.lists(_RECORDS, max_size=6),
    end=st.sampled_from(["", "\n"]),
)
# numpy strips U+001F from a field's ends, float() does not
@example(fmt="csv", header="x,y,z", records=[["0", "0", "1\x1f"]], end="\n")
@example(fmt="csv", header="x,y,z", records=[["0", "\x1f0", "1"]], end="")
# a quoted header field spans two lines, and the data start after both
@example(fmt="csv", header='x,y,z,"\n0,0,0,"', records=[], end="")
def test_reader_agrees_with_the_reference_walk(tmp_path, fmt, header, records, end):
    """``read_cloud`` accepts exactly the files the one-record-at-a-time
    reference accepts, with the same bits, and refuses the others with the
    same message."""
    lines = [(" " if fmt == "xyz" else ",").join(record) for record in records]
    if fmt == "csv":
        lines.insert(0, header)
    text = "\n".join(lines) + end
    path = tmp_path / f"c.{fmt}"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no reader warning reaches the user
        try:
            expected = reference_cloud_rows(text, fmt)
        except ValueError as exc:
            with pytest.raises(CloudParseError) as refused:
                read_cloud(path)
            assert str(refused.value) == f"{path}: {exc}"
        else:
            got = read_cloud(path)
            assert got.shape == (len(expected), 3)
            assert got.tobytes() == np.array(expected).tobytes()


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
        path = tmp_path / "grid.csv"
        write_surface_grid(tricky_surface(), (3, 2), path)
        assert path.read_text() == (
            "x,y,z\n"
            "0.10000000000000001,0,0.10000000000000001\n"
            "0.10000000000000001,1e+22,4.9406564584124654e-324\n"
            "0.21666666666666667,0,5.000000000000001e+21\n"
            "0.21666666666666667,1e+22,-0\n"
            "0.33333333333333331,0,1e+22\n"
            "0.33333333333333331,1e+22,-0\n"
        )


    @pytest.mark.parametrize("suffix", [".csv", ".xyz"])
    @pytest.mark.parametrize("resolution", [(2, 2), (3, 2), (7, 5), (3, 1100), (1100, 3)])
    @pytest.mark.parametrize("make_surface", ["tricky", "negative"])
    def test_surface_grid_is_the_lattice_cloud(self, tmp_path, resolution, make_surface, suffix):
        # the grid formats each lattice x and y once; its bytes are those of
        # the sampled lattice written as a cloud of the same extension, also
        # when y spans chunks
        if make_surface == "tricky":
            surface = tricky_surface()
        else:
            space = TensorSplineSpace(
                KnotVector.uniform_open(2, 3, -7.25, -1.0 / 3.0),
                KnotVector.uniform_open(3, 4, -1e-3, 2.0 / 7.0),
            )
            surface = WqisaSurface(space, np.random.default_rng(6).normal(size=space.shape))
        grid, lattice = tmp_path / f"grid{suffix}", tmp_path / f"lattice{suffix}"
        write_surface_grid(surface, resolution, grid)
        write_cloud(lattice, sample_lattice(surface, resolution))
        assert grid.read_bytes() == lattice.read_bytes()


def field_text(values) -> list[str]:
    """The texts ``_fields`` gives *values*: each row's chars up to its first NUL."""
    return [bytes(row).split(b"\0")[0].decode() for row in _fields(np.asarray(values, dtype=float))]


def nudged(values, steps) -> np.ndarray:
    """*values* moved by each count of ulps in *steps*, toward +inf or -inf."""
    out = []
    for value in values:
        for step in steps:
            moved = value
            for _ in range(abs(step)):
                moved = np.nextafter(moved, np.inf if step > 0 else -np.inf)
            out.append(moved)
    return np.array(out)


class TestFieldText:
    """``_fields`` writes the bytes of ``'%.17g' % v`` for every float64."""

    def assert_percent(self, values):
        values = np.asarray(values, dtype=float)
        assert field_text(values) == ["%.17g" % v for v in values.tolist()]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_any_bit_pattern(self, bits):
        self.assert_percent(np.array(bits, dtype=np.uint64).view(np.float64))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.floats(1e-4, 1e16, exclude_max=True), min_size=1, max_size=40))
    def test_any_value_of_the_fast_range(self, values):
        self.assert_percent(values + [-v for v in values])

    def test_powers_of_ten_and_their_neighbours(self):
        powers = [float(f"1e{k}") for k in range(-6, 18)]
        values = nudged(powers, [-2, -1, 0, 1, 2])
        self.assert_percent(np.concatenate([values, -values]))

    def test_ties_round_half_to_even(self):
        # few-bit doubles whose exact decimal value has 18 significant
        # digits, the last a 5: %.17g rounds each half to even
        rng = np.random.default_rng(12)
        mantissas = rng.integers(1, 2**20, 20_000).astype(float)
        candidates = np.ldexp(mantissas, rng.integers(-40, 40, 20_000))
        ties = [v for v in candidates.tolist() if len(Decimal(v).as_tuple().digits) == 18
                and Decimal(v).as_tuple().digits[-1] == 5]
        assert len(ties) > 20
        self.assert_percent(ties + [-v for v in ties])

    def test_every_layout(self):
        # the fast path lays out a value by its decimal exponent (-4..15),
        # sign and count of significant digits (1..17): 680 layouts.  The
        # nearest double to a random significand of `kept` digits often
        # prints with just those digits, and its %.17g text names its layout
        rng = np.random.default_rng(21)
        values = [
            float(f"{m}e{e - kept + 1}")
            for e in range(-4, 16)
            for kept in range(1, 18)
            for m in rng.integers(10 ** (kept - 1), 10**kept, 64).tolist()
        ]
        values += [-v for v in values]
        layouts = set()
        for text in ("%.17g" % v for v in values):
            if "e" not in text:
                digits = Decimal(text).normalize().as_tuple().digits
                layouts.add((Decimal(text).adjusted(), text[0] == "-", len(digits)))
        assert layouts == {(e, s, k) for e in range(-4, 16) for s in (False, True) for k in range(1, 18)}
        self.assert_percent(values)

    def test_slow_path_values(self):
        # zeros, subnormals, and the two ends of the fast range
        tiny = np.finfo(float).tiny
        values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, tiny, -tiny,
                  *nudged([1e-4, 1e16, -1e-4, -1e16], [-1, 0, 1]), 1.7976931348623157e308,
                  float("inf"), -float("inf"), float("nan")]
        self.assert_percent(values)

    def test_text_fits_a_field(self):
        assert field_text([-4.9406564584124654e-324, -2.2250738585072014e-308]) == [
            "-4.9406564584124654e-324", "-2.2250738585072014e-308"
        ]


class TestWrittenBytes:
    """Clouds and grids are byte for byte what Python's ``%`` writes."""

    @pytest.mark.parametrize("fmt, sep", [("xyz", " "), ("csv", ",")])
    def test_cloud_is_the_reference_text(self, tmp_path, fmt, sep):
        rng = np.random.default_rng(8)
        cloud = random_cloud(rng, 2 * _ROWS_PER_BLOCK + 7)
        cloud[:, 2] *= 10.0 ** rng.integers(-8, 20, cloud.shape[0])  # both paths in one block
        cloud[5] = (0.0, -0.0, 5e-324)
        cloud[_ROWS_PER_BLOCK] = (-1e16, -1e-4, -1.5)
        path = tmp_path / f"c.{fmt}"
        write_cloud(path, cloud)
        header = "x,y,z\n" if fmt == "csv" else ""
        assert path.read_text() == header + reference_cloud_text(cloud, sep)

    @pytest.mark.parametrize("resolution", [(2, 2), (3, 1100), (1100, 3), (500, 500)])
    def test_grid_is_the_reference_text(self, tmp_path, resolution):
        space = TensorSplineSpace(
            KnotVector.uniform_open(2, 3, -7.25, -1.0 / 3.0),
            KnotVector.uniform_open(3, 4, -1e-3, 2.0 / 7.0),
        )
        surface = WqisaSurface(space, np.random.default_rng(9).normal(size=space.shape))
        self.assert_grid(tmp_path, surface, resolution)

    def test_grid_of_zeros_is_the_reference_text(self, tmp_path):
        # every z is formatted by %
        space = TensorSplineSpace(KnotVector.uniform_open(1, 2), KnotVector.uniform_open(2, 2))
        self.assert_grid(tmp_path, WqisaSurface(space, np.zeros(space.shape)), (40, 30))

    def test_non_finite_grid_refused_before_writing(self, tmp_path, monkeypatch):
        space = TensorSplineSpace(KnotVector.uniform_open(1, 2), KnotVector.uniform_open(1, 2))
        monkeypatch.setattr(
            WqisaSurface, "evaluate_lattice", lambda self, xs, ys: np.full(xs.size * ys.size, np.nan)
        )
        path = tmp_path / "grid.csv"
        with pytest.raises(ValueError, match="non-finite"):
            write_surface_grid(WqisaSurface(space, np.zeros(space.shape)), (3, 3), path)
        assert not path.exists()

    def assert_grid(self, tmp_path, surface, resolution):
        lattice = sample_lattice(surface, resolution)
        ry = resolution[1]
        path = tmp_path / "grid.csv"
        write_surface_grid(surface, resolution, path)
        expected = reference_grid_text(lattice[::ry, 0], lattice[:ry, 1], lattice[:, 2])
        assert path.read_text() == "x,y,z\n" + expected


class TestWriteReport:
    def test_sorted_and_indented(self, tmp_path):
        path = tmp_path / "r.json"
        write_report({"b": [1, 0.1], "a": {"d": None, "c": -0.0}}, path)
        assert path.read_text() == (
            '{\n  "a": {\n    "c": -0.0,\n    "d": null\n  },\n'
            '  "b": [\n    1,\n    0.1\n  ]\n}\n'
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_number_refused(self, tmp_path, value):
        path = tmp_path / "r.json"
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: report not written"):
            write_report({"stats": {"mse": 0.5, "max_abs": np.float64(value)}}, path)
        assert not path.exists()


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

    def test_default_run_is_the_library_default(self):
        # the CLI's default run and the library's default run cannot drift
        assert RunConfig().to_fit_config() == FitConfig()

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\nseed = 9\nweight = idw\n"
        config = parse_config(text)
        assert config.seed == 9
        assert config.weight == "idw"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xef\xbb\xbfweight = idw\n")
        assert read_config(path) == RunConfig(weight="idw")

    def test_non_utf8_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes("seed = 3\n# café\n".encode("latin-1"))
        message = rf"^{re.escape(str(path))}: line 2: not UTF-8: byte 0xe9"
        with pytest.raises(ConfigError, match=message):
            read_config(path)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("wavelength = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config("seed = banana\n")

    @pytest.mark.parametrize(
        "line",
        ["epsilon = inf", "fence = nan", "sigma_grid = 0.1,-inf", "coincidence_tolerance = inf"],
    )
    def test_non_finite_value_rejected(self, line):
        # every report carries its config, and a report holds no NaN or infinity
        name = line.partition(" ")[0]
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            parse_config(line + "\n")

    def test_non_finite_value_rejected_in_library_config(self):
        with pytest.raises(ConfigError, match="^radius_grid must be finite"):
            RunConfig(weight="indicator", radius_grid=(0.1, float("inf")))

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
