"""File formats: point clouds, surfaces, run configurations, sampled grids.

Clouds travel as XYZ ascii (three whitespace-separated numbers per line) or
CSV whose header names the ``x``, ``y`` and ``z`` columns.  The extension is
the format: ``.csv`` is CSV, any other is XYZ.  Cloud, config and surface
files are UTF-8, with or without a byte-order mark, read by one reader; a
byte that is not UTF-8 is refused with its file and line.  A cloud is read
by one ``np.loadtxt`` call; a file it refuses is walked record by record,
which skips blank records and names the line the first bad one starts on.  The walk defines a valid cloud:
numpy's reader accepts no file the walk refuses.

Clouds and sampled surface grids are written by one row writer, by the same
extension rule, in blocks of at most ``_ROWS_PER_BLOCK`` rows, from one
line buffer reused for the whole file: its separators are set once, each
block overwrites the fields it writes, and the buffer's bytes, NUL padding
dropped, go to the file without a copy.  Each value is written as the bytes
of ``'%.17g' % v``, whose 17 significant digits reproduce it exactly.
numpy formats every value with ``1e-4 <= |v| < 1e16``; Python's ``%``
formats the others (zeros, subnormals, smaller and larger magnitudes), in
one call per block.  A grid formats each lattice x and y once and takes its
z values from ``evaluate_lattice``.  A grid block is whole x rows, or a
slice of one row past ``_ROWS_PER_BLOCK`` y values: the y column is laid
out once per grid (per block when rows are sliced), and each block
broadcasts its x text and formats only its z values.  Surfaces and reports
are JSON, reports without NaN or infinity.  Run configs are ``key = value``
lines with finite floats, written as ``%.17g``, and round-trip losslessly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields
from math import inf, isfinite
from operator import itemgetter
from pathlib import Path

import numpy as np

from .clouds import as_cloud, check_integer
from .pipeline import FitConfig
from .splines import KnotVector, TensorSplineSpace, WqisaSurface
from .weights import KERNELS, Kernel, WeightSpec


class CloudParseError(ValueError):
    """A cloud file could not be parsed; the message names the line."""


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""


# the one float format: 17 significant digits reproduce every binary value
_FLOAT = "%.17g"
# rows formatted per block: a large cloud or grid is never held as one string
_ROWS_PER_BLOCK = 8192
# bytes per formatted field: the longest %.17g text is "-4.9406564584124654e-324"
_WIDTH = 24
_CSV_COLUMNS = ("x", "y", "z")  # a CSV point file's header, in the order written


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Halves of at most 26 significant bits that sum to *a* exactly."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


# 10**k for k = 0..22, each an exact double, and its Veltkamp halves
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HIGH, _POW10_LOW = _veltkamp(_POW10)
# the decimal exponents %.17g writes positionally for 1e-4 <= |v| < 1e16
_EXPONENTS = range(-4, 16)
# 0..9999 as four ASCII digits in one word, the first in the low byte, and
# the trailing zeros of each (the powers 10**j, j = 1..4, that divide it)
_QUADS = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
_QUADS = _QUADS.view("<u4").ravel().astype(np.uint64)
_TRAILING = sum(np.arange(10000) % 10**j == 0 for j in range(1, 5)).astype(np.int8)
# the byte of the digit words that holds the first of the 17 digits
_FIRST = 7


def _layout(e: int, negative: bool, kept: int) -> tuple[int, bytes, bytes]:
    """How ``%.17g`` lays out 17 digits with decimal exponent *e* when the
    digits through the *kept*-th are kept: the byte the first digit goes
    to, the ``_WIDTH`` chars it writes with NUL at each digit's byte, and
    each byte's source: 0 for a constant char, 1 for a digit in place and 2
    for a digit one byte further up, past the '.'."""
    sign = "-" * negative
    if e < 0:  # '0.', -e - 1 zeros, the digits
        head, digits = sign + "0." + "0" * (-e - 1), "\0" * kept
    else:  # the first e + 1 digits, and a '.' only before a kept fraction digit
        head, digits = sign, "\0" * (e + 1) + ("." + "\0" * (kept - e - 1) if kept > e + 1 else "")
    text, at = head + digits, len(head)
    source = bytes(1 + text.count(".", at, j) if c == "\0" else 0 for j, c in enumerate(text))
    return at, text.encode().ljust(_WIDTH, b"\0"), source.ljust(_WIDTH, b"\0")


def _layout_tables():
    """Per plan ``18 * (2 * (e + 4) + negative) + kept``: the shift that
    moves the first digit from byte ``_FIRST`` to its byte, and the constant
    chars and the masks (0xff) of the digits in place and one byte further
    up, each field as three little-endian words.  The word tables are
    word-major, so a lookup gives one contiguous row per word."""
    at, text, source = zip(
        *(_layout(e, negative, kept) for e in _EXPONENTS for negative in (False, True) for kept in range(18))
    )
    text, source = (np.frombuffer(b"".join(column), np.uint8) for column in (text, source))
    fields = np.stack([text, 0xFF * (source == 1), 0xFF * (source == 2)]).astype(np.uint8)
    words = np.ascontiguousarray(fields.view("<u8").reshape(3, -1, 3).transpose(0, 2, 1), np.uint64)
    return 8 * (_FIRST - np.array(at, np.uint64)), words[0], words[1:]


_SHIFTS, _CONSTANTS, _MASKS = _layout_tables()


def _fields(values: np.ndarray) -> np.ndarray:
    """The ``%.17g`` text of each float64 in *values*, as ``_WIDTH`` ASCII
    codes a value, NUL after the text.

    A value with ``1e-4 <= |v| < 1e16`` is rounded in numpy.  For
    ``e = floor(log10 |v|)``, Dekker's exact product gives
    ``|v| * 10**(16 - e)`` as ``p + err``, and its 17 digits are
    ``p + rint(err)``: ``p`` lies above 2**53, so it is an even integer, and
    rounding ``err`` half to even rounds ``p + err`` half to even, as
    ``%.17g`` does.  A value is taken only if ``p + err`` lies in
    ``[1e16, 1e17)`` and its digits stay below ``1e17``.  Every other value,
    one whose ``log10`` came out wrong included, is formatted by ``%``.
    """
    magnitude = np.abs(values)
    fast = (magnitude >= 1e-4) & (magnitude < 1e16)
    a = np.where(fast, magnitude, 1.0)
    e = np.clip(np.floor(np.log10(a)), _EXPONENTS[0], _EXPONENTS[-1]).astype(np.intp)
    k = 16 - e
    p = a * np.take(_POW10, k)
    (a_high, a_low), s_high, s_low = _veltkamp(a), np.take(_POW10_HIGH, k), np.take(_POW10_LOW, k)
    err = ((a_high * s_high - p) + a_high * s_low + a_low * s_high) + a_low * s_low
    digits = p.astype(np.int64) + np.rint(err).astype(np.int64)
    fast &= (p > 1e16) | ((p == 1e16) & (err >= 0))
    fast &= ((p < 1e17) | ((p == 1e17) & (err < 0))) & (digits < 10**17)
    digits[~fast] = 10**16
    # the 17 digits: a lead one, then four groups of four
    high = digits // 10**8
    low = digits - high * 10**8
    lead = high // 10**8
    high -= lead * 10**8
    q1, q3 = high // 10**4, low // 10**4
    q2, q4 = high - q1 * 10**4, low - q3 * 10**4
    # as ASCII in three little-endian words, the lead digit at byte _FIRST
    w0 = (lead.astype(np.uint64) + ord("0")) << 8 * _FIRST
    w1 = np.take(_QUADS, q1) | np.take(_QUADS, q2) << 32
    w2 = np.take(_QUADS, q3) | np.take(_QUADS, q4) << 32
    # the digits kept run through the last nonzero one
    low_zeros = np.where(q4 == 0, 4 + np.take(_TRAILING, q3), np.take(_TRAILING, q4))
    high_zeros = np.where(q2 == 0, 4 + np.take(_TRAILING, q1), np.take(_TRAILING, q2))
    trailing = np.where(low == 0, 8 + high_zeros, low_zeros)
    plan = 18 * (2 * (e - _EXPONENTS[0]) + (values < 0)) + 17 - trailing
    # the digits moved down to the plan's first byte, and one byte further up
    shift = np.take(_SHIFTS, plan)
    up = 64 - shift
    there = (w0 >> shift) | (w1 << up), (w1 >> shift) | (w2 << up), w2 >> shift
    further = there[0] << 8, (there[1] << 8) | (there[0] >> 56), (there[2] << 8) | (there[1] >> 56)
    text = np.take(_CONSTANTS, plan, axis=1)
    masks = np.take(_MASKS, plan, axis=2)
    words = np.empty((values.size, 3), "<u8")
    for j in range(3):
        np.bitwise_or(text[j], (there[j] & masks[0, j]) | (further[j] & masks[1, j]), out=words[:, j])
    chars = words.view(np.uint8)
    # zeros, subnormals, the two ends and any value refused above
    rest = np.flatnonzero(~fast)
    if rest.size:
        text = ",".join([_FLOAT] * rest.size) % tuple(values[rest].tolist())
        chars[rest] = np.array(text.split(","), f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    return chars


def _cloud_format(path: Path) -> str:
    """The one format rule for point files: a ``.csv`` *path* is CSV, any other XYZ."""
    return "csv" if path.suffix.lower() == ".csv" else "xyz"


def _write_points(path, rows: int, blocks) -> None:
    """Write the point file *path* in its format from one line buffer of
    *rows* rows, three ``_WIDTH``-byte fields and their separators each,
    reused block by block; the separators are set once.
    ``blocks(fields)`` is given the buffer's ``(rows, 3, _WIDTH)`` field
    bytes and yields the row count of each block once it has filled the
    first rows; a field it leaves keeps the bytes of the block before."""
    is_csv = _cloud_format(Path(path)) == "csv"
    line = np.empty((rows, 3, _WIDTH + 1), np.uint8)
    line[:, :, _WIDTH] = np.frombuffer(b",,\n" if is_csv else b"  \n", np.uint8)
    with Path(path).open("wb") as fh:
        fh.write(",".join(_CSV_COLUMNS).encode() + b"\n" if is_csv else b"")
        for count in blocks(line[:, :, :_WIDTH]):
            chars = line[:count]
            fh.write(chars[chars != 0])


def _read_text(path: Path, error: type[ValueError]) -> str:
    """The text of the UTF-8 file *path*, with or without a byte-order mark;
    a byte that is not UTF-8 raises *error*, naming the file and the line."""
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = len((raw[: exc.start].decode("utf-8-sig") + "|").splitlines())
        raise error(
            f"{path}: line {line}: not UTF-8: byte 0x{raw[exc.start]:02x} ({exc.reason})"
        ) from None


def _csv_records(path: Path, reader):
    """``(line, fields)`` of each record *reader* reads, the line being the
    one the record starts on; a record the ``csv`` module refuses raises
    ``CloudParseError``."""
    line = reader.line_num + 1
    try:
        for record in reader:
            yield line, record
            line = reader.line_num + 1
    except csv.Error as exc:
        raise CloudParseError(f"{path}: line {reader.line_num}: {exc}") from None


def read_cloud(path) -> np.ndarray:
    """Read a point cloud, preserving row order.

    The extension is the format: a ``.csv`` file is CSV, whose header names
    the columns ``x``, ``y`` and ``z`` in any order, other columns being
    ignored; any other file is XYZ ascii.  The file is UTF-8, with or
    without a byte-order mark.
    """
    path = Path(path)
    fmt = _cloud_format(path)
    text = _read_text(path, CloudParseError)
    # a file is walked where numpy's reader differs: it strips U+001F from a
    # field's ends (float() refuses it), joins a quoted CSV field across lines
    # and reads a CSV field over the csv module's size limit
    numpy_agrees = "\x1f" not in text and (fmt == "xyz" or '"' not in text)
    lines = text.splitlines()
    del text  # so that only the lines are held while they are parsed
    # records are (line, fields) pairs, the data starting on line `first`; a
    # field count outside [low, high] is width_error
    if fmt == "xyz":
        records = enumerate(map(str.split, lines), start=1)
        first, idx, low, high, width_error = 1, [0, 1, 2], 3, 3, "expected 3 values, got {}"
        options = {}
    else:
        reader = csv.reader(lines)
        records = _csv_records(path, reader)
        try:
            header = [h.strip() for h in next(records)[1]]
        except StopIteration:
            raise CloudParseError(f"{path}: empty file") from None
        try:
            idx = [header.index(c) for c in _CSV_COLUMNS]
        except ValueError:
            raise CloudParseError(
                f"{path}: header {header!r} is missing one of the columns {_CSV_COLUMNS!r}"
            ) from None
        first, low, high, width_error = reader.line_num + 1, max(idx) + 1, inf, "too few fields"
        options = {"delimiter": ",", "usecols": idx}
        numpy_agrees = numpy_agrees and max(map(len, lines)) <= csv.field_size_limit()
    # numpy's reader takes the rows of a well-formed file; it warns on a file
    # without data rows, which is left to the walk below
    data = lines[first - 1 :]
    if numpy_agrees and any(map(str.strip, data)):
        try:
            cloud = np.loadtxt(data, ndmin=2, comments=None, **options)
        except ValueError:
            pass
        else:
            if cloud.shape[1] == 3 and np.isfinite(cloud).all():
                return cloud
    # the walk skips blank records and names the first bad one
    pick = itemgetter(*idx)
    rows = []
    for line_no, fields_ in records:
        if not "".join(fields_).strip():
            continue
        if not low <= len(fields_) <= high:
            message = width_error.format(len(fields_))
            raise CloudParseError(f"{path}: line {line_no}: {message}")
        picked = list(pick(fields_))
        try:
            x, y, z = map(float, picked)
        except ValueError:
            raise CloudParseError(
                f"{path}: line {line_no}: cannot parse {picked!r} as numbers"
            ) from None
        if not (isfinite(x) and isfinite(y) and isfinite(z)):
            raise CloudParseError(f"{path}: line {line_no}: non-finite value")
        rows.append((x, y, z))
    if not rows:
        raise CloudParseError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def write_cloud(path, cloud) -> None:
    """Write a cloud as CSV to a ``.csv`` path, else as XYZ ascii."""
    cloud = as_cloud(cloud)

    def blocks(fields):
        for start in range(0, cloud.shape[0], _ROWS_PER_BLOCK):
            block = cloud[start : start + _ROWS_PER_BLOCK]
            for j in range(3):
                fields[: len(block), j] = _fields(block[:, j])
            yield len(block)

    _write_points(path, min(cloud.shape[0], _ROWS_PER_BLOCK), blocks)


def save_surface(surface: WqisaSurface, path) -> None:
    payload = {
        "format": "wqisa-surface",
        "version": 1,
        "degree_x": surface.space.knots_x.degree,
        "degree_y": surface.space.knots_y.degree,
        "knots_x": [float(t) for t in surface.space.knots_x.knots],
        "knots_y": [float(t) for t in surface.space.knots_y.knots],
        "coefficients": [[float(c) for c in row] for row in surface.coefficients],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def load_surface(path) -> WqisaSurface:
    """Read a surface that ``save_surface`` wrote, through the one UTF-8 reader."""
    path = Path(path)
    try:
        payload = json.loads(_read_text(path, ValueError))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"surface payload must be a JSON object, got {type(payload).__name__}")
    for name, expected in (("format", "wqisa-surface"), ("version", 1)):
        if type(payload.get(name)) is not type(expected) or payload[name] != expected:  # true is not 1
            raise ValueError(f"surface payload {name} must be {expected!r}, got {payload.get(name)!r}")
    try:
        # KnotVector rejects a degree that is not an integer
        space = TensorSplineSpace(
            KnotVector(payload["degree_x"], np.asarray(payload["knots_x"], dtype=float)),
            KnotVector(payload["degree_y"], np.asarray(payload["knots_y"], dtype=float)),
        )
        coefficients = np.asarray(payload["coefficients"], dtype=float)
    except KeyError as exc:
        raise ValueError(f"surface payload is missing field {exc}") from None
    except TypeError as exc:  # a field of the wrong JSON type
        raise ValueError(f"malformed surface payload: {exc}") from None
    return WqisaSurface(space, coefficients)


def write_surface_grid(surface: WqisaSurface, resolution: tuple[int, int], path) -> None:
    """Sample the surface on a uniform grid and write it as a point file,
    CSV or XYZ by the extension as ``write_cloud`` writes it.

    Row-major: x varies slowest.  Values carry 17 significant digits, so
    re-reading the grid with ``read_cloud`` and re-evaluating the surface
    reproduces the z column exactly.
    """
    rx, ry = (check_integer(f"resolution[{i}]", r, 2) for i, r in enumerate(resolution))
    xmin, xmax, ymin, ymax = surface.space.domain
    xs, ys = np.linspace(xmin, xmax, rx), np.linspace(ymin, ymax, ry)
    z = surface.evaluate_lattice(xs, ys).reshape(rx, ry)
    if not np.isfinite(z).all():
        raise ValueError("the sampled surface holds non-finite values")
    # each lattice x and y is formatted once, a block of them at a time; a
    # block of the grid is whole x rows, or a slice of one row past
    # _ROWS_PER_BLOCK y values
    x_text, y_text = (
        np.concatenate([_fields(t[s : s + _ROWS_PER_BLOCK]) for s in range(0, t.size, _ROWS_PER_BLOCK)])
        for t in (xs, ys)
    )
    height, width = min(rx, max(1, _ROWS_PER_BLOCK // ry)), min(ry, _ROWS_PER_BLOCK)

    def blocks(fields):
        grid = fields.reshape(height, width, 3, _WIDTH)
        laid = None  # the first y of the slice the y column holds
        for i in range(0, rx, height):
            for j in range(0, ry, width):
                values = z[i : i + height, j : j + width]
                tile = grid[: values.shape[0], : values.shape[1]]
                if j != laid:
                    tile[:, :, 1] = y_text[j : j + width]
                    laid = j
                tile[:, :, 0] = x_text[i : i + height, None]
                tile[:, :, 2] = _fields(values.ravel()).reshape(*values.shape, _WIDTH)
                yield values.size

    _write_points(path, height * width, blocks)


def write_report(payload: dict, path) -> None:
    """Serialize a report deterministically (sorted keys, no timestamps, no NaN)."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: report not written: {exc}") from None
    Path(path).write_text(text + "\n")


# the RunConfig field that carries each WeightSpec field (a grid for a tunable one)
_SPEC_FIELDS = {
    "radius": "radius_grid",
    "sigma": "sigma_grid",
    "k": "k_grid",
    "truncation": "truncation",
    "coincidence_tol": "coincidence_tolerance",
    "gaussian_squared": "gaussian_squared",
}
# the keys behind each FitConfig field that is not itself a key
_FIT_KEYS = {
    "degrees[0]": "degree_x",
    "degrees[1]": "degree_y",
    "fractions": "train_fraction, validation_fraction, test_fraction",
}
# the defaults of a run config are FitConfig's and WeightSpec's
_DEFAULT = FitConfig()


@dataclass(frozen=True)
class RunConfig:
    """Flat, human-editable text form of a :class:`FitConfig`.

    Construction builds the ``FitConfig``, so its checks and
    ``WeightSpec``'s are the run config's: each refusal is re-raised as
    ``ConfigError``, prefixed with the keys behind a field of another name.
    Only a non-finite value is refused here, since every report carries
    every key and holds no NaN or infinity.
    """

    degree_x: int = _DEFAULT.degrees[0]
    degree_y: int = _DEFAULT.degrees[1]
    weight: str = _DEFAULT.weight_kind
    k_grid: tuple[int, ...] = tuple(spec.k for spec in _DEFAULT.weight_grid)
    radius_grid: tuple[float, ...] = ()
    sigma_grid: tuple[float, ...] = ()
    truncation: int = 500
    coincidence_tolerance: float | None = WeightSpec.coincidence_tol
    gaussian_squared: bool = WeightSpec.gaussian_squared
    outlier_filter: bool = WeightSpec.outlier_filter
    fence: float = WeightSpec.fence
    epsilon: float | None = _DEFAULT.epsilon
    max_iterations: int = _DEFAULT.max_iterations
    train_fraction: float = _DEFAULT.fractions[0]
    validation_fraction: float = _DEFAULT.fractions[1]
    test_fraction: float = _DEFAULT.fractions[2]
    seed: int = _DEFAULT.seed

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():  # reports carry it, and hold no NaN
            values = value if isinstance(value, tuple) else (value,)
            if not all(isfinite(v) for v in values if isinstance(v, float)):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        self.to_fit_config()

    def to_fit_config(self) -> FitConfig:
        # an unknown weight kind takes no field, and WeightSpec refuses it by name
        kernel = KERNELS.get(self.weight) or Kernel(None, (), False)
        keys = {**_SPEC_FIELDS, **_FIT_KEYS, "weight_grid": _SPEC_FIELDS.get(kernel.parameter, "weight")}
        common = {"outlier_filter": self.outlier_filter, "fence": self.fence}
        common.update({name: getattr(self, _SPEC_FIELDS[name]) for name in kernel.optional})
        try:
            if kernel.parameter is None:
                grid = (WeightSpec(self.weight, **common),)
            else:
                values = getattr(self, _SPEC_FIELDS[kernel.parameter])
                values = values if isinstance(values, tuple) else (values,)
                grid = tuple(WeightSpec(self.weight, **{kernel.parameter: v}, **common) for v in values)
            return FitConfig(
                weight_grid=grid,
                degrees=(self.degree_x, self.degree_y),
                epsilon=self.epsilon,
                max_iterations=self.max_iterations,
                fractions=(self.train_fraction, self.validation_fraction, self.test_fraction),
                seed=self.seed,
            )
        except ValueError as exc:  # each message begins with the field's name
            field = str(exc).partition(" ")[0]
            key = keys.get(field, field)
            raise ConfigError(str(exc) if key == field else f"{key}: {exc}") from None

    def to_dict(self) -> dict:
        return asdict(self)


def _format_value(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FLOAT % value
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def format_config(config: RunConfig) -> str:
    lines = [f"{f.name} = {_format_value(getattr(config, f.name))}" for f in fields(config)]
    return "\n".join(lines) + "\n"


def _parse_value(name: str, text: str, kind):
    text = text.strip()
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "float | None":
            return None if text == "auto" else float(text)
        if kind == "bool":
            if text not in ("true", "false"):
                raise ValueError
            return text == "true"
        if kind == "tuple[int, ...]":
            return tuple(int(f) for f in text.split(",")) if text else ()
        if kind == "tuple[float, ...]":
            return tuple(float(f) for f in text.split(",")) if text else ()
        return text
    except ValueError:
        raise ConfigError(f"cannot parse {name} = {text!r}") from None


# field name -> annotation string, which _parse_value dispatches on
_FIELD_KINDS = {f.name: f.type for f in fields(RunConfig)}


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` lines; blank lines and ``#`` comments allowed."""
    values = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {stripped!r}")
        name, _, raw = stripped.partition("=")
        name = name.strip()
        if name not in _FIELD_KINDS:
            raise ConfigError(f"line {line_no}: unknown key {name!r}")
        if name in values:
            raise ConfigError(f"line {line_no}: duplicate key {name!r}")
        values[name] = _parse_value(name, raw, _FIELD_KINDS[name])
    return RunConfig(**values)


def read_config(path) -> RunConfig:
    """Read a run config from a UTF-8 file, with or without a byte-order mark."""
    return parse_config(_read_text(Path(path), ConfigError))


def write_config(config: RunConfig, path) -> None:
    Path(path).write_text(format_config(config))
