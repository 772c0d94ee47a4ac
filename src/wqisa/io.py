"""File formats: point clouds, surfaces, run configurations, sampled grids.

Clouds travel as XYZ ascii (three whitespace-separated numbers per line) or
CSV with a header row and a configurable column mapping; the extension picks
the format unless one is given.  Cloud and config files are UTF-8, with or
without a byte-order mark.  A cloud is read by one ``np.loadtxt`` call; a
file it refuses is walked record by record, which skips blank records and
names the line of the first bad one.  The walk defines a valid cloud: numpy's
reader accepts no file the walk refuses.  Both are written by one row template;
a sampled surface grid, ``x,y,z`` CSV, formats each lattice x and y once.
Surfaces and reports are JSON, reports without NaN or infinity.  Run configs
are ``key = value`` lines with finite floats and round-trip losslessly.  All
floats are written as ``%.17g``: 17 significant digits reproduce them exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields
from itertools import chain, islice, repeat
from math import inf, isfinite
from operator import itemgetter
from pathlib import Path

import numpy as np

from .clouds import as_cloud
from .pipeline import DEFAULT_FRACTIONS, FitConfig
from .splines import KnotVector, TensorSplineSpace, WqisaSurface, sample_lattice
from .weights import KERNELS, WEIGHT_KINDS, WeightSpec


class CloudParseError(ValueError):
    """A cloud file could not be parsed; the message names the line."""


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""


# the one float format: 17 significant digits reproduce every binary value
_FLOAT = "%.17g"
# rows formatted per block: a large cloud or grid is never written as one string
_ROWS_PER_BLOCK = 512


def _fmt(value: float) -> str:
    return _FLOAT % value


def _cloud_format(path: Path, fmt: str | None) -> str:
    """*fmt*, or the format the extension implies: ``.csv`` is CSV, else XYZ."""
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "xyz"
    if fmt not in ("xyz", "csv"):
        raise ValueError(f"unknown cloud format {fmt!r}")
    return fmt


def read_cloud(path, fmt: str | None = None, columns: tuple[str, str, str] = ("x", "y", "z")) -> np.ndarray:
    """Read a point cloud, preserving row order.

    *fmt* is ``"xyz"`` or ``"csv"``; by default it is inferred from the file
    extension (``.csv`` means CSV, anything else means XYZ ascii).  For CSV,
    *columns* names the header columns holding x, y and z.  The file is
    UTF-8, with or without a byte-order mark.
    """
    path = Path(path)
    fmt = _cloud_format(path, fmt)
    if len(columns) != 3:
        raise ValueError(f"columns must name the x, y and z columns, got {columns!r}")
    text = path.read_text(encoding="utf-8-sig")
    # numpy's reader strips the unit separator U+001F from a field's ends,
    # where float() refuses it, so a file that holds one is walked
    numpy_agrees = "\x1f" not in text
    lines = text.splitlines()
    del text  # so that only the lines are held while they are parsed
    # records are field lists, the first on line `first`; a field count
    # outside [low, high] is width_error
    if fmt == "xyz":
        records = map(str.split, lines)
        first, idx, low, high, width_error = 1, [0, 1, 2], 3, 3, "expected 3 values, got {}"
        options = {}
    else:
        records = csv.reader(lines)
        try:
            header = [h.strip() for h in next(records)]
        except StopIteration:
            raise CloudParseError(f"{path}: empty file") from None
        try:
            idx = [header.index(c) for c in columns]
        except ValueError:
            raise CloudParseError(
                f"{path}: header {header!r} is missing one of the columns {columns!r}"
            ) from None
        first, low, high, width_error = records.line_num + 1, max(idx) + 1, inf, "too few fields"
        options = {"delimiter": ",", "quotechar": '"', "usecols": idx}
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
    for line_no, fields_ in enumerate(records, start=first):
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


def write_cloud(path, cloud, fmt: str | None = None) -> None:
    """Write a cloud as XYZ ascii or CSV (inferred from the extension)."""
    path = Path(path)
    cloud = as_cloud(cloud)
    header, sep = ("x,y,z\n", ",") if _cloud_format(path, fmt) == "csv" else ("", " ")
    row = sep.join([_FLOAT] * 3) + "\n"
    with path.open("w") as fh:
        fh.write(header)
        for start in range(0, cloud.shape[0], _ROWS_PER_BLOCK):
            block = cloud[start : start + _ROWS_PER_BLOCK]
            fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))


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
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"surface payload must be a JSON object, got {type(payload).__name__}")
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
    """Sample the surface on a uniform grid and write ``x,y,z`` CSV rows.

    Row-major: x varies slowest.  Values carry 17 significant digits, so
    re-reading the grid and re-evaluating the surface reproduces the z
    column exactly.
    """
    rx, ry = resolution
    if rx < 2 or ry < 2:
        raise ValueError(f"resolution must be at least 2 per axis, got {resolution}")
    lattice = as_cloud(sample_lattice(surface, (rx, ry)))  # refuses a non-finite sample
    # each lattice x and y is formatted once; a chunk of y strings is a row template
    y_text = [f"%s,{_fmt(y)},{_FLOAT}\n" for y in lattice[:ry, 1].tolist()]
    templates = ["".join(y_text[i : i + _ROWS_PER_BLOCK]) for i in range(0, ry, _ROWS_PER_BLOCK)]
    with Path(path).open("w") as fh:
        fh.write("x,y,z\n")
        for x, z_row in zip(lattice[::ry, 0].tolist(), lattice[:, 2].reshape(rx, ry)):
            x_z = zip(repeat(_fmt(x)), z_row.tolist())
            for template in templates:
                fh.write(template % tuple(chain.from_iterable(islice(x_z, _ROWS_PER_BLOCK))))


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


@dataclass(frozen=True)
class RunConfig:
    """Flat, human-editable description of one fitting run."""

    degree_x: int = 2
    degree_y: int = 2
    weight: str = "knn"
    k_grid: tuple[int, ...] = tuple(range(1, 11))
    radius_grid: tuple[float, ...] = ()
    sigma_grid: tuple[float, ...] = ()
    truncation: int = 500
    coincidence_tolerance: float | None = None
    gaussian_squared: bool = False
    outlier_filter: bool = False
    fence: float = 1.5
    epsilon: float | None = None
    max_iterations: int = 15
    train_fraction: float = DEFAULT_FRACTIONS[0]
    validation_fraction: float = DEFAULT_FRACTIONS[1]
    test_fraction: float = DEFAULT_FRACTIONS[2]
    seed: int = 0

    def __post_init__(self) -> None:
        if self.weight not in WEIGHT_KINDS:
            raise ConfigError(f"weight must be one of {WEIGHT_KINDS}, got {self.weight!r}")
        for name, value in asdict(self).items():  # reports carry it, and hold no NaN
            values = value if isinstance(value, tuple) else (value,)
            if not all(isfinite(v) for v in values if isinstance(v, float)):
                raise ConfigError(f"{name} must be finite, got {value!r}")

    def to_fit_config(self) -> FitConfig:
        kernel = KERNELS[self.weight]
        common = {"outlier_filter": self.outlier_filter, "fence": self.fence}
        common.update({name: getattr(self, _SPEC_FIELDS[name]) for name in kernel.optional})
        if kernel.parameter is None:
            grid = (WeightSpec(self.weight, **common),)
        else:
            source = _SPEC_FIELDS[kernel.parameter]
            values = getattr(self, source)
            if not isinstance(values, tuple):
                values = (values,)
            if not values:
                raise ConfigError(f"weight {self.weight!r} needs a nonempty {source}")
            grid = tuple(
                WeightSpec(self.weight, **{kernel.parameter: value}, **common) for value in values
            )
        return FitConfig(
            weight_grid=grid,
            degrees=(self.degree_x, self.degree_y),
            epsilon=self.epsilon,
            max_iterations=self.max_iterations,
            fractions=(self.train_fraction, self.validation_fraction, self.test_fraction),
            seed=self.seed,
        )

    def to_dict(self) -> dict:
        return asdict(self)


def _format_value(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
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
    return parse_config(Path(path).read_text(encoding="utf-8-sig"))


def write_config(config: RunConfig, path) -> None:
    Path(path).write_text(format_config(config))
