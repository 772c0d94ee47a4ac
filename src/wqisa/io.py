"""File formats: point clouds, surfaces, run configurations, sampled grids.

Clouds travel as XYZ ascii (three whitespace-separated numbers per line) or
CSV with a header row and a configurable column mapping; the extension picks
the format unless one is given.  Both are read as a stream of field records
in blocks of ``_ROWS_PER_BLOCK``: one ``map(float, ...)`` parses a block, and
only a block that fails is walked record by record, to skip blank records or
to name the line of the first bad one.  Both are written by one row template,
which also writes sampled surface grids as ``x,y,z`` CSV.  Surfaces persist
as self-describing JSON (degrees, knot vectors, coefficient grid).  Run configurations are
line-oriented ``key = value`` text and round-trip losslessly.  All floats are
written as ``%.17g``: 17 significant digits reproduce the binary value exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields
from itertools import chain, islice
from math import inf, isfinite
from operator import itemgetter
from pathlib import Path

import numpy as np

from .clouds import as_cloud
from .pipeline import FitConfig
from .splines import KnotVector, TensorSplineSpace, WqisaSurface, sample_lattice
from .weights import KERNELS, WEIGHT_KINDS, WeightSpec


class CloudParseError(ValueError):
    """A cloud file could not be parsed; the message names the line."""


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""


# the one float format: 17 significant digits reproduce every binary value
_FLOAT = "%.17g"
# rows parsed or formatted per block: a large cloud is never one string, and
# a block of field lists (about 350 bytes a row) stays small
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
    *columns* names the header columns holding x, y and z.
    """
    path = Path(path)
    fmt = _cloud_format(path, fmt)
    if len(columns) != 3:
        raise ValueError(f"columns must name the x, y and z columns, got {columns!r}")
    lines = path.read_text().splitlines()
    # records are field lists, the first on line `first`, read in blocks;
    # a field count outside [low, high] is width_error
    if fmt == "xyz":
        records = map(str.split, lines)
        first, idx, low, high, width_error = 1, [0, 1, 2], 3, 3, "expected 3 values, got {}"
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
        first, low, high, width_error = 2, max(idx) + 1, inf, "too few fields"
    pick = itemgetter(*idx)
    blocks = []
    for block in iter(lambda: list(islice(records, _ROWS_PER_BLOCK)), []):
        rows = _parse_block(block, pick, low, high)
        if rows is None:
            # walk the block: skip blank records, name the first bad one
            rows = []
            for line_no, fields_ in enumerate(block, start=first):
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
        blocks.append(np.asarray(rows, dtype=float).reshape(-1, 3))
        first += len(block)
        del block  # so that it is freed before the next one is read
    if not sum(map(len, blocks)):
        raise CloudParseError(f"{path}: no data rows")
    return np.concatenate(blocks)


def _parse_block(block: list, pick, low: int, high: float) -> np.ndarray | None:
    """The ``(n, 3)`` rows of *block*, parsed by one ``map(float, ...)``, or
    None when a record is blank, has the wrong width, or holds a field that
    is no finite number."""
    widths = set(map(len, block))
    if not (low <= min(widths) and max(widths) <= high):
        return None
    try:
        values = np.fromiter(map(float, chain.from_iterable(map(pick, block))), float)
    except ValueError:
        return None
    # a field that parses is not blank, so a finite block has no blank record
    return values.reshape(-1, 3) if np.isfinite(values).all() else None


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
    write_cloud(path, sample_lattice(surface, (rx, ry)), fmt="csv")


def write_report(payload: dict, path) -> None:
    """Serialize a report deterministically (sorted keys, no timestamps)."""
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


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
    train_fraction: float = 0.5
    validation_fraction: float = 0.25
    test_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.weight not in WEIGHT_KINDS:
            raise ConfigError(f"weight must be one of {WEIGHT_KINDS}, got {self.weight!r}")

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
    return parse_config(Path(path).read_text())


def write_config(config: RunConfig, path) -> None:
    Path(path).write_text(format_config(config))
