"""Documented refusals: each public entry point rejects a malformed input
with its own message rather than computing with it."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from wqisa.cli import cli_main
from wqisa.clouds import as_cloud
from wqisa.io import load_surface, parse_config, write_cloud, write_surface_grid
from wqisa.kdtree import PlanarIndex
from wqisa.mba import fit_mba
from wqisa.metrics import ErrorStats, surface_sample_points
from wqisa.pipeline import FitConfig, cross_validate, kfold_splits, knn_parameter_grid, split, tune_parameters
from wqisa.splines import KnotVector, TensorSplineSpace, WqisaSurface
from wqisa.synthetic import hemisphere_cloud, perturb
from wqisa.weights import NeighbourTable, WeightSpec

UNIT = TensorSplineSpace(KnotVector.uniform_open(1, 1), KnotVector.uniform_open(1, 1))
FLAT = WqisaSurface(UNIT, np.zeros((2, 2)))
CLOUD = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 2.0], [0.0, 1.0, 3.0], [1.0, 1.0, 4.0]])
KNOTS = [0.0, 0.0, 1.0, 1.0]
# the fields that mark a file as a surface, and a whole payload of the unit surface
HEADER = {"format": "wqisa-surface", "version": 1}
SURFACE = {**HEADER, "degree_x": 1, "degree_y": 1, "knots_x": KNOTS, "knots_y": KNOTS,
           "coefficients": [[0.0, 0.0], [0.0, 0.0]]}


def written(name: str, text: str) -> Path:
    path = Path(name)
    path.write_text(text)
    return path


REFUSALS = [
    pytest.param(
        lambda: split(CLOUD, (0.5, 0.01, 0.01)),
        "fractions (0.5, 0.01, 0.01) leave an empty subset for 4 points",
        id="split-empty-subset",
    ),
    pytest.param(
        lambda: FitConfig(max_iterations=0),
        "max_iterations must be an integer >= 1, got 0",
        id="fit-config-iterations",
    ),
    pytest.param(
        lambda: FitConfig(degrees=(-1, 2)),
        "degrees[0] must be an integer >= 0, got -1",
        id="fit-config-degrees",
    ),
    pytest.param(lambda: knn_parameter_grid(0), "max_k must be an integer >= 1, got 0", id="knn-grid-empty"),
    pytest.param(
        lambda: tune_parameters(CLOUD, CLOUD, UNIT, []),
        "parameter grid must be nonempty",
        id="tune-empty-grid",
    ),
    pytest.param(
        lambda: KnotVector(1, [KNOTS, KNOTS]),
        "knots must be a one-dimensional sequence",
        id="knots-2d",
    ),
    pytest.param(
        lambda: KnotVector(1, [0.0, 0.0, np.inf, np.inf]),
        "knots must be finite",
        id="knots-inf",
    ),
    pytest.param(
        lambda: KnotVector(1, [0.0, 0.0, 0.0, 0.0]),
        "domain is empty: boundary knots coincide",
        id="knots-coincident-boundary",
    ),
    pytest.param(
        lambda: KnotVector(1, [0.0, 0.0, 1.0, 1.0, 1.0]),
        "right boundary knot must occur exactly 2 times",
        id="knots-right-multiplicity",
    ),
    pytest.param(
        lambda: KnotVector.uniform_open(2, 0),
        "num_elements must be an integer >= 1, got 0",
        id="uniform-no-elements",
    ),
    pytest.param(
        lambda: KnotVector.uniform_open(2, 4, 1.0, 1.0),
        "lo must be < hi",
        id="uniform-empty-range",
    ),
    pytest.param(
        lambda: KnotVector.piecewise_bezier(2, [0.0, 1.0, 1.0]),
        "breakpoints must be strictly increasing with >= 2 values",
        id="bezier-repeated-breakpoint",
    ),
    pytest.param(
        lambda: WqisaSurface(UNIT, [[0.0, 0.0], [0.0, np.nan]]),
        "coefficients must be finite",
        id="surface-nan-coefficient",
    ),
    pytest.param(
        lambda: TensorSplineSpace.uniform((2, 2), (0.0, 1.0, 0.0, 1.0), 0),
        "num_elements must be an integer >= 1, got 0",
        id="space-uniform-no-elements",
    ),
    pytest.param(
        lambda: ErrorStats.from_residuals([]),
        "residuals must be a nonempty 1-d array",
        id="stats-empty",
    ),
    pytest.param(
        lambda: surface_sample_points(WqisaSurface(UNIT, np.zeros((2, 2))), density=0),
        "density must be an integer >= 1, got 0",
        id="sample-density-zero",
    ),
    pytest.param(
        lambda: load_surface(
            written("s.json", json.dumps({**HEADER, "degree_x": 1, "degree_y": 1, "knots_x": KNOTS}))
        ),
        "surface payload is missing field 'knots_y'",
        id="surface-missing-field",
    ),
    pytest.param(
        lambda: load_surface(written("s.json", json.dumps({**SURFACE, "format": "something-else"}))),
        "surface payload format must be 'wqisa-surface', got 'something-else'",
        id="surface-format",
    ),
    pytest.param(
        lambda: load_surface(written("s.json", json.dumps({**SURFACE, "version": 99}))),
        "surface payload version must be 1, got 99",
        id="surface-version",
    ),
    pytest.param(
        lambda: load_surface(written("s.json", json.dumps({**SURFACE, "version": True}))),
        "surface payload version must be 1, got True",
        id="surface-version-true",
    ),
    pytest.param(
        lambda: parse_config("outlier_filter = yes\n"),
        "cannot parse outlier_filter = 'yes'",
        id="config-bool",
    ),
    pytest.param(
        lambda: as_cloud(np.zeros((4, 2))),
        "point cloud must have shape (N, 3), got (4, 2)",
        id="cloud-shape",
    ),
    pytest.param(
        lambda: PlanarIndex(np.zeros(4)),
        "points must have shape (N, 2), got (4,)",
        id="index-shape",
    ),
    pytest.param(
        lambda: NeighbourTable(CLOUD, np.zeros((4, 3)), [WeightSpec.knn(1)]),
        "a query is one point (2,) or a block (m, 2), got shape (4, 3)",
        id="table-centres-4x3",
    ),
    pytest.param(
        lambda: NeighbourTable(CLOUD, np.zeros((1, 3)), [WeightSpec.idw()]),
        "a query is one point (2,) or a block (m, 2), got shape (1, 3)",
        id="table-centres-1x3",
    ),
]

# split checks its fractions as FitConfig does, whatever their number or type
REFUSALS += [
    pytest.param(
        lambda fractions=fractions: split(CLOUD, fractions),
        f"fractions must be three finite positive values that sum to at most 1, got {fractions!r}",
        id=f"split-fractions-{label}",
    )
    for label, fractions in [("two", (0.5, 0.5)), ("four", (0.5, 0.25, 0.25, 0.0)), ("text", (0.5, "0.25", 0.25))]
]

# every count and seed argument of the library, by its name, its minimum and
# a call that passes it: a bool, a fraction and a value below the minimum
# are each refused by name, as FitConfig's integer fields are
COUNTS = [
    ("fit-mba", "max_levels", 1, lambda v: fit_mba(CLOUD, v, CLOUD)),
    ("knn-grid", "max_k", 1, knn_parameter_grid),
    ("kfold", "k", 2, lambda v: kfold_splits(CLOUD, v)),
    ("kfold-seed", "seed", 0, lambda v: kfold_splits(CLOUD, 2, seed=v)),
    ("cross-validate", "k", 2, lambda v: cross_validate(CLOUD, FitConfig(), v)),
    ("uniform", "num_elements", 1, lambda v: KnotVector.uniform_open(2, v)),
    ("space-uniform", "num_elements", 1, lambda v: TensorSplineSpace.uniform((2, 2), (0, 1, 0, 1), v)),
    ("uniform-degree", "degree", 0, lambda v: KnotVector.uniform_open(v, 2)),
    ("bezier-degree", "degree", 0, lambda v: KnotVector.piecewise_bezier(v, [0.0, 1.0])),
    ("space-uniform-degree", "degree", 0, lambda v: TensorSplineSpace.uniform((v, 2), (0, 1, 0, 1), 2)),
    ("fit-mba-degree", "degree", 0, lambda v: fit_mba(CLOUD, 3, CLOUD, degrees=(v, 2))),
    ("hemisphere", "n", 1, hemisphere_cloud),
    ("hemisphere-seed", "seed", 0, lambda v: hemisphere_cloud(4, v)),
    ("sample-density", "density", 1, lambda v: surface_sample_points(FLAT, v)),
    ("grid-x", "resolution[0]", 2, lambda v: write_surface_grid(FLAT, (v, 5), "g.xyz")),
    ("grid-y", "resolution[1]", 2, lambda v: write_surface_grid(FLAT, (5, v), "g.xyz")),
    ("index-knn", "k", 1, lambda v: PlanarIndex(CLOUD[:, :2]).knn((0.5, 0.5), v)),
    ("split-seed", "seed", 0, lambda v: split(CLOUD, seed=v)),
    ("perturb-seed", "seed", 0, lambda v: perturb(CLOUD, noise_std=0.1, seed=v)),
]
REFUSALS += [
    pytest.param(
        lambda call=call, value=value: call(value),
        f"{name} must be an integer >= {minimum}, got {value!r}",
        id=f"{label}-{value!r}",
    )
    for label, name, minimum, call in COUNTS
    for value in (True, 2.5, minimum - 1)
]


@pytest.mark.parametrize("call, message", REFUSALS)
def test_refusal(tmp_path, monkeypatch, call, message):
    monkeypatch.chdir(tmp_path)  # where the surface file is written
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# one invalid value per probe: the FitConfig field and value, and the same
# value as run-config text, whose key the CLI must name
CONFIG_PROBES = [
    pytest.param("seed", -1, "seed = -1", id="seed-negative"),
    pytest.param("seed", 1.5, "seed = 1.5", id="seed-fractional"),
    pytest.param("seed", True, "seed = true", id="seed-bool"),
    pytest.param("epsilon", np.inf, "epsilon = inf", id="epsilon-inf"),
    pytest.param("fractions", (np.nan, 0.25, 0.25), "train_fraction = nan", id="fraction-nan"),
    pytest.param("fractions", (1.0, 0.25, 0.25), "train_fraction = 1.0", id="fractions-sum"),
    pytest.param("degrees", (2.5, 2), "degree_x = 2.5", id="degree-fractional"),
    pytest.param("degrees", (True, 2), "degree_x = true", id="degree-bool"),
    pytest.param("degrees", (2,), "degree_y =", id="degrees-one"),
    pytest.param("max_iterations", 2.5, "max_iterations = 2.5", id="iterations-fractional"),
]


@pytest.mark.parametrize("name, value, line", CONFIG_PROBES)
def test_fit_config_refuses_by_field(name, value, line):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)}\b"):
        FitConfig(**{name: value})


@pytest.mark.parametrize("name, value, line", CONFIG_PROBES)
def test_run_config_text_refused_by_key(tmp_path, capsys, name, value, line):
    write_cloud(tmp_path / "cloud.xyz", CLOUD)
    (tmp_path / "run.cfg").write_text(line + "\n")
    argv = ["fit", "--cloud", str(tmp_path / "cloud.xyz"), "--config", str(tmp_path / "run.cfg"),
            "--surface-out", str(tmp_path / "s.json"), "--report-out", str(tmp_path / "r.json")]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    key = line.partition(" ")[0]
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err
    assert "Traceback" not in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cloud.xyz", "run.cfg"]
